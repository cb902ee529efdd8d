#include "volcano/volcano.h"

#include <gtest/gtest.h>

#include <map>

namespace vcq::volcano {
namespace {

std::unique_ptr<ScanOp> CountingScan(size_t n) {
  auto scan = std::make_unique<ScanOp>(n);
  scan->AddAccessor([](size_t i) { return static_cast<int64_t>(i); });
  return scan;
}

TEST(VolcanoScanTest, ProducesEveryTupleOnce) {
  auto scan = CountingScan(100);
  scan->Open();
  Row row;
  int64_t expected = 0;
  while (scan->Next(&row)) {
    ASSERT_EQ(row[0], expected);
    ++expected;
  }
  EXPECT_EQ(expected, 100);
}

TEST(VolcanoSelectTest, FiltersByPredicate) {
  auto select = std::make_unique<SelectOp>(
      CountingScan(100), [](const Row& r) { return r[0] % 7 == 0; });
  select->Open();
  Row row;
  int count = 0;
  while (select->Next(&row)) {
    ASSERT_EQ(row[0] % 7, 0);
    ++count;
  }
  EXPECT_EQ(count, 15);  // 0, 7, ..., 98
}

TEST(VolcanoProjectTest, AppendsComputedSlots) {
  auto project = std::make_unique<ProjectOp>(CountingScan(10));
  const size_t s_sq = project->AddExpr([](const Row& r) { return r[0] * r[0]; });
  project->Open();
  Row row;
  while (project->Next(&row)) ASSERT_EQ(row[s_sq], row[0] * row[0]);
}

TEST(VolcanoJoinTest, MatchesReferenceIncludingDuplicates) {
  // Build has duplicate keys: each probe row must match all of them.
  auto build = std::make_unique<ScanOp>(6);
  build->AddAccessor([](size_t i) { return static_cast<int64_t>(i % 3); });
  build->AddAccessor([](size_t i) { return static_cast<int64_t>(i * 10); });
  auto probe = CountingScan(9);
  auto project = std::make_unique<ProjectOp>(std::move(probe));
  const size_t s_key =
      project->AddExpr([](const Row& r) { return r[0] % 3; });
  auto join = std::make_unique<HashJoinOp>(std::move(build),
                                           std::move(project), 0, s_key,
                                           std::vector<size_t>{1});
  join->Open();
  Row row;
  std::map<int64_t, int> matches_per_probe;
  int total = 0;
  while (join->Next(&row)) {
    matches_per_probe[row[0]]++;
    ++total;
  }
  EXPECT_EQ(total, 18);  // every probe row matches 2 build rows
  for (const auto& [probe_id, count] : matches_per_probe)
    EXPECT_EQ(count, 2) << probe_id;
}

TEST(VolcanoJoinTest, NoMatches) {
  auto build = std::make_unique<ScanOp>(3);
  build->AddAccessor([](size_t i) { return static_cast<int64_t>(i + 100); });
  auto join = std::make_unique<HashJoinOp>(
      std::move(build), CountingScan(10), 0, 0, std::vector<size_t>{});
  join->Open();
  Row row;
  EXPECT_FALSE(join->Next(&row));
}

TEST(VolcanoGroupByTest, SumsAndCounts) {
  auto scan = std::make_unique<ScanOp>(100);
  scan->AddAccessor([](size_t i) { return static_cast<int64_t>(i % 4); });
  scan->AddAccessor([](size_t i) { return static_cast<int64_t>(i); });
  auto group = std::make_unique<GroupByOp>(std::move(scan),
                                           std::vector<size_t>{0});
  group->AddAggOp(GroupByOp::AggOp::kSum, 1);
  group->AddAggOp(GroupByOp::AggOp::kCount);
  group->Open();
  Row row;
  std::map<int64_t, std::pair<int64_t, int64_t>> got;
  while (group->Next(&row)) got[row[0]] = {row[1], row[2]};
  ASSERT_EQ(got.size(), 4u);
  for (int64_t k = 0; k < 4; ++k) {
    int64_t sum = 0, count = 0;
    for (int64_t i = k; i < 100; i += 4) {
      sum += i;
      ++count;
    }
    EXPECT_EQ(got[k].first, sum);
    EXPECT_EQ(got[k].second, count);
  }
}

TEST(VolcanoGroupByTest, EmptyInput) {
  auto group = std::make_unique<GroupByOp>(CountingScan(0),
                                           std::vector<size_t>{0});
  group->AddAggOp(GroupByOp::AggOp::kCount);
  group->Open();
  Row row;
  EXPECT_FALSE(group->Next(&row));
}

}  // namespace
}  // namespace vcq::volcano
