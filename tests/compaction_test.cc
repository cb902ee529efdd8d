#include "tectorwise/compaction.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/relation.h"
#include "tectorwise/operators.h"
#include "tectorwise/primitives.h"
#include "tectorwise/primitives_simd.h"
#include "tectorwise/steps.h"

// Batch compaction: scalar <-> AVX-512 compress-store parity, the constant
// density threshold (1/64) at the Select compaction point, and end-to-end
// byte identity of every compacting Tectorwise run with Typer on the full
// TPC-H / SSB workload.

namespace vcq::tectorwise {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::Relation;

// ---------------------------------------------------------------------------
// Primitive parity: CompactI32/I64 == CompactCopy on random selections
// ---------------------------------------------------------------------------

std::vector<pos_t> RandomSel(size_t n, double density, uint32_t seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution pick(density);
  std::vector<pos_t> sel;
  for (size_t p = 0; p < n; ++p)
    if (pick(rng)) sel.push_back(static_cast<pos_t>(p));
  return sel;
}

class CompactParity : public ::testing::TestWithParam<double> {};

TEST_P(CompactParity, I32MatchesScalar) {
  const double density = GetParam();
  std::mt19937 rng(7);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                         size_t{17}, size_t{1000}, size_t{4096}}) {
    std::vector<int32_t> col(n);
    for (auto& x : col) x = static_cast<int32_t>(rng());
    const auto sel = RandomSel(n, density, 11 + static_cast<uint32_t>(n));
    std::vector<int32_t> scalar(sel.size() + 1, -1), vec(sel.size() + 1, -1);
    CompactCopy<int32_t>(sel.size(), sel.data(), col.data(), scalar.data());
    simd::CompactI32(sel.size(), sel.data(), col.data(), vec.data());
    for (size_t i = 0; i < sel.size(); ++i) ASSERT_EQ(scalar[i], vec[i]) << i;
  }
}

TEST_P(CompactParity, I64MatchesScalar) {
  const double density = GetParam();
  std::mt19937_64 rng(9);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{1000}, size_t{4096}}) {
    std::vector<int64_t> col(n);
    for (auto& x : col) x = static_cast<int64_t>(rng());
    const auto sel = RandomSel(n, density, 13 + static_cast<uint32_t>(n));
    std::vector<int64_t> scalar(sel.size() + 1, -1), vec(sel.size() + 1, -1);
    CompactCopy<int64_t>(sel.size(), sel.data(), col.data(), scalar.data());
    simd::CompactI64(sel.size(), sel.data(), col.data(), vec.data());
    for (size_t i = 0; i < sel.size(); ++i) ASSERT_EQ(scalar[i], vec[i]) << i;
  }
}

TEST_P(CompactParity, NullSelIsContiguousCopy) {
  const size_t n = 100;
  std::vector<int32_t> col32(n);
  std::vector<int64_t> col64(n);
  for (size_t i = 0; i < n; ++i) {
    col32[i] = static_cast<int32_t>(i);
    col64[i] = static_cast<int64_t>(i) * 3;
  }
  std::vector<int32_t> out32(n);
  std::vector<int64_t> out64(n);
  simd::CompactI32(n, nullptr, col32.data(), out32.data());
  simd::CompactI64(n, nullptr, col64.data(), out64.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out32[i], col32[i]);
    ASSERT_EQ(out64[i], col64[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, CompactParity,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 0.9, 1.0));

TEST(CompactBytesTest, OddWidthRows) {
  constexpr size_t kWidth = 5;
  const size_t n = 64;
  std::vector<std::byte> col(n * kWidth);
  for (size_t i = 0; i < col.size(); ++i) col[i] = std::byte(i & 0xff);
  const std::vector<pos_t> sel = {0, 3, 7, 63};
  std::vector<std::byte> out(sel.size() * kWidth);
  CompactBytes(sel.size(), sel.data(), col.data(), kWidth, out.data());
  for (size_t k = 0; k < sel.size(); ++k) {
    for (size_t b = 0; b < kWidth; ++b)
      ASSERT_EQ(out[k * kWidth + b], col[sel[k] * kWidth + b]);
  }
}

// ---------------------------------------------------------------------------
// Select compaction point: the density threshold
// ---------------------------------------------------------------------------

// Relation where value a[i] = i % period, so a < cutoff passes exactly
// `cutoff` tuples per `period` and survivors are predictable per batch.
Relation MakePeriodic(size_t n, int32_t period) {
  Relation rel;
  auto a = rel.AddColumn<int32_t>("a", n);
  auto b = rel.AddColumn<int64_t>("b", n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(i % static_cast<size_t>(period));
    b[i] = static_cast<int64_t>(i);
  }
  return rel;
}

struct DrainResult {
  std::vector<int64_t> values;  // b-column values in emission order
  size_t batches = 0;
  size_t dense_batches = 0;  // emitted without a selection vector
  size_t max_count = 0;
};

DrainResult DrainSelect(const Relation& rel, const ExecContext& ctx,
                        int32_t cutoff) {
  Scan::Shared shared(rel.tuple_count(), 1u << 30 /* one morsel */);
  auto scan = std::make_unique<Scan>(&shared, &rel, ctx.vector_size);
  Slot* a = scan->AddColumn<int32_t>("a");
  Slot* b = scan->AddColumn<int64_t>("b");
  auto select = std::make_unique<Select>(std::move(scan), ctx);
  select->AddStep(MakeSelCmp<int32_t>(ctx, a, CmpOp::kLess, cutoff));
  CompactColumn<int64_t>(ctx, select->compactor(), b);

  DrainResult r;
  size_t n;
  while ((n = select->Next()) != kEndOfStream) {
    const pos_t* sel = select->sel();
    const int64_t* col = Get<int64_t>(b);
    ++r.batches;
    r.dense_batches += (sel == nullptr) ? 1 : 0;
    r.max_count = std::max(r.max_count, n);
    for (size_t k = 0; k < n; ++k)
      r.values.push_back(col[sel ? sel[k] : static_cast<pos_t>(k)]);
  }
  return r;
}

std::vector<int64_t> ReferenceValues(size_t n, int32_t period,
                                     int32_t cutoff) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int32_t>(i % static_cast<size_t>(period)) < cutoff)
      out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

ExecContext Ctx(size_t vector_size = 1024) {
  ExecContext ctx;
  ctx.vector_size = vector_size;
  return ctx;
}

TEST(SelectCompactionTest, SparseBatchesAreMergedDense) {
  // ~0.8% density: 8 survivors per 1024-tuple batch; 128 batches fold into
  // one full dense vector.
  const Relation rel = MakePeriodic(128 * 1024, 128);
  const DrainResult r = DrainSelect(rel, Ctx(), 1);
  EXPECT_EQ(r.values, ReferenceValues(128 * 1024, 128, 1));
  EXPECT_EQ(r.dense_batches, r.batches);
  EXPECT_EQ(r.batches, 1u);  // 1024 survivors == exactly one full vector
  EXPECT_EQ(r.max_count, 1024u);
}

TEST(SelectCompactionTest, SingleSurvivorCompacts) {
  // One survivor in the whole input: the remainder flush at end-of-stream
  // must emit it as a dense one-tuple batch.
  Relation rel;
  auto a = rel.AddColumn<int32_t>("a", 5000);
  auto b = rel.AddColumn<int64_t>("b", 5000);
  for (size_t i = 0; i < 5000; ++i) {
    a[i] = (i == 3333) ? 0 : 1;
    b[i] = static_cast<int64_t>(i);
  }
  const DrainResult r = DrainSelect(rel, Ctx(), 1);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], 3333);
  EXPECT_EQ(r.dense_batches, 1u);
}

TEST(SelectCompactionTest, EmptyResultYieldsEndOfStream) {
  const Relation rel = MakePeriodic(4096, 64);
  const DrainResult r = DrainSelect(rel, Ctx(), 0);  // nothing passes
  EXPECT_TRUE(r.values.empty());
  EXPECT_EQ(r.batches, 0u);
}

TEST(SelectCompactionTest, DenseBatchesPassThroughUntouched) {
  // Everything passes: density 1.0 is far above the threshold, so batches
  // are left alone (selection vector still present, no merged vectors).
  const Relation rel = MakePeriodic(8192, 64);
  const DrainResult r = DrainSelect(rel, Ctx(), 64);
  EXPECT_EQ(r.values, ReferenceValues(8192, 64, 64));
  EXPECT_EQ(r.dense_batches, 0u);
  EXPECT_EQ(r.batches, 8u);
}

TEST(SelectCompactionTest, ThresholdBoundaryIsStrict) {
  // 1/64 at vector_size 1024 puts the boundary at 16 survivors: 16 per
  // batch (density == 1/64) passes through, 15 compacts.
  const Relation rel = MakePeriodic(8192, 1024);
  {
    const DrainResult r = DrainSelect(rel, Ctx(), 16);
    EXPECT_EQ(r.values, ReferenceValues(8192, 1024, 16));
    EXPECT_EQ(r.dense_batches, 0u);
    EXPECT_EQ(r.batches, 8u);
  }
  {
    // 15 survivors per batch: below the threshold, all batches compact
    // (8 * 15 = 120 rows, flushed as one dense batch at end-of-stream).
    const DrainResult r = DrainSelect(rel, Ctx(), 15);
    EXPECT_EQ(r.values, ReferenceValues(8192, 1024, 15));
    EXPECT_EQ(r.dense_batches, r.batches);
    EXPECT_EQ(r.batches, 1u);
  }
}

TEST(SelectCompactionTest, OddVectorSizeFlushesPartialVectors) {
  // At most 2 survivors per 255-tuple batch, always below 255 / 64: every
  // batch compacts, full vectors are emitted mid-stream and the remainder
  // at end-of-stream.
  const Relation rel = MakePeriodic(100003, 128);
  const DrainResult r = DrainSelect(rel, Ctx(255), 1);
  EXPECT_EQ(r.values, ReferenceValues(100003, 128, 1));
  EXPECT_EQ(r.dense_batches, r.batches);
  EXPECT_EQ(r.max_count, 255u);
  EXPECT_EQ(r.batches, (r.values.size() + 254) / 255);
}

// ---------------------------------------------------------------------------
// End-to-end: every compacting Tectorwise run matches Typer byte for byte
// ---------------------------------------------------------------------------

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.03));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.05));
  return *db;
}

QueryResult RunTectorwise(const Database& db, Query query, size_t threads,
                          size_t vector_size, bool simd) {
  QueryOptions opt;
  opt.threads = threads;
  opt.vector_size = vector_size;
  opt.simd = simd;
  return RunQuery(db, Engine::kTectorwise, query, opt);
}

QueryResult RunTyper(const Database& db, Query query) {
  QueryOptions opt;
  opt.threads = 1;
  return RunQuery(db, Engine::kTyper, query, opt);
}

TEST(CompactionEquivalenceTest, Q3AcrossVectorSizesMatchesTyper) {
  const QueryResult expected = RunTyper(TpchDb(), Query::kQ3);
  ASSERT_TRUE(expected.ok());
  for (const size_t vector_size : {size_t{64}, size_t{1024}, size_t{4096}}) {
    for (const bool simd : {false, true}) {
      const QueryResult got =
          RunTectorwise(TpchDb(), Query::kQ3, 2, vector_size, simd);
      EXPECT_EQ(expected.ToString(), got.ToString())
          << "vector_size=" << vector_size << " simd=" << simd;
    }
  }
}

TEST(CompactionEquivalenceTest, AllQueriesMatchTyper) {
  auto check = [](const Database& db, Query query) {
    const QueryResult expected = RunTyper(db, query);
    ASSERT_TRUE(expected.ok()) << QueryName(query);
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      for (const size_t vector_size : {size_t{64}, size_t{1024}}) {
        const QueryResult got =
            RunTectorwise(db, query, threads, vector_size, false);
        EXPECT_EQ(expected.ToString(), got.ToString())
            << QueryName(query) << " threads=" << threads
            << " vector_size=" << vector_size;
      }
    }
  };
  for (const Query query : TpchQueries()) check(TpchDb(), query);
  for (const Query query : SsbQueries()) check(SsbDb(), query);
}

}  // namespace
}  // namespace vcq::tectorwise
