#include <gtest/gtest.h>

#include "api/vcq.h"
#include "datagen/ssb.h"
#include "runtime/types.h"

// SSB: Typer, Tectorwise, and Volcano (which runs the optimizer-lowered
// reference SQL) are independent implementations and must agree; Q1.1 is
// additionally checked against a plain reference scan.

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::ResultBuilder;

const Database& TestDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.05));
  return *db;
}

QueryResult ReferenceQ11(const Database& db) {
  const auto& lo = db["lineorder"];
  const auto& date = db["date"];
  const auto d_datekey = date.Col<int32_t>("d_datekey");
  const auto d_year = date.Col<int32_t>("d_year");
  std::unordered_map<int32_t, int32_t> year_of;
  for (size_t i = 0; i < date.tuple_count(); ++i)
    year_of[d_datekey[i]] = d_year[i];
  const auto orderdate = lo.Col<int32_t>("lo_orderdate");
  const auto discount = lo.Col<int64_t>("lo_discount");
  const auto quantity = lo.Col<int64_t>("lo_quantity");
  const auto extprice = lo.Col<int64_t>("lo_extendedprice");
  int64_t total = 0;
  for (size_t i = 0; i < lo.tuple_count(); ++i) {
    if (discount[i] < 1 || discount[i] > 3 || quantity[i] >= 25) continue;
    const auto it = year_of.find(orderdate[i]);
    if (it == year_of.end() || it->second != 1993) continue;
    total += extprice[i] * discount[i];
  }
  ResultBuilder rb({"revenue"});
  rb.BeginRow().Numeric(total, 4);
  return rb.Finish();
}

struct SsbConfig {
  Engine engine;
  size_t threads;
  size_t vector_size;
  bool simd;
};

class SsbCrossEngineTest
    : public ::testing::TestWithParam<std::tuple<Query, SsbConfig>> {};

TEST_P(SsbCrossEngineTest, MatchesTyperSingleThread) {
  const auto [query, config] = GetParam();
  QueryOptions base;
  base.threads = 1;
  const QueryResult expected = RunQuery(TestDb(), Engine::kTyper, query, base);

  QueryOptions opt;
  opt.threads = config.threads;
  opt.vector_size = config.vector_size;
  opt.simd = config.simd;
  const QueryResult got = RunQuery(TestDb(), config.engine, query, opt);
  EXPECT_EQ(got, expected) << EngineName(config.engine) << " on "
                           << QueryName(query) << "\nexpected:\n"
                           << expected.ToString(12) << "\ngot:\n"
                           << got.ToString(12);
  if (config.engine == Engine::kTectorwise) {
    const QueryResult typer_mt =
        RunQuery(TestDb(), Engine::kTyper, query, opt);
    EXPECT_EQ(typer_mt, expected) << QueryName(query) << " typer multithread";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSsb, SsbCrossEngineTest,
    ::testing::Combine(::testing::Values(Query::kSsbQ11, Query::kSsbQ21,
                                         Query::kSsbQ31, Query::kSsbQ41),
                       ::testing::Values(
                           SsbConfig{Engine::kTectorwise, 1, 1024, false},
                           SsbConfig{Engine::kTectorwise, 1, 1024, true},
                           SsbConfig{Engine::kTectorwise, 4, 257, false},
                           SsbConfig{Engine::kTectorwise, 6, 1024, true},
                           SsbConfig{Engine::kVolcano, 1, 1024, false})),
    [](const auto& info) {
      std::string name = QueryName(std::get<0>(info.param));
      for (char& c : name)
        if (c == '-' || c == '.') c = '_';
      const SsbConfig& c = std::get<1>(info.param);
      return name + "_" + EngineName(c.engine) + "_t" +
             std::to_string(c.threads) + "_v" + std::to_string(c.vector_size) +
             (c.simd ? "_simd" : "");
    });

TEST(SsbReferenceTest, Q11AllEngines) {
  const QueryResult expected = ReferenceQ11(TestDb());
  for (Engine e : {Engine::kTyper, Engine::kTectorwise, Engine::kVolcano}) {
    EXPECT_EQ(RunQuery(TestDb(), e, Query::kSsbQ11, {}), expected)
        << EngineName(e);
  }
}

TEST(SsbShapeTest, Q21GroupsByYearAndBrand) {
  const QueryResult r =
      RunQuery(TestDb(), Engine::kTyper, Query::kSsbQ21, {});
  EXPECT_GT(r.rows.size(), 0u);
  // 7 years x 40 brands upper bound.
  EXPECT_LE(r.rows.size(), 280u);
}

TEST(SsbShapeTest, Q31NationPairsWithinAsia) {
  const QueryResult r =
      RunQuery(TestDb(), Engine::kTyper, Query::kSsbQ31, {});
  // 5 Asian nations squared x 6 years upper bound.
  EXPECT_LE(r.rows.size(), 5u * 5u * 6u);
  EXPECT_GT(r.rows.size(), 0u);
}

}  // namespace
}  // namespace vcq
