#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_catalog.h"
#include "api/session.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/catalog.h"
#include "sql/fuzz.h"
#include "sql/reference_queries.h"
#include "sql/sql.h"

// The SQL front door's strongest guarantee: for every query of the studied
// workload, the hand-written SQL text (sql/reference_queries.h) prepared
// through Session::PrepareSql on the Volcano interpreter yields
// BYTE-IDENTICAL results to the catalog's hand-built Tectorwise plan and to
// the same text on Tectorwise at threads {1, 8} x vector sizes {64, 1024},
// under the spec-default parameter bindings. On top
// of that, a seeded random-query sweep (sql/fuzz.h) differentially tests
// the two lowerings against each other far outside the nine fixed shapes.
// The sweep's Volcano side runs an independently planned query — join
// ordering and eager aggregation off — so a wrong optimizer rewrite
// cannot agree with itself.

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.01));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.02));
  return *db;
}

const Database& DbFor(Workload w) {
  return w == Workload::kTpch ? TpchDb() : SsbDb();
}

/// Binds the catalog's spec defaults onto a SQL-prepared query (which has
/// no defaults of its own — the texts reuse the catalog's $names).
void BindDefaults(PreparedQuery& q, const QueryInfo& info) {
  for (const ParamSpec& spec : info.params) {
    if (spec.type == runtime::ParamType::kInt) {
      q.Set(spec.name, spec.default_int);
    } else {
      q.Set(spec.name, spec.default_string);
    }
  }
}

class SqlWorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SqlWorkloadTest, SqlMatchesCatalogPlanOnAllEngines) {
  const char* name = GetParam();
  const QueryInfo* info = FindQuery(name);
  ASSERT_NE(info, nullptr) << name;
  const char* text = sql::SqlTextFor(name);
  ASSERT_NE(text, nullptr) << name;

  Session session(DbFor(info->workload));
  // The ground truth: the SQL text on the Volcano interpreter, with the
  // catalog's spec-default bindings.
  PreparedQuery v = session.PrepareSql(text, Engine::kVolcano);
  BindDefaults(v, *info);
  const QueryResult reference = v.Execute();
  ASSERT_TRUE(reference.ok()) << name;
  ASSERT_FALSE(reference.rows.empty()) << name << ": empty reference";
  EXPECT_EQ(session.Prepare(Engine::kTectorwise, info->query).Execute(),
            reference)
      << name << " (catalog plan)";

  for (const size_t threads : {size_t{1}, size_t{8}}) {
    for (const size_t vector_size : {size_t{64}, size_t{1024}}) {
      QueryOptions opt;
      opt.threads = threads;
      opt.vector_size = vector_size;
      PreparedQuery q = session.PrepareSql(text, Engine::kTectorwise, opt);
      BindDefaults(q, *info);
      EXPECT_EQ(q.Execute(), reference)
          << name << " (tectorwise, " << threads << " threads, vector "
          << vector_size << ")\n"
          << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNine, SqlWorkloadTest,
                         ::testing::Values("Q1", "Q6", "Q3", "Q9", "Q18",
                                           "SSB-Q1.1", "SSB-Q2.1",
                                           "SSB-Q3.1", "SSB-Q4.1"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-' || c == '.') c = '_';
                           return n;
                         });

/// max(est/actual, actual/est), both floored at one row.
double QError(double est, double actual) {
  est = std::max(est, 1.0);
  actual = std::max(actual, 1.0);
  return std::max(est / actual, actual / est);
}

/// Join nodes in the order VolcanoStats::joins reports them.
void PostOrderJoins(const sql::JoinTree& t,
                    std::vector<const sql::JoinTree*>* out) {
  if (t.IsLeaf()) return;
  PostOrderJoins(*t.build, out);
  PostOrderJoins(*t.probe, out);
  out->push_back(&t);
}

// The optimizer's estimate of every join's output against the rows the
// interpreter measured on the same plan. Q9 and Q18 are where the
// composite-key and unique-key rules matter (Q9 joins partsupp on
// (partkey, suppkey), Q18 joins onto unique keys): every join within 2×.
// Every other join within 64× — their errors come from the fixed guesses
// for $parameter filters (SSB Q3.1 is the worst, ~42×).
//
// Q18's joins sit above HAVING SUM(l_quantity) > $quantity_min, which
// keeps ~0.01% of the orders; no statistic can see a parameter's value,
// so its selectivity is the fixed 0.3 guess. Those joins are checked per
// row of their input instead (est / pre-aggregated rows against measured
// / measured), and the pre-aggregation's group count against its
// measured one.
void CheckJoinEstimates(const char* name) {
  const QueryInfo* info = FindQuery(name);
  ASSERT_NE(info, nullptr);
  const std::string_view n = name;
  sql::CompileResult c =
      sql::Compile(sql::MakeCatalog(DbFor(info->workload)),
                   sql::SqlTextFor(name));
  ASSERT_TRUE(c.ok());
  std::vector<const sql::JoinTree*> joins;
  PostOrderJoins(*c.query->plan().root, &joins);
  ASSERT_FALSE(joins.empty()) << name;

  QueryOptions opt;
  opt.threads = 1;
  sql::VolcanoStats stats;
  ASSERT_TRUE(
      c.query->RunVolcano(opt, DefaultParams(info->query), &stats).ok());
  ASSERT_EQ(stats.joins.size(), joins.size());

  const bool keyed = n == "Q9" || n == "Q18";
  const double bound_q = keyed ? 2.0 : 64.0;
  const sql::JoinTree* pre = nullptr;
  for (const sql::JoinTree* j : joins)
    for (const sql::JoinTree* side : {j->build.get(), j->probe.get()})
      if (side->PreAggregated()) pre = side;
  const bool per_input =
      pre != nullptr && !c.query->plan().query.having.empty();
  if (per_input) {
    EXPECT_LE(QError(pre->est_groups, stats.pre_agg_groups), bound_q)
        << name << " pre-aggregated groups: est " << pre->est_groups
        << " measured " << stats.pre_agg_groups;
  }
  for (size_t i = 0; i < joins.size(); ++i) {
    const double measured = static_cast<double>(stats.joins[i].tuples);
    const double q =
        per_input
            ? QError(joins[i]->est_rows / pre->est_rows,
                     measured / std::max<double>(1, stats.pre_agg_rows))
            : QError(joins[i]->est_rows, measured);
    EXPECT_LE(q, bound_q) << name << " join " << stats.joins[i].label
                          << ": est " << joins[i]->est_rows << " measured "
                          << measured << "\n"
                          << c.query->ExplainOptimized();
  }
}

TEST(SqlEstimateTest, JoinEstimatesTrackMeasuredRows) {
  for (const char* name : {"Q3", "Q9", "Q18", "SSB-Q1.1", "SSB-Q2.1",
                           "SSB-Q3.1", "SSB-Q4.1"})
    CheckJoinEstimates(name);
}

/// Seeds come from a fixed base so failures reproduce; override the sweep
/// size with VCQ_SQL_FUZZ_N (the CI smoke uses the sql_fuzz example
/// instead, which exposes --seed/--n).
size_t FuzzCount(size_t fallback) {
  const char* env = std::getenv("VCQ_SQL_FUZZ_N");
  if (env == nullptr) return fallback;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

void FuzzSweep(const Database& db, uint64_t seed_base, size_t count) {
  auto catalog = sql::MakeCatalog(db);
  sql::OptimizerOptions unordered;
  unordered.join_order = false;
  size_t compiled = 0;
  for (uint64_t seed = seed_base; seed < seed_base + count; ++seed) {
    const std::string text = sql::GenerateFuzzQuery(*catalog, seed);
    sql::CompileResult c = sql::Compile(catalog, text);
    ASSERT_TRUE(c.ok()) << "seed " << seed << " failed to compile:\n"
                        << text << "\n"
                        << (c.error ? c.error->Format() : "");
    sql::CompileResult oracle = sql::Compile(catalog, text, unordered);
    ASSERT_TRUE(oracle.ok()) << "seed " << seed;
    ++compiled;
    QueryOptions opt;
    opt.threads = (seed % 2 == 0) ? 1 : 4;
    const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
    QueryOptions vopt;
    vopt.threads = 1;
    const QueryResult volcano = oracle.query->RunVolcano(vopt, {});
    ASSERT_EQ(tw, volcano) << "seed " << seed << " diverged:\n" << text;
  }
  // Every seed must yield a usable query — the generator has no reject
  // path, so a drop here means it left the supported subset.
  EXPECT_EQ(compiled, count);
}

TEST(SqlFuzzDifferentialTest, TpchSeededSweep) {
  FuzzSweep(TpchDb(), /*seed_base=*/1000, FuzzCount(200));
}

TEST(SqlFuzzDifferentialTest, SsbSeededSweep) {
  FuzzSweep(SsbDb(), /*seed_base=*/5000, FuzzCount(200) / 2);
}

}  // namespace
}  // namespace vcq
