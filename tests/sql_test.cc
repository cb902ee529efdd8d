#include "sql/sql.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"
#include "datagen/tpch.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/catalog.h"
#include "sql/fuzz.h"
#include "sql/reference_queries.h"
#include "sql/sql.h"

// The SQL front door's own contract (the cross-engine byte-identity of the
// nine workload queries lives in sql_differential_test.cc):
//  - malformed SQL fails at COMPILE time with a 1-based line:column
//    position, and Session::PrepareSql turns that into a loud prepare-time
//    death — an Execute can never see a compile error;
//  - the binder's semantic guards (unknown names, type mixing, unsupported
//    shapes) all carry positions;
//  - compiled feature queries (expressions, BETWEEN/IN/LIKE, EXTRACT,
//    GROUP BY/HAVING, AVG, parameters) agree byte-for-byte between the
//    Tectorwise lowering and the Volcano interpreter;
//  - the optimizer's pushdown + join ordering strictly reduce plan cost on
//    join queries with an adversarial FROM order;
//  - the catalog's unique-key flags are verified facts, and eager
//    aggregation fires only across joins onto them, with results
//    byte-identical to Volcano running the un-rewritten plan;
//  - EXPLAIN exposes all four stages, and the optimized stage shows the
//    hand plans' shapes for Q18 (pre-aggregated lineitem) and Q3 (lazy).

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

std::shared_ptr<const sql::Catalog> TpchCatalog() {
  static const std::shared_ptr<const sql::Catalog>* cat =
      new std::shared_ptr<const sql::Catalog>(sql::MakeCatalog(TpchDb()));
  return *cat;
}

sql::CompileResult CompileTpch(std::string_view text,
                               const sql::OptimizerOptions& opt = {}) {
  return sql::Compile(TpchCatalog(), text, opt);
}

/// Compiles `text` and runs it on both backends, asserting byte identity;
/// returns the Tectorwise result for further checks.
QueryResult BothEngines(std::string_view text, const QueryParams& params = {},
                        size_t threads = 1) {
  sql::CompileResult c = CompileTpch(text);
  EXPECT_TRUE(c.ok()) << (c.error ? c.error->Format() : "") << "\n" << text;
  if (!c.ok()) return QueryResult::Failed(runtime::ExecStatus::kInternalError);
  QueryOptions opt;
  opt.threads = threads;
  const QueryResult tw = c.query->LowerTectorwise().Run(opt, params);
  QueryOptions vopt;
  vopt.threads = 1;
  const QueryResult volcano = c.query->RunVolcano(vopt, params);
  EXPECT_EQ(tw, volcano) << text << "\n-- tectorwise --\n"
                         << tw.ToString(10) << "-- volcano --\n"
                         << volcano.ToString(10);
  return tw;
}

// ---------------------------------------------------------------------------
// Compile errors: positioned, at compile time only
// ---------------------------------------------------------------------------

struct ErrorCase {
  const char* sql;
  const char* message_part;  // substring of the diagnostic
};

TEST(SqlCompileErrorTest, PositionedDiagnostics) {
  const ErrorCase cases[] = {
      {"SELEC n_name FROM nation", "expected select"},
      {"SELECT n_name FROM no_such_table", "unknown table"},
      {"SELECT no_such_col FROM nation", "unknown column"},
      {"SELECT n_name FROM nation WHERE n_name < 3", "string"},
      {"SELECT n_name FROM nation WHERE n_nationkey = 'x'", "cannot compare"},
      {"SELECT n_name FROM nation, region", "not connected"},
      {"SELECT n_name FROM nation, nation", "duplicate table"},
      {"SELECT SUM(n_nationkey) FROM nation HAVING SUM(n_nationkey) > 1",
       "HAVING requires GROUP BY"},
      {"SELECT n_name FROM nation ORDER BY n_regionkey",
       "not in the select list"},
      {"SELECT n_name, COUNT(*) FROM nation", "requires GROUP BY"},
      {"SELECT n_name FROM nation WHERE n_regionkey IN (1, 2, 3)",
       "more than two"},
      {"SELECT n_name FROM nation WHERE n_regionkey IN (1, $p)",
       "all constants or all parameters"},
      {"SELECT n_name FROM nation WHERE n_name = "
       "'an impossibly long literal that cannot fit a char(25) column'",
       "wider than column"},
      {"SELECT n_regionkey FROM nation GROUP BY n_regionkey, n_regionkey",
       "duplicate group key"},
      {"SELECT SUM(1) FROM nation", "must reference a table column"},
      {"SELECT AVG(n_name) FROM nation", "numeric argument"},
      {"SELECT n_name FROM nation WHERE n_name LIKE 'a_b'", "LIKE"},
      {"SELECT n_name FROM nation LIMIT", "LIMIT"},
  };
  for (const ErrorCase& c : cases) {
    sql::CompileResult r = CompileTpch(c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_NE(r.error->message.find(c.message_part), std::string::npos)
        << c.sql << " -> " << r.error->Format();
    EXPECT_GE(r.error->line, 1u) << c.sql;
    EXPECT_GE(r.error->col, 1u) << c.sql;
  }
}

TEST(SqlCompileErrorTest, PositionPointsAtOffendingToken) {
  // Line 2, the unknown column after the two leading spaces.
  sql::CompileResult r = CompileTpch("SELECT n_name FROM nation\nWHERE  nope = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 2u);
  EXPECT_EQ(r.error->col, 8u);
  EXPECT_NE(r.error->Format().find("2:8"), std::string::npos);
}

TEST(SqlSessionDeathTest, PrepareSqlDiesOnMalformedSql) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Session session(TpchDb());
  EXPECT_DEATH(session.PrepareSql("SELECT FROM nowhere"), "SQL error at");
  EXPECT_DEATH(session.PrepareSql("SELECT COUNT(*) FROM nation",
                                  Engine::kTyper),
               "Typer");
  EXPECT_DEATH(session.ExplainSql("SELECT nope FROM nation"), "SQL error at");
}

TEST(SqlSessionDeathTest, SqlHandleGuards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Session session(TpchDb());
  PreparedQuery q = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k");
  EXPECT_DEATH(q.query(), "no catalog Query id");
  EXPECT_DEATH(q.Set("unknown", int64_t{1}), "unknown parameter");
  EXPECT_DEATH(q.Set("k", "not an int"), "integer");
}

// ---------------------------------------------------------------------------
// Correctness on small relations (hand-computable references)
// ---------------------------------------------------------------------------

TEST(SqlCorrectnessTest, CountAndSumAgainstStorage) {
  const auto& nation = TpchDb()["nation"];
  const auto keys = nation.Col<int32_t>("n_nationkey");
  int64_t sum = 0;
  for (size_t i = 0; i < nation.tuple_count(); ++i) sum += keys[i];
  const QueryResult r = BothEngines(
      "SELECT COUNT(*) AS n, SUM(n_nationkey) AS s FROM nation");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], std::to_string(nation.tuple_count()));
  EXPECT_EQ(r.rows[0][1], std::to_string(sum));
}

TEST(SqlCorrectnessTest, GroupByWithOrderAndLimit) {
  const QueryResult r = BothEngines(
      "SELECT n_regionkey, COUNT(*) AS members FROM nation "
      "GROUP BY n_regionkey ORDER BY n_regionkey LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0], "0");
  EXPECT_EQ(r.rows[1][0], "1");
  EXPECT_EQ(r.rows[2][0], "2");
  ASSERT_EQ(r.column_names,
            (std::vector<std::string>{"n_regionkey", "members"}));
}

TEST(SqlCorrectnessTest, JoinProjection) {
  // Every nation paired with its region name; row count must equal the
  // nation table's cardinality.
  const QueryResult r = BothEngines(
      "SELECT n_name, r_name FROM nation, region "
      "WHERE n_regionkey = r_regionkey");
  EXPECT_EQ(r.rows.size(), TpchDb()["nation"].tuple_count());
}

// ---------------------------------------------------------------------------
// Feature queries: Tectorwise == Volcano (1 and 4 threads)
// ---------------------------------------------------------------------------

TEST(SqlDifferentialFeatureTest, FeatureQueriesAgreeAcrossEngines) {
  const char* queries[] = {
      // Expressions + multi-aggregate + AVG.
      "SELECT l_returnflag, SUM(l_extendedprice * (1.00 - l_discount)) AS v,"
      " AVG(l_quantity) AS aq, MIN(l_discount) AS lo, MAX(l_tax) AS hi,"
      " COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"
      " ORDER BY l_returnflag",
      // BETWEEN + date comparison + ungrouped aggregates.
      "SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n FROM lineitem"
      " WHERE l_discount BETWEEN 0.04 AND 0.06"
      " AND l_shipdate < DATE '1996-01-01'",
      // LIKE prefix (range rewrite) and substring (Contains).
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE 'a%'",
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE '%green%'",
      // IN on strings, OR-pair on numerics.
      "SELECT COUNT(*) AS n FROM nation WHERE n_name IN ('FRANCE','KENYA')",
      "SELECT COUNT(*) AS n FROM nation"
      " WHERE n_regionkey = 1 OR n_regionkey = 3",
      // EXTRACT(YEAR) as group key and output.
      "SELECT EXTRACT(YEAR FROM o_orderdate) AS y, COUNT(*) AS n"
      " FROM orders GROUP BY EXTRACT(YEAR FROM o_orderdate) ORDER BY y",
      // HAVING above a join.
      "SELECT o_orderkey, SUM(l_quantity) AS q FROM orders, lineitem"
      " WHERE o_orderkey = l_orderkey GROUP BY o_orderkey"
      " HAVING SUM(l_quantity) > 200.00 ORDER BY q DESC, o_orderkey LIMIT 5",
      // MIN/MAX over dates.
      "SELECT MIN(l_shipdate) AS lo, MAX(l_shipdate) AS hi FROM lineitem",
      // Arithmetic between columns of different scales.
      "SELECT SUM(l_extendedprice - l_quantity) AS d FROM lineitem"
      " WHERE l_linenumber = 1",
  };
  for (const char* q : queries) {
    BothEngines(q, {}, 1);
    BothEngines(q, {}, 4);
  }
}

TEST(SqlParamTest, ParametersMatchInlinedLiterals) {
  const char* with_params =
      "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem"
      " WHERE l_shipdate >= $lo AND l_shipdate < $hi"
      " AND l_discount BETWEEN $dlo AND $dhi AND l_returnflag = $flag";
  const char* inlined =
      "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem"
      " WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE "
      "'1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07"
      " AND l_returnflag = 'R'";
  QueryParams params;
  params.SetDate("lo", "1994-01-01");
  params.SetDate("hi", "1995-01-01");
  params.SetInt("dlo", 5);
  params.SetInt("dhi", 7);
  params.SetString("flag", "R");
  const QueryResult a = BothEngines(with_params, params);
  const QueryResult b = BothEngines(inlined);
  EXPECT_EQ(a.rows, b.rows);
}

TEST(SqlParamTest, SessionBindingRoundTrip) {
  Session session(TpchDb());
  PreparedQuery q = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k");
  EXPECT_TRUE(q.is_sql());
  EXPECT_EQ(q.info().name, "SQL");
  ASSERT_EQ(q.info().params.size(), 1u);
  EXPECT_EQ(q.info().params[0].name, "k");
  q.Set("k", int64_t{5});
  const QueryResult r5 = q.Execute();
  ASSERT_TRUE(r5.ok());
  ASSERT_EQ(r5.rows.size(), 1u);
  EXPECT_EQ(r5.rows[0][0], "5");
  q.Set("k", int64_t{10});
  EXPECT_EQ(q.Execute().rows[0][0], "10");
  // Volcano engine through the same Session surface, same bindings.
  PreparedQuery v = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k",
      Engine::kVolcano);
  v.Set("k", int64_t{10});
  EXPECT_EQ(v.Execute(), q.Execute());
}

TEST(SqlParamTest, ParameterizedLikeUsesRawSubstring) {
  QueryParams params;
  params.SetString("needle", "green");
  const QueryResult a = BothEngines(
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE $needle", params);
  const QueryResult b =
      BothEngines("SELECT COUNT(*) AS n FROM part WHERE p_name LIKE "
                  "'%green%'");
  EXPECT_EQ(a.rows, b.rows);
}

// ---------------------------------------------------------------------------
// EXPLAIN and optimizer behavior
// ---------------------------------------------------------------------------

TEST(SqlExplainTest, AllFourStagesPresent) {
  Session session(TpchDb());
  const std::string out = session.ExplainSql(
      "SELECT n_name, COUNT(*) AS n FROM nation, region "
      "WHERE n_regionkey = r_regionkey AND r_name = 'ASIA' "
      "GROUP BY n_name");
  EXPECT_NE(out.find("-- ast --"), std::string::npos);
  EXPECT_NE(out.find("-- logical --"), std::string::npos);
  EXPECT_NE(out.find("-- optimized --"), std::string::npos);
  EXPECT_NE(out.find("-- physical (tectorwise) --"), std::string::npos);
}

TEST(SqlOptimizerTest, JoinOrderingAndPushdownReduceCost) {
  // Adversarial FROM order: the fact table first, the selective dimension
  // filter last. The full optimizer must beat the FROM-order baseline.
  const char* q3ish =
      "SELECT o_orderkey, SUM(l_extendedprice) AS v"
      " FROM lineitem, orders, customer"
      " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
      " AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15'"
      " GROUP BY o_orderkey";
  sql::OptimizerOptions off;
  off.pushdown = false;
  off.join_order = false;
  sql::CompileResult baseline = CompileTpch(q3ish, off);
  sql::CompileResult full = CompileTpch(q3ish);
  ASSERT_TRUE(baseline.ok() && full.ok());
  EXPECT_LT(full.query->cost(), baseline.query->cost());

  // The measured interpreter confirms the estimate: fewer tuples flow
  // through the joins under the optimized order.
  QueryOptions opt;
  opt.threads = 1;
  sql::VolcanoStats base_stats;
  sql::VolcanoStats full_stats;
  const QueryResult a = baseline.query->RunVolcano(opt, {}, &base_stats);
  const QueryResult b = full.query->RunVolcano(opt, {}, &full_stats);
  EXPECT_EQ(a, b);  // plans differ, results must not
  EXPECT_LT(full_stats.intermediate_tuples, base_stats.intermediate_tuples);
}

TEST(SqlOptimizerTest, OptimizerConfigsAgreeOnResults) {
  const char* q =
      "SELECT n_name, COUNT(*) AS n FROM nation, supplier"
      " WHERE s_nationkey = n_nationkey AND s_suppkey < 50.00 + 50.00"
      " GROUP BY n_name ORDER BY n_name";
  QueryResult reference;
  bool first = true;
  for (const bool fold : {false, true}) {
    for (const bool pushdown : {false, true}) {
      for (const bool join_order : {false, true}) {
        sql::OptimizerOptions o;
        o.fold_constants = fold;
        o.pushdown = pushdown;
        o.join_order = join_order;
        sql::CompileResult c = CompileTpch(q, o);
        ASSERT_TRUE(c.ok());
        QueryOptions opt;
        opt.threads = 2;
        const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
        const QueryResult volcano = c.query->RunVolcano(opt, {});
        EXPECT_EQ(tw, volcano);
        if (first) {
          reference = tw;
          first = false;
        } else {
          EXPECT_EQ(tw, reference);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Verified unique keys and eager aggregation
// ---------------------------------------------------------------------------

const sql::ColumnDef& CatalogColumn(const sql::Catalog& catalog,
                                    const char* table, const char* column) {
  const sql::TableDef* t = catalog.Find(table);
  EXPECT_NE(t, nullptr) << table;
  const sql::ColumnDef* c = t->Find(column);
  EXPECT_NE(c, nullptr) << column;
  return *c;
}

TEST(SqlCatalogTest, KeyColumnsReadUniqueOnlyWhenVerified) {
  const sql::Catalog& catalog = *TpchCatalog();
  for (const auto& [table, column] :
       {std::pair{"orders", "o_orderkey"}, std::pair{"customer", "c_custkey"},
        std::pair{"part", "p_partkey"}, std::pair{"supplier", "s_suppkey"}}) {
    EXPECT_TRUE(CatalogColumn(catalog, table, column).stats.unique)
        << column;
  }
  for (const auto& [table, column] :
       {std::pair{"lineitem", "l_orderkey"}, std::pair{"orders", "o_custkey"},
        std::pair{"partsupp", "ps_partkey"}}) {
    EXPECT_FALSE(CatalogColumn(catalog, table, column).stats.unique)
        << column;
  }
  // String columns carry no stats at all.
  EXPECT_FALSE(CatalogColumn(catalog, "customer", "c_name").stats.unique);
}

enum class OrderKeys {
  kUnique,          // odd numbers, stored in decreasing order
  kRepeatFar,       // the same, with the largest key overwritten by 1
  kRepeatAdjacent,  // odd numbers in increasing order, the second set to 1
};

/// orders(o_orderkey) ⋈ lineitem(l_orderkey, l_quantity) with four lines
/// per order. The key range is wider than the row count, so the catalog
/// cannot decide by pigeonhole and its order check or bitmap pass runs.
Database SmallOrders(OrderKeys keys) {
  constexpr size_t kOrders = 100;
  Database db;
  auto okey = db.Add("orders").AddColumn<int32_t>("o_orderkey", kOrders);
  for (size_t i = 0; i < kOrders; ++i) {
    const size_t rank =
        keys == OrderKeys::kRepeatAdjacent ? i : kOrders - 1 - i;
    okey[i] = static_cast<int32_t>(2 * rank + 1);
  }
  if (keys == OrderKeys::kRepeatFar) okey[0] = 1;
  if (keys == OrderKeys::kRepeatAdjacent) okey[1] = 1;
  runtime::Relation& lineitem = db.Add("lineitem");
  auto lkey = lineitem.AddColumn<int32_t>("l_orderkey", 4 * kOrders);
  auto qty = lineitem.AddColumn<int64_t>("l_quantity", 4 * kOrders);
  for (size_t i = 0; i < 4 * kOrders; ++i) {
    lkey[i] = static_cast<int32_t>(2 * (i / 4) + 1);
    qty[i] = static_cast<int64_t>(100 * (i % 7 + 1));
  }
  return db;
}

/// Compiles `text` with the full optimizer and with join ordering off
/// (which also disables eager aggregation); Tectorwise at 1 and 4 threads
/// and Volcano on the optimized plan must all equal Volcano on the
/// un-rewritten one. Returns the optimized compile.
std::shared_ptr<const sql::CompiledQuery> AgreesWithUnrewritten(
    std::shared_ptr<const sql::Catalog> catalog, std::string_view text) {
  sql::CompileResult full = sql::Compile(catalog, text);
  EXPECT_TRUE(full.ok()) << (full.error ? full.error->Format() : "") << text;
  sql::OptimizerOptions unordered;
  unordered.join_order = false;
  sql::CompileResult plain = sql::Compile(catalog, text, unordered);
  EXPECT_TRUE(plain.ok());
  if (!full.ok() || !plain.ok()) return nullptr;
  EXPECT_FALSE(plain.query->plan().EagerAggregation());
  QueryOptions one;
  one.threads = 1;
  const QueryResult reference = plain.query->RunVolcano(one, {});
  EXPECT_FALSE(reference.rows.empty()) << text;
  EXPECT_EQ(full.query->RunVolcano(one, {}), reference) << text;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    QueryOptions opt;
    opt.threads = threads;
    EXPECT_EQ(full.query->LowerTectorwise().Run(opt, {}), reference)
        << text << "\n"
        << threads << " threads\n"
        << full.query->ExplainOptimized();
  }
  return full.query;
}

TEST(SqlCatalogTest, DuplicateKeyIsNotUniqueAndBlocksEagerAggregation) {
  const char* q =
      "SELECT o_orderkey, SUM(l_quantity) AS q, COUNT(*) AS n"
      " FROM orders, lineitem WHERE l_orderkey = o_orderkey"
      " GROUP BY o_orderkey ORDER BY o_orderkey";
  const Database clean = SmallOrders(OrderKeys::kUnique);
  const auto clean_catalog = sql::MakeCatalog(clean);
  EXPECT_TRUE(
      CatalogColumn(*clean_catalog, "orders", "o_orderkey").stats.unique);
  const auto eager = AgreesWithUnrewritten(clean_catalog, q);
  ASSERT_NE(eager, nullptr);
  EXPECT_TRUE(eager->plan().EagerAggregation())
      << eager->ExplainOptimized();

  // One repeated key: order 1 now matches its lines twice, which the
  // rewrite would miss — so it must not fire.
  for (const OrderKeys keys :
       {OrderKeys::kRepeatFar, OrderKeys::kRepeatAdjacent}) {
    const Database dup = SmallOrders(keys);
    const auto dup_catalog = sql::MakeCatalog(dup);
    EXPECT_FALSE(
        CatalogColumn(*dup_catalog, "orders", "o_orderkey").stats.unique);
    const auto lazy = AgreesWithUnrewritten(dup_catalog, q);
    ASSERT_NE(lazy, nullptr);
    EXPECT_FALSE(lazy->plan().EagerAggregation())
        << lazy->ExplainOptimized();
  }
}

TEST(SqlEagerAggregationTest, RewrittenShapesMatchUnrewrittenPlan) {
  const char* rewritten[] = {
      // COUNT(*) only.
      "SELECT o_orderkey, o_orderdate, COUNT(*) AS n FROM orders, lineitem"
      " WHERE l_orderkey = o_orderkey GROUP BY o_orderkey, o_orderdate"
      " ORDER BY n DESC, o_orderkey LIMIT 20",
      // MIN/MAX, a date among them, and a filter on the grouped table.
      "SELECT o_orderkey, MIN(l_shipdate) AS first, MAX(l_extendedprice) AS"
      " top FROM lineitem, orders WHERE l_orderkey = o_orderkey"
      " AND l_discount < 0.05 GROUP BY o_orderkey ORDER BY top DESC, 1"
      " LIMIT 20",
      // AVG = SUM plus a hidden COUNT, two N:1 hops, the key grouped on
      // the grouped table's side.
      "SELECT c_name, l_orderkey, AVG(l_quantity) AS a FROM customer,"
      " orders, lineitem WHERE c_custkey = o_custkey AND l_orderkey ="
      " o_orderkey GROUP BY c_name, l_orderkey ORDER BY a DESC, l_orderkey"
      " LIMIT 20",
      // HAVING on an aggregate that is not in the select list.
      "SELECT o_orderkey, SUM(l_extendedprice) AS v FROM orders, lineitem"
      " WHERE l_orderkey = o_orderkey GROUP BY o_orderkey"
      " HAVING COUNT(*) > 5 ORDER BY v DESC, o_orderkey",
  };
  for (const char* q : rewritten) {
    const auto c = AgreesWithUnrewritten(TpchCatalog(), q);
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->plan().EagerAggregation()) << q << "\n"
                                              << c->ExplainOptimized();
  }
  const char* lazy[] = {
      // The GROUP BY lacks the join key: an order's lines land in groups
      // of other orders.
      "SELECT o_orderdate, SUM(l_quantity) AS q FROM orders, lineitem"
      " WHERE l_orderkey = o_orderkey GROUP BY o_orderdate"
      " ORDER BY q DESC, o_orderdate LIMIT 20",
      // Aggregates over two tables.
      sql::SqlTextFor("Q9"),
      // A group key computed from the grouped table.
      "SELECT o_orderkey, EXTRACT(YEAR FROM l_shipdate) AS y, COUNT(*) AS n"
      " FROM orders, lineitem WHERE l_orderkey = o_orderkey"
      " GROUP BY o_orderkey, EXTRACT(YEAR FROM l_shipdate)"
      " ORDER BY n DESC, 1, 2 LIMIT 20",
  };
  for (const char* q : lazy) {
    sql::CompileResult c = CompileTpch(q);
    ASSERT_TRUE(c.ok()) << q;
    EXPECT_FALSE(c.query->plan().EagerAggregation())
        << q << "\n"
        << c.query->ExplainOptimized();
  }
  // Q9 with its spec binding, through the same oracle.
  const std::string q9 = [] {
    std::string t = sql::SqlTextFor("Q9");
    t.replace(t.find("$color"), 6, "'%green%'");
    return t;
  }();
  AgreesWithUnrewritten(TpchCatalog(), q9);
}

TEST(SqlExplainTest, OptimizedStageShowsHandPlanShapes) {
  // Q18: lineitem grouped by orderkey, HAVING applied there, and that
  // group-by the build side of the orders join — the hand plan.
  sql::CompileResult q18 = CompileTpch(sql::SqlTextFor("Q18"));
  ASSERT_TRUE(q18.ok());
  EXPECT_TRUE(q18.query->plan().EagerAggregation());
  const std::string text = q18.query->ExplainOptimized();
  std::vector<std::string> lines;
  for (size_t at = 0; at < text.size();) {
    const size_t end = text.find('\n', at);
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  auto indent = [](const std::string& l) { return l.find_first_not_of(' '); };
  size_t join = lines.size();
  for (size_t i = 0; i < lines.size(); ++i)
    if (lines[i].find("hashjoin") != std::string::npos &&
        lines[i].find("on lineitem.l_orderkey = orders.o_orderkey") !=
            std::string::npos)
      join = i;
  ASSERT_LT(join + 1, lines.size()) << text;
  // The build child is the first line below the join, one level deeper.
  const std::string& build = lines[join + 1];
  EXPECT_EQ(indent(build), indent(lines[join]) + 2) << text;
  EXPECT_EQ(build.find("group lineitem by lineitem.l_orderkey having [sum("),
            indent(build))
      << text;
  EXPECT_GT(indent(lines[join]), 0u) << "the orders join is below a join\n"
                                     << text;
  EXPECT_EQ(lines.back(), "project (aggregated below the joins)") << text;

  // Q3 qualifies structurally but its filters make the lazy plan cheaper.
  sql::CompileResult q3 = CompileTpch(sql::SqlTextFor("Q3"));
  ASSERT_TRUE(q3.ok());
  EXPECT_FALSE(q3.query->plan().EagerAggregation());
  EXPECT_EQ(q3.query->ExplainOptimized().find("group lineitem"),
            std::string::npos);
}

TEST(SqlFuzzTest, SmokeSeedsAgreeAcrossEngines) {
  // A handful of seeds inline (the 200-query sweep runs in
  // sql_differential_test.cc and the sql_fuzz example).
  auto catalog = TpchCatalog();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string text = sql::GenerateFuzzQuery(*catalog, seed);
    sql::CompileResult c = sql::Compile(catalog, text);
    ASSERT_TRUE(c.ok()) << "seed " << seed << ":\n"
                        << text << "\n"
                        << (c.error ? c.error->Format() : "");
    QueryOptions opt;
    opt.threads = 2;
    const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
    const QueryResult volcano = c.query->RunVolcano(opt, {});
    EXPECT_EQ(tw, volcano) << "seed " << seed << ":\n"
                           << text << "\n-- tectorwise --\n"
                           << tw.ToString(10) << "-- volcano --\n"
                           << volcano.ToString(10);
  }
}

TEST(SqlReferenceTest, AllNineTextsCompile) {
  for (const char* name :
       {"Q1", "Q6", "Q3", "Q9", "Q18", "SSB-Q1.1", "SSB-Q2.1", "SSB-Q3.1",
        "SSB-Q4.1"}) {
    const char* text = sql::SqlTextFor(name);
    ASSERT_NE(text, nullptr) << name;
  }
  EXPECT_EQ(sql::SqlTextFor("Q99"), nullptr);
}

}  // namespace
}  // namespace vcq
