// Engine explorer: interactively sweep the execution-model knobs the paper
// studies — engine, vector size, SIMD, threads — on any query, and see how
// runtime responds. A hands-on version of Figures 3/5/11 and Table 6's
// taxonomy (Typer = push+compilation, Tectorwise = pull+vectorization,
// Volcano = pull+interpretation).
//
//   ./engine_explorer [--sf 0.5] [--query Q1|Q6|Q3|Q9|Q18|SSB-Q1.1|...]
//                     [--sql "SELECT ..."] [--ssb] [--explain] [--analyze]
//                     [--trace-json <path>] [--metrics]
//
// With no --query it sweeps the full TPC-H subset. --explain additionally
// prints each query's declarative Tectorwise plan (nodes, consumed
// columns, and the compaction registrations derived from slot usage).
// --sql runs the same sweep on an ad-hoc statement through the SQL front
// door (src/sql/) instead of a catalog query — Typer is skipped there
// (its pipelines are ahead-of-time compiled per catalog query); --explain
// then prints every compilation stage (ast/logical/optimized/physical).
//
// Observability flags (runtime/trace.h, runtime/metrics.h):
//   --analyze            run each query once traced on both engines and
//                        print PreparedQuery::ExplainAnalyze()'s measured
//                        plan (per node/pipeline: rows, ns/tuple, ...)
//   --trace-json <path>  write a traced Tectorwise run of the (first)
//                        query as chrome://tracing JSON to <path>
//   --metrics            print the process metrics snapshot (JSON and
//                        Prometheus text) after the sweep

#include <chrono>
#include <thread>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/query_catalog.h"
#include "api/session.h"
#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"
#include "sql/sql.h"
#include "tectorwise/primitives_simd.h"

namespace {

template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One Execute() on a handle prepared and warmed once on `session`, so the
// rows show execution time only: no Prepare, and for Volcano no SQL
// catalog build or compile.
double Time(const vcq::Session& session, vcq::Engine e, vcq::Query q,
            const vcq::runtime::QueryOptions& opt) {
  const vcq::PreparedQuery prepared = session.Prepare(e, q, opt);
  prepared.Execute();
  return TimeMs([&] { prepared.Execute(); });
}

// The --sql path: one ad-hoc statement through the SQL front door, swept
// over the same knobs as the catalog queries (minus Typer).
int ExploreSql(const vcq::runtime::Database& db, const std::string& text,
               bool explain) {
  const vcq::sql::CompileResult compiled = vcq::sql::Compile(db, text);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.error->Format().c_str());
    return 1;
  }
  const vcq::sql::CompiledQuery& q = *compiled.query;
  if (!q.params().empty()) {
    std::fprintf(stderr,
                 "--sql statements must not declare $parameters here; "
                 "inline the constants (or use the sql_shell \\set flow)\n");
    return 1;
  }
  if (explain) std::printf("%s", vcq::sql::Explain(q).c_str());

  const vcq::runtime::QueryParams no_params;
  std::printf("  engines (1 thread):\n");
  vcq::runtime::QueryOptions st;
  std::printf("    %-11s %8.2f ms\n", "tectorwise",
              TimeMs([&] { q.LowerTectorwise().Run(st, no_params); }));
  std::printf("    %-11s %8.2f ms\n", "volcano",
              TimeMs([&] { q.RunVolcano(st, no_params); }));

  std::printf("  tectorwise vector sizes:\n");
  for (size_t vs : {size_t{1}, size_t{64}, size_t{1024}, size_t{65536}}) {
    vcq::runtime::QueryOptions opt;
    opt.vector_size = vs;
    std::printf("    %-8zu    %8.2f ms\n", vs,
                TimeMs([&] { q.LowerTectorwise().Run(opt, no_params); }));
  }
  vcq::runtime::QueryOptions mt;
  mt.threads = std::max(1u, std::thread::hardware_concurrency() / 2);
  std::printf("  tectorwise x%-2zu threads:   %8.2f ms\n", mt.threads,
              TimeMs([&] { q.LowerTectorwise().Run(mt, no_params); }));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.5;
  std::string query_name;
  std::string sql_text;
  std::string trace_json_path;
  bool ssb = false;
  bool explain = false;
  bool analyze = false;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--sf") && i + 1 < argc) sf = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--query") && i + 1 < argc) query_name = argv[++i];
    if (!std::strcmp(argv[i], "--sql") && i + 1 < argc) sql_text = argv[++i];
    if (!std::strcmp(argv[i], "--trace-json") && i + 1 < argc)
      trace_json_path = argv[++i];
    if (!std::strcmp(argv[i], "--ssb")) ssb = true;
    if (!std::strcmp(argv[i], "--explain")) explain = true;
    if (!std::strcmp(argv[i], "--analyze")) analyze = true;
    if (!std::strcmp(argv[i], "--metrics")) metrics = true;
  }

  if (!sql_text.empty()) {
    std::printf("Loading %s SF=%.2f ...\n", ssb ? "SSB" : "TPC-H", sf);
    const vcq::runtime::Database sql_db =
        ssb ? vcq::datagen::GenerateSsb(sf) : vcq::datagen::GenerateTpch(sf);
    std::printf("\n=== SQL — %s ===\n", sql_text.c_str());
    const int rc = ExploreSql(sql_db, sql_text, explain);
    if (metrics && rc == 0) {
      std::printf("\n=== metrics ===\n%s\n%s", vcq::metrics::RenderJson().c_str(),
                  vcq::metrics::RenderPrometheus().c_str());
    }
    return rc;
  }

  // The QueryCatalog is the single registry of the workload: name lookup
  // and the sweep list both come from it (the PR 3 explorer crash came
  // from a hand-rolled duplicate of this list).
  std::vector<vcq::Query> queries;
  if (!query_name.empty()) {
    const vcq::QueryInfo* info = vcq::FindQuery(query_name);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown query '%s'; known:", query_name.c_str());
      for (const vcq::QueryInfo& known : vcq::QueryCatalog())
        std::fprintf(stderr, " %s", known.name.c_str());
      std::fprintf(stderr, "\n");
      return 1;
    }
    queries.push_back(info->query);
  } else {
    queries = vcq::TpchQueries();
  }

  const bool need_ssb = !queries.empty() && vcq::IsSsbQuery(queries.front());
  std::printf("Loading %s SF=%.2f ...\n", need_ssb ? "SSB" : "TPC-H", sf);
  vcq::runtime::Database db = need_ssb ? vcq::datagen::GenerateSsb(sf)
                                       : vcq::datagen::GenerateTpch(sf);
  vcq::Session session(db);

  if (!trace_json_path.empty() && !queries.empty()) {
    // One traced Tectorwise run of the first query, exported for
    // chrome://tracing / Perfetto.
    vcq::runtime::QueryOptions opt;
    opt.trace = vcq::runtime::TraceLevel::kSpans;
    opt.threads = std::max(1u, std::thread::hardware_concurrency() / 2);
    const vcq::PreparedQuery prepared =
        session.Prepare(vcq::Engine::kTectorwise, queries.front(), opt);
    const vcq::runtime::QueryResult result = prepared.Execute();
    if (result.trace == nullptr) {
      std::fprintf(stderr, "traced run produced no trace (status=%s)\n",
                   vcq::runtime::StatusName(result.status));
      return 1;
    }
    std::FILE* f = std::fopen(trace_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_json_path.c_str());
      return 1;
    }
    const std::string json = result.trace->ToChromeJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %zu bytes of chrome-trace JSON (%zu spans) to %s\n",
                json.size(), result.trace->span_count(),
                trace_json_path.c_str());
  }

  for (vcq::Query q : queries) {
    const vcq::QueryInfo& info = vcq::CatalogEntry(q);
    std::printf("\n=== %s — %s ===\n", info.name.c_str(),
                info.description.c_str());

    if (explain) {
      std::printf("%s", vcq::ExplainQuery(db, q).c_str());
      if (!info.params.empty()) {
        std::printf("  parameters:\n");
        for (const vcq::ParamSpec& p : info.params) {
          std::printf("    :%-14s %-7s %s\n", p.name.c_str(),
                      vcq::runtime::ParamTypeName(p.type),
                      p.description.c_str());
        }
      }
    }

    if (analyze) {
      // One traced run per engine through the serving API; the output is
      // the measured plan (rows, ns/tuple per node — api/session.h).
      for (vcq::Engine e : {vcq::Engine::kTyper, vcq::Engine::kTectorwise}) {
        vcq::runtime::QueryOptions opt;
        opt.trace = vcq::runtime::TraceLevel::kSpans;
        std::printf("%s",
                    session.Prepare(e, q, opt).ExplainAnalyze().c_str());
      }
    }

    // Engine comparison, single thread.
    vcq::runtime::QueryOptions st;
    std::printf("  engines (1 thread):\n");
    for (vcq::Engine e : {vcq::Engine::kTyper, vcq::Engine::kTectorwise,
                          vcq::Engine::kVolcano}) {
      std::printf("    %-11s %8.2f ms\n", vcq::EngineName(e),
                  Time(session, e, q, st));
    }

    // Vector-size sweep (Tectorwise, Fig. 5).
    std::printf("  tectorwise vector sizes:\n");
    for (size_t vs : {size_t{1}, size_t{64}, size_t{1024}, size_t{65536}}) {
      vcq::runtime::QueryOptions opt;
      opt.vector_size = vs;
      std::printf("    %-8zu    %8.2f ms\n", vs,
                  Time(session, vcq::Engine::kTectorwise, q, opt));
    }

    // SIMD (Fig. 6/8) and threads (Table 3).
    if (vcq::tectorwise::simd::Available()) {
      vcq::runtime::QueryOptions simd;
      simd.simd = true;
      std::printf("  tectorwise AVX-512:       %8.2f ms\n",
                  Time(session, vcq::Engine::kTectorwise, q, simd));
    }
    vcq::runtime::QueryOptions mt;
    mt.threads = std::max(1u, std::thread::hardware_concurrency() / 2);
    std::printf("  typer x%-2zu threads:        %8.2f ms\n", mt.threads,
                Time(session, vcq::Engine::kTyper, q, mt));
    std::printf("  tectorwise x%-2zu threads:   %8.2f ms\n", mt.threads,
                Time(session, vcq::Engine::kTectorwise, q, mt));
  }
  if (metrics) {
    std::printf("\n=== metrics ===\n%s\n%s",
                vcq::metrics::RenderJson().c_str(),
                vcq::metrics::RenderPrometheus().c_str());
  }
  return 0;
}
