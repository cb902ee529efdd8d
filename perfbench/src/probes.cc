// Per-layer probes of the traced run. Each one calls a public function of
// one src/ module inside a span of this benchmark's own Tracer and derives
// its metric from those span durations; the engine's QueryTrace and the
// benchutil build/probe split are never read. Probes replay the shapes and
// sizes of the workload that exercises the layer (SF of the run, 1 and 4
// threads, the catalog's queries, Q3's and Q9's join builds).
#include <optional>

#include "api/query_catalog.h"
#include "bench.h"
#include "datagen/tpch.h"
#include "runtime/hash.h"
#include "runtime/hashmap.h"
#include "sql/reference_queries.h"
#include "sql/sql.h"
#include "tectorwise/primitives.h"
#include "tectorwise/queries.h"
#include "typer/queries.h"

namespace perfbench {

using vcq::PreparedQuery;
using vcq::runtime::QueryOptions;
using vcq::runtime::QueryParams;
using vcq::runtime::QueryResult;

namespace {

constexpr int kReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

/// What every probe needs: the set-up, the span recorder its timings come
/// from, the failure tally and the metric sink.
struct Probe {
  Env& env;
  Tracer& tracer;
  Tally& tally;
  Metrics& out;

  /// Times `fn` inside a span named `name`.
  template <typename Fn>
  auto Timed(const std::string& name, Fn&& fn) {
    Tracer::Scope span(&tracer, name, tracer.NextOp());
    return fn();
  }
  double MedianNs(const std::string& name) const {
    return Median(tracer.DurationsNs(name));
  }
  void Put(const std::string& name, double value, const char* unit) {
    out[name] = {value, unit};
  }
  void Check(const QueryResult& got, const QueryResult& want,
             const std::string& what) {
    const std::string e = CheckResult(got, want);
    tally.Record(e.empty() ? "" : what + ": " + e);
  }
  void Expect(bool ok, const std::string& what) {
    tally.Record(ok ? "" : what);
  }
};

QueryParams ToParams(Query q, const Bindings& bindings) {
  QueryParams params;
  for (const Binding& b : bindings) {
    if (const int64_t* i = std::get_if<int64_t>(&b.value)) {
      params.SetInt(b.name, *i);
      continue;
    }
    const std::string& s = std::get<std::string>(b.value);
    for (const vcq::ParamSpec& spec : vcq::CatalogEntry(q).params) {
      if (spec.name != b.name) continue;
      if (spec.type == vcq::runtime::ParamType::kDate) {
        params.SetDate(b.name, s);
      } else {
        params.SetString(b.name, s);
      }
    }
  }
  return params;
}

using TyperRun = QueryResult (*)(const vcq::runtime::Database&,
                                 const QueryOptions&, const QueryParams&,
                                 const vcq::typer::ColumnCache&);
TyperRun TyperFor(Query q) {
  namespace t = vcq::typer;
  switch (q) {
    case Query::kQ1: return t::RunQ1;
    case Query::kQ6: return t::RunQ6;
    case Query::kQ3: return t::RunQ3;
    case Query::kQ9: return t::RunQ9;
    case Query::kQ18: return t::RunQ18;
    case Query::kSsbQ11: return t::RunSsbQ11;
    case Query::kSsbQ21: return t::RunSsbQ21;
    case Query::kSsbQ31: return t::RunSsbQ31;
    case Query::kSsbQ41: return t::RunSsbQ41;
  }
  return nullptr;
}

// sql: catalog statistics scan, compile and lowering of the nine reference
// texts, and the optimizer's cost estimate per query.
void ProbeSqlFrontEnd(Probe& p) {
  std::shared_ptr<const vcq::sql::Catalog> tpch, ssb;
  for (int rep = 0; rep < kReps; ++rep) {
    tpch = p.Timed("sql.MakeCatalog.tpch",
                   [&] { return vcq::sql::MakeCatalog(p.env.tpch); });
    ssb = p.Timed("sql.MakeCatalog.ssb",
                  [&] { return vcq::sql::MakeCatalog(p.env.ssb); });
  }
  p.Put("sql.catalog_ms",
        (p.MedianNs("sql.MakeCatalog.tpch") + p.MedianNs("sql.MakeCatalog.ssb")) /
            1e6,
        "ms");
  std::vector<double> compile_ns, lower_ns;
  for (Query q : AllQueries()) {
    const std::string m = MetricName(q);
    const char* text = vcq::sql::SqlTextFor(vcq::QueryName(q));
    vcq::sql::CompileResult compiled;
    for (int rep = 0; rep < 5; ++rep) {
      compiled = p.Timed("sql.Compile." + m, [&] {
        return vcq::sql::Compile(vcq::IsSsbQuery(q) ? ssb : tpch, text);
      });
    }
    p.Expect(compiled.ok(), "sql::Compile failed on " + m);
    if (!compiled.ok()) continue;
    for (int rep = 0; rep < 5; ++rep) {
      std::optional<vcq::tectorwise::Prepared> lowered;
      p.Timed("sql.LowerTectorwise." + m,
              [&] { lowered.emplace(compiled.query->LowerTectorwise()); });
    }
    compile_ns.push_back(p.MedianNs("sql.Compile." + m));
    lower_ns.push_back(p.MedianNs("sql.LowerTectorwise." + m));
    // cost() sums estimated join outputs, so it is 0 by construction for
    // the join-free queries; they report no estimate.
    if (q != Query::kQ1 && q != Query::kQ6) {
      p.Put("sql.est_rows." + m, compiled.query->cost(), "rows");
    }
  }
  p.Put("sql.compile_us", Median(compile_ns) / 1e3, "us");
  p.Put("sql.lower_us", Median(lower_ns) / 1e3, "us");
}

// Per query: session handles (SQL plan, hand plan, Typer) at 4 threads and
// the engines called directly at 1 and 4 threads, all on one binding.
void ProbeQueries(Probe& p, uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  for (Query q : AllQueries()) {
    const std::string m = MetricName(q);
    const Bindings bindings = DrawBindings(q, rng);
    const QueryParams params = ToParams(q, bindings);
    vcq::Session& session = p.env.session(q);
    const vcq::runtime::Database& db = p.env.db(q);

    PreparedQuery sql_pq = session.PrepareSql(
        vcq::sql::SqlTextFor(vcq::QueryName(q)), Engine::kTectorwise,
        ThreadsOpt(4));
    PreparedQuery hand = p.Timed("api.Session.Prepare", [&] {
      return session.Prepare(Engine::kTectorwise, q, ThreadsOpt(4));
    });
    PreparedQuery typer = p.Timed("api.Session.Prepare", [&] {
      return session.Prepare(Engine::kTyper, q, ThreadsOpt(4));
    });
    for (PreparedQuery* pq : {&sql_pq, &hand, &typer}) Apply(bindings, *pq);

    const QueryResult ref = hand.Execute();
    p.Check(typer.Execute(), ref, "typer " + m);
    p.Check(sql_pq.Execute(), ref, "SQL plan " + m);
    for (int rep = 0; rep < kReps; ++rep) {
      p.Check(p.Timed("api.Execute.sql." + m, [&] { return sql_pq.Execute(); }),
              ref, "SQL plan " + m);
      p.Check(p.Timed("api.Execute.hand." + m, [&] { return hand.Execute(); }),
              ref, "tectorwise " + m);
    }
    p.Put("sql.slowdown." + m,
          p.MedianNs("api.Execute.sql." + m) / p.MedianNs("api.Execute.hand." + m),
          "x");
    p.Put("runtime.peak_mb.tectorwise." + m, hand.measured_peak_bytes() / kMiB,
          "MB");
    p.Put("runtime.peak_mb.typer." + m, typer.measured_peak_bytes() / kMiB, "MB");

    // The engines' own entry points, 1 vs 4 threads.
    const double scanned = static_cast<double>(vcq::ScannedTuples(db, q));
    const vcq::typer::ColumnCache cache;
    const TyperRun typer_run = TyperFor(q);
    const vcq::tectorwise::Prepared tw =
        vcq::tectorwise::Prepare(db, vcq::QueryName(q), ThreadsOpt(1));
    QueryOptions opt[2] = {ThreadsOpt(1), ThreadsOpt(4)};
    for (QueryOptions& o : opt) o.pool = p.env.pool.get();
    p.Check(typer_run(db, opt[0], params, cache), ref, "typer " + m);
    for (int rep = 0; rep < kReps; ++rep) {
      for (const QueryOptions& o : opt) {
        const std::string t = ".t" + std::to_string(o.threads);
        p.Check(p.Timed("typer.Run." + m + t,
                        [&] { return typer_run(db, o, params, cache); }),
                ref, "typer direct " + m + t);
        p.Check(p.Timed("tectorwise.Prepared.Run." + m + t,
                        [&] { return tw.Run(o, params); }),
                ref, "tectorwise direct " + m + t);
      }
    }
    for (const auto& [engine, span] :
         {std::pair{"typer", "typer.Run."},
          std::pair{"tectorwise", "tectorwise.Prepared.Run."}}) {
      const double t1 = p.MedianNs(span + m + ".t1");
      const double t4 = p.MedianNs(span + m + ".t4");
      p.Put(std::string(engine) + ".ns_per_tuple." + m, t1 / scanned,
            "ns/tuple");
      p.Put(std::string(engine) + ".speedup_t4." + m, t1 / t4, "x");
    }

    if (q == Query::kQ18) {
      // runtime spill: the Grace path, forced by a budget below the
      // measured in-memory peak.
      QueryOptions spill_opt = ThreadsOpt(4);
      spill_opt.spill = true;
      spill_opt.memory_budget = hand.measured_peak_bytes() / 2;
      PreparedQuery spill = session.Prepare(Engine::kTectorwise, q, spill_opt);
      Apply(bindings, spill);
      std::vector<double> spilled;
      for (int rep = 0; rep < kReps; ++rep) {
        const QueryResult r =
            p.Timed("api.Execute.spill." + m, [&] { return spill.Execute(); });
        p.Check(r, ref, "spilled " + m);
        spilled.push_back(static_cast<double>(r.spilled_bytes));
      }
      p.Put("runtime.spill_ms", p.MedianNs("api.Execute.spill." + m) / 1e6,
            "ms");
      p.Put("runtime.spill_mb", Median(spilled) / kMiB, "MB");
    }
  }
  p.Put("api.prepare_us", p.MedianNs("api.Session.Prepare") / 1e3, "us");
}

// api overhead: PreparedQuery::Execute against the same plan run through
// tectorwise::Prepared::Run, Q6 at one thread. The probe generates a tiny
// database of its own so that the engine's work (tens of µs) does not bury
// the session path (admission, ledger, Finish: a few µs) in its noise.
void ProbeExecuteOverhead(Probe& p, uint64_t seed) {
  constexpr double kScaleFactor = 0.001;
  constexpr int kRuns = 2000;
  const vcq::runtime::Database db = vcq::datagen::GenerateTpch(kScaleFactor);
  vcq::Session session(db, *p.env.pool);
  Rng rng(seed ^ 0x0e4eadULL);
  const Bindings bindings = DrawBindings(Query::kQ6, rng);
  const QueryParams params = ToParams(Query::kQ6, bindings);
  QueryOptions opt = ThreadsOpt(1);
  opt.pool = p.env.pool.get();
  const QueryResult ref =
      TyperFor(Query::kQ6)(db, opt, params, vcq::typer::ColumnCache());
  PreparedQuery pq =
      session.Prepare(Engine::kTectorwise, Query::kQ6, ThreadsOpt(1));
  Apply(bindings, pq);
  const vcq::tectorwise::Prepared tw = vcq::tectorwise::Prepare(
      db, vcq::QueryName(Query::kQ6), ThreadsOpt(1));
  for (int rep = 0; rep < kRuns; ++rep) {
    p.Check(p.Timed("api.PreparedQuery.Execute.q6.small",
                    [&] { return pq.Execute(); }),
            ref, "api q6 small");
    p.Check(p.Timed("tectorwise.Prepared.Run.q6.small",
                    [&] { return tw.Run(opt, params); }),
            ref, "tectorwise q6 small");
  }
  p.Put("api.execute_overhead_us",
        (p.MedianNs("api.PreparedQuery.Execute.q6.small") -
         p.MedianNs("tectorwise.Prepared.Run.q6.small")) /
            1e3,
        "us");
}

// tectorwise selection primitive: dense inclusive range selection over
// 1024-tuple vectors at 50% selectivity.
void ProbeSelection(Probe& p, uint64_t seed) {
  constexpr size_t kRows = size_t{1} << 22;
  constexpr size_t kVector = 1024;
  std::vector<int32_t> col(kRows);
  Rng rng(seed);
  std::uniform_int_distribution<int32_t> value(0, 99);
  size_t expected = 0;
  for (int32_t& v : col) {
    v = value(rng);
    expected += v <= 49;
  }
  std::vector<vcq::tectorwise::pos_t> out(kVector);
  for (int rep = 0; rep < 7; ++rep) {
    const size_t hits = p.Timed("tectorwise.SelBetweenDense", [&] {
      size_t n = 0;
      for (size_t off = 0; off < kRows; off += kVector) {
        n += vcq::tectorwise::SelBetweenDense<int32_t>(kVector, &col[off], 0,
                                                       49, out.data());
      }
      return n;
    });
    p.Expect(hits == expected, "SelBetweenDense selected a wrong count");
  }
  p.Put("tectorwise.sel_ns_per_tuple",
        p.MedianNs("tectorwise.SelBetweenDense") / kRows, "ns/tuple");
}

// runtime join build and probe at the sizes of Q3's customer build (fits
// a core's L2) and Q9's orders build (does not), with the real keys.
void ProbeJoinBuild(Probe& p, uint64_t seed) {
  using vcq::runtime::BuildMode;
  using vcq::runtime::Hashmap;
  struct Row {
    Hashmap::EntryHeader header;
    int64_t key;
    int64_t payload;
  };
  const vcq::runtime::Relation& customer = p.env.tpch["customer"];
  const auto segment = customer.Col<vcq::runtime::Char<10>>("c_mktsegment");
  const auto custkey = customer.Col<int32_t>("c_custkey");
  const auto building = vcq::runtime::Char<10>::From("BUILDING");
  std::vector<int64_t> l2_keys;
  for (size_t i = 0; i < customer.tuple_count(); ++i) {
    if (segment[i] == building) l2_keys.push_back(custkey[i]);
  }
  const auto orderkey = p.env.tpch["orders"].Col<int32_t>("o_orderkey");
  const std::vector<int64_t> beyond_keys(orderkey.begin(), orderkey.end());

  for (const auto& [size, keys] :
       {std::pair<const char*, const std::vector<int64_t>*>{"l2", &l2_keys},
        {"beyond_l2", &beyond_keys}}) {
    const size_t n = keys->size();
    std::vector<Row> rows(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i].header.hash = vcq::runtime::HashCrc32((*keys)[i]);
      rows[i].key = (*keys)[i];
      rows[i].payload = static_cast<int64_t>(i);
    }
    for (const auto& [mode_name, mode] :
         {std::pair{"cas", BuildMode::kCas},
          std::pair{"partitioned", BuildMode::kPartitioned}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        const std::string name = std::string("runtime.JoinBuild.Run.") +
                                 mode_name + "." + size + ".t" +
                                 std::to_string(threads);
        for (int rep = 0; rep < 5; ++rep) {
          Hashmap ht;
          vcq::runtime::JoinBuild build(&ht, threads);
          std::vector<vcq::runtime::EntryChunkList> lists(threads);
          for (size_t w = 0; w < threads; ++w) {
            const size_t begin = n * w / threads, end = n * (w + 1) / threads;
            lists[w].Add(reinterpret_cast<std::byte*>(rows.data() + begin),
                         end - begin);
          }
          p.Timed(name, [&] {
            p.env.pool->Run(threads, [&](size_t w) {
              build.Run(mode, std::move(lists[w]), sizeof(Row));
            });
          });
          p.Expect(build.entry_count() == n, name + " lost rows");
        }
        p.Put(std::string("runtime.join_build_ns_per_row.") + mode_name + "." +
                  size + ".t" + std::to_string(threads),
              p.MedianNs(name) / n, "ns/row");
      }
    }

    // Probe every key once, in a seeded random order, after a CAS build.
    Hashmap ht;
    vcq::runtime::JoinBuild build(&ht, 1);
    vcq::runtime::EntryChunkList list;
    list.Add(reinterpret_cast<std::byte*>(rows.data()), n);
    p.env.pool->Run(1, [&](size_t) {
      build.Run(BuildMode::kCas, std::move(list), sizeof(Row));
    });
    std::vector<int64_t> order(*keys);
    Rng rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    const int64_t expected = static_cast<int64_t>(n) * (n - 1) / 2;
    const std::string name = std::string("runtime.Hashmap.probe.") + size;
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t sum = p.Timed(name, [&] {
        int64_t s = 0;
        for (int64_t key : order) {
          const uint64_t hash = vcq::runtime::HashCrc32(key);
          for (Hashmap::EntryHeader* e = ht.FindChainTagged(hash); e != nullptr;
               e = e->next) {
            const Row* row = reinterpret_cast<const Row*>(e);
            if (row->key == key) {
              s += row->payload;
              break;
            }
          }
        }
        return s;
      });
      p.Expect(sum == expected, name + " missed keys");
    }
    p.Put(std::string("runtime.join_probe_ns_per_key.") + size,
          p.MedianNs(name) / n, "ns/key");
  }
}

}  // namespace

void RunProbes(const Options& opt, Env& env, Tracer& tracer, Tally& tally,
               Metrics& out) {
  Probe p{env, tracer, tally, out};
  p.Put("datagen.tpch_s", p.MedianNs("datagen.GenerateTpch") / 1e9, "s");
  p.Put("datagen.ssb_s", p.MedianNs("datagen.GenerateSsb") / 1e9, "s");
  ProbeSqlFrontEnd(p);
  ProbeQueries(p, opt.seed);
  ProbeExecuteOverhead(p, opt.seed);
  ProbeSelection(p, opt.seed);
  ProbeJoinBuild(p, opt.seed);

  const Pass loaded = ProbeUnderAnalystLoad(env, opt.seed, 3.0, tracer, tally);
  p.Put("api.async_dispatch_p95_ms", Percentile(loaded.dispatch_ms, 95), "ms");
  p.Put("bench.gen_lag_p95_ms", Percentile(loaded.lag_ms, 95), "ms");
  p.Put("runtime.region_dispatch_us.idle",
        p.MedianNs("runtime.WorkerPool.Run.empty.idle") / 1e3, "us");
  p.Put("runtime.region_dispatch_us.loaded",
        p.MedianNs("runtime.WorkerPool.Run.empty.loaded") / 1e3, "us");
}

}  // namespace perfbench
