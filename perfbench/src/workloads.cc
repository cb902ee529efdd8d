// The three workloads. Each prepares its queries once (set-up), computes a
// reference result for every (query, binding) it can draw through another
// path (untimed), then runs a timed pass whose every result is compared
// with that reference.
#include <algorithm>
#include <thread>

#include "bench.h"
#include "sql/reference_queries.h"

namespace perfbench {

using vcq::ExecutionHandle;
using vcq::PreparedQuery;
using vcq::runtime::QueryResult;

namespace {

// Bindings drawn per query per run: enough to vary the selections, few
// enough that every reference is computed before the timed pass.
constexpr size_t kBindingsPerQuery = 3;
constexpr size_t kAnalystThreads = 4;
constexpr size_t kDashboardThreads = 1;
constexpr double kDashboardRatePerS = 20;

const char* EngineTag(Engine e) {
  return e == Engine::kTyper ? "typer" : "tectorwise";
}
Engine Other(Engine e) {
  return e == Engine::kTyper ? Engine::kTectorwise : Engine::kTyper;
}

struct Kind {
  Query query;
  Engine engine;
  std::string name() const {
    return std::string(EngineTag(engine)) + "." + MetricName(query);
  }
  friend bool operator<(const Kind& a, const Kind& b) {
    return std::pair(a.query, a.engine) < std::pair(b.query, b.engine);
  }
};

double MsSince(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Deterministic operation order: rounds over `kinds`, each round a fresh
/// seeded shuffle, each operation one of the query's seeded bindings.
class OpOrder {
 public:
  OpOrder(std::vector<Kind> kinds, uint64_t seed)
      : kinds_(std::move(kinds)), rng_(seed) {}

  std::pair<Kind, size_t> Next() {
    if (next_ == 0) std::shuffle(kinds_.begin(), kinds_.end(), rng_);
    const Kind kind = kinds_[next_];
    next_ = (next_ + 1) % kinds_.size();
    const size_t binding =
        std::uniform_int_distribution<size_t>(0, kBindingsPerQuery - 1)(rng_);
    return {kind, binding};
  }

  /// True right after the last kind of a round was handed out.
  bool RoundComplete() const { return next_ == 0; }

 private:
  std::vector<Kind> kinds_;
  Rng rng_;
  size_t next_ = 0;
};

/// Closed-loop throughput over whole rounds only, so that where the time
/// limit cuts the last round (after a cheap or an expensive query) does
/// not move qps.
class RoundClock {
 public:
  RoundClock() : start_(NowNs()) {}
  void OpDone(const OpOrder& order, Pass& pass) {
    ++ops_;
    if (order.RoundComplete() || pass.completed == 0) {
      pass.completed = ops_;
      pass.window_s = MsSince(start_, NowNs()) / 1e3;
    }
  }

 private:
  uint64_t start_;
  uint64_t ops_ = 0;
};

/// Bindings and reference results shared by the workloads.
class Base : public Workload {
 public:
  explicit Base(uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    for (Query q : AllQueries()) {
      for (size_t b = 0; b < kBindingsPerQuery; ++b)
        bindings_[q].push_back(DrawBindings(q, rng));
    }
  }

 protected:
  std::string Describe(const Kind& kind, size_t b, const std::string& e) {
    return kind.name() + " [" + ToString(bindings_.at(kind.query)[b]) + "]: " + e;
  }

  /// Prepares one handle per kind, on `session` or else the database's
  /// session, and executes it once (set-up warm-up).
  void PrepareKinds(Env& env, const std::vector<Kind>& kinds, size_t threads,
                    Tally& tally, vcq::Session* session = nullptr) {
    for (const Kind& k : kinds) {
      vcq::Session& s = session != nullptr ? *session : env.session(k.query);
      PreparedQuery pq = s.Prepare(k.engine, k.query, ThreadsOpt(threads));
      const QueryResult r = pq.Execute();
      tally.Record(r.ok() ? ""
                          : k.name() + ": warm-up status " +
                                vcq::runtime::StatusName(r.status));
      handles_.emplace(k, std::move(pq));
    }
  }

  /// Reference result for every (kind, binding) from the other engine's
  /// handle; the two engines are cross-checked on the way.
  void ReferenceFromOtherEngine(const std::vector<Kind>& kinds, Tally& tally) {
    for (const Kind& k : kinds) {
      for (size_t b = 0; b < kBindingsPerQuery; ++b) {
        PreparedQuery& pq = handles_.at(k);
        Apply(bindings_.at(k.query)[b], pq);
        refs_[Kind{k.query, Other(k.engine)}].push_back(pq.Execute());
      }
    }
    for (const Kind& k : kinds) {
      if (k.engine != Engine::kTyper) continue;
      for (size_t b = 0; b < kBindingsPerQuery; ++b) {
        const std::string e = CheckResult(
            refs_[k][b], refs_[Kind{k.query, Engine::kTectorwise}][b]);
        tally.Record(e.empty() ? "" : Describe(k, b, "engines disagree: " + e));
      }
    }
  }

  /// One closed-loop operation on a prepared handle.
  void RunPrepared(const Kind& kind, size_t b, Tracer* tracer, Pass& pass,
                   Tally& tally) {
    PreparedQuery& pq = handles_.at(kind);
    Apply(bindings_.at(kind.query)[b], pq);
    QueryResult r;
    const uint64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer, "api.PreparedQuery.Execute",
                         tracer != nullptr ? tracer->NextOp() : 0);
      r = pq.Execute();
    }
    const double ms = MsSince(t0, NowNs());
    pass.lat_ms.push_back(ms);
    pass.kind_ms[kind.name()].push_back(ms);
    const std::string e = CheckResult(r, refs_.at(kind)[b]);
    tally.Record(e.empty() ? "" : Describe(kind, b, e));
  }

  const uint64_t seed_;
  std::map<Query, std::vector<Bindings>> bindings_;
  std::map<Kind, PreparedQuery> handles_;
  // refs_[k][b]: the result kind k must produce for binding b, computed by
  // a different path than k itself.
  std::map<Kind, std::vector<QueryResult>> refs_;
};

std::vector<Kind> Cross(const std::vector<Query>& queries,
                        const std::vector<Engine>& engines) {
  std::vector<Kind> kinds;
  for (Query q : queries) {
    for (Engine e : engines) kinds.push_back(Kind{q, e});
  }
  return kinds;
}

// ---------------------------------------------------------------------------
// prepared_olap: the paper's own comparison. Nine catalog queries × {Typer,
// Tectorwise}, prepared once at 4 threads, one closed-loop client.
// ---------------------------------------------------------------------------
class PreparedOlap : public Base {
 public:
  using Base::Base;

  void Prepare(Env& env, Tally& tally) override {
    PrepareKinds(env, kinds_, kAnalystThreads, tally);
  }
  void Reference(Env&, Tally& tally) override {
    ReferenceFromOtherEngine(kinds_, tally);
  }
  Pass Run(Env&, double seconds, uint64_t pass_id, Tracer* tracer,
           Tally& tally) override {
    Pass pass;
    OpOrder order(kinds_, seed_ * 1000003 + pass_id);
    RoundClock clock;
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end) {
      const auto [kind, b] = order.Next();
      RunPrepared(kind, b, tracer, pass, tally);
      clock.OpDone(order, pass);
    }
    return pass;
  }

 private:
  const std::vector<Kind> kinds_ =
      Cross(AllQueries(), {Engine::kTyper, Engine::kTectorwise});
};

// ---------------------------------------------------------------------------
// sql_adhoc: every operation compiles the reference SQL text
// (Session::PrepareSql) and executes it on Tectorwise at 4 threads. The
// reference is the catalog's hand-built Tectorwise plan.
// ---------------------------------------------------------------------------
class SqlAdhoc : public Base {
 public:
  using Base::Base;

  void Prepare(Env& env, Tally& tally) override {
    for (Query q : AllQueries()) {
      PreparedQuery pq = PrepareSql(env, q);
      Apply(bindings_.at(q)[0], pq);
      const QueryResult r = pq.Execute();
      tally.Record(r.ok() ? "" : Describe(Kind{q, Engine::kTectorwise}, 0,
                                          "SQL warm-up failed"));
    }
  }

  void Reference(Env& env, Tally& tally) override {
    for (Query q : AllQueries()) {
      const Kind kind{q, Engine::kTectorwise};
      PreparedQuery pq = env.session(q).Prepare(Engine::kTectorwise, q,
                                                ThreadsOpt(kAnalystThreads));
      for (size_t b = 0; b < kBindingsPerQuery; ++b) {
        Apply(bindings_.at(q)[b], pq);
        refs_[kind].push_back(pq.Execute());
        tally.Record(refs_[kind].back().ok()
                         ? ""
                         : Describe(kind, b, "catalog reference failed"));
      }
    }
  }

  Pass Run(Env& env, double seconds, uint64_t pass_id, Tracer* tracer,
           Tally& tally) override {
    Pass pass;
    std::vector<Kind> kinds = Cross(AllQueries(), {Engine::kTectorwise});
    OpOrder order(kinds, seed_ * 1000003 + pass_id);
    RoundClock clock;
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end) {
      const auto [kind, b] = order.Next();
      const uint64_t op = tracer != nullptr ? tracer->NextOp() : 0;
      QueryResult r;
      const uint64_t t0 = NowNs();
      {
        PreparedQuery pq = [&] {
          Tracer::Scope span(tracer, "api.Session.PrepareSql", op);
          return PrepareSql(env, kind.query);
        }();
        Apply(bindings_.at(kind.query)[b], pq);
        Tracer::Scope span(tracer, "api.PreparedQuery.Execute", op);
        r = pq.Execute();
      }
      const double ms = MsSince(t0, NowNs());
      pass.lat_ms.push_back(ms);
      pass.kind_ms[kind.name()].push_back(ms);
      const std::string e = CheckResult(r, refs_.at(kind)[b]);
      tally.Record(e.empty() ? "" : Describe(kind, b, "SQL plan: " + e));
      clock.OpDone(order, pass);
    }
    return pass;
  }

 private:
  static PreparedQuery PrepareSql(Env& env, Query q) {
    return env.session(q).PrepareSql(vcq::sql::SqlTextFor(vcq::QueryName(q)),
                                      Engine::kTectorwise,
                                      ThreadsOpt(kAnalystThreads));
  }
};

// ---------------------------------------------------------------------------
// mixed_tenants: an analyst session runs a closed loop of long joins (Q3,
// Q9, Q18 × both engines, 4 threads) while a dashboard sends short scans
// (Q6, SSB-Q1.1 on Tectorwise, 1 thread) through ExecuteAsync in an open
// loop with Poisson arrivals. All sessions share one worker pool, so the
// scheduler decides the dashboard's latency.
// ---------------------------------------------------------------------------
class MixedTenants : public Base {
 public:
  using Base::Base;

  void Prepare(Env& env, Tally& tally) override {
    // The analyst is a tenant of its own: a second session, and so a
    // second scheduling stream, on the shared pool.
    analyst_ = std::make_unique<vcq::Session>(env.tpch, *env.pool);
    PrepareKinds(env, analyst_kinds_, kAnalystThreads, tally, analyst_.get());
    PrepareKinds(env, dashboard_kinds_, kDashboardThreads, tally);
  }

  void Reference(Env& env, Tally& tally) override {
    ReferenceFromOtherEngine(analyst_kinds_, tally);
    for (const Kind& k : dashboard_kinds_) {
      PreparedQuery pq = env.session(k.query).Prepare(
          Other(k.engine), k.query, ThreadsOpt(kDashboardThreads));
      for (size_t b = 0; b < kBindingsPerQuery; ++b) {
        Apply(bindings_.at(k.query)[b], pq);
        refs_[k].push_back(pq.Execute());
        tally.Record(refs_[k].back().ok()
                         ? ""
                         : Describe(k, b, "Typer reference failed"));
      }
    }
  }

  Pass Run(Env&, double seconds, uint64_t pass_id, Tracer* tracer,
           Tally& tally) override {
    Pass pass;
    Pass analyst_pass;
    Tally analyst_tally;
    std::jthread analyst([&](std::stop_token stop) {
      AnalystLoop(seed_ * 1000003 + pass_id, stop, tracer, analyst_pass,
                  analyst_tally);
    });

    // One waiter thread per dashboard query stamps its completion as soon
    // as Wait() returns; waiting in submission order would stamp a query
    // that finished out of order late.
    std::mutex mu;  // guards pass's dashboard fields and tally
    std::vector<std::jthread> waiters;
    const auto await = [&](Kind kind, size_t b, uint64_t due, uint64_t op,
                           ExecutionHandle handle) {
      const QueryResult r = handle.Wait();
      const uint64_t done = NowNs();
      if (tracer != nullptr) {
        tracer->Add(
            Span{"api.PreparedQuery.ExecuteAsync.due_to_done", op, due, done});
      }
      const std::string e = CheckResult(r, refs_.at(kind)[b]);
      std::lock_guard<std::mutex> lock(mu);
      const double ms = MsSince(due, done);
      pass.lat_ms.push_back(ms);
      pass.kind_ms[kind.name()].push_back(ms);
      pass.dispatch_ms.push_back(ms - r.wall_ns / 1e6);
      tally.Record(e.empty() ? "" : Describe(kind, b, e));
    };

    // Poisson arrivals conditioned on their count: rate × seconds arrival
    // times drawn uniformly over the window, so every seed sends the same
    // load and only the spacing varies.
    Rng rng(seed_ * 7919 + pass_id);
    const size_t arrivals = static_cast<size_t>(kDashboardRatePerS * seconds);
    std::vector<double> at_s(arrivals);
    std::uniform_real_distribution<double> uniform(0, seconds);
    for (double& t : at_s) t = uniform(rng);
    std::sort(at_s.begin(), at_s.end());
    const uint64_t start = NowNs();
    for (double t : at_s) {
      const uint64_t due = start + static_cast<uint64_t>(t * 1e9);
      const Kind kind = dashboard_kinds_[std::uniform_int_distribution<size_t>(
          0, dashboard_kinds_.size() - 1)(rng)];
      const size_t b = std::uniform_int_distribution<size_t>(
          0, kBindingsPerQuery - 1)(rng);
      for (uint64_t now = NowNs(); now < due; now = NowNs()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      pass.lag_ms.push_back(MsSince(due, NowNs()));
      PreparedQuery& pq = handles_.at(kind);
      Apply(bindings_.at(kind.query)[b], pq);
      const uint64_t op = tracer != nullptr ? tracer->NextOp() : 0;
      waiters.emplace_back(await, kind, b, due, op, pq.ExecuteAsync());
    }
    analyst.request_stop();
    for (std::jthread& t : waiters) t.join();
    analyst.join();

    for (auto& [name, ms] : analyst_pass.kind_ms) pass.kind_ms[name] = ms;
    pass.completed = analyst_pass.completed;
    pass.window_s = analyst_pass.window_s;
    tally.attempted += analyst_tally.attempted;
    tally.failed += analyst_tally.failed;
    for (std::string& e : analyst_tally.errors) {
      if (tally.errors.size() < 8) tally.errors.push_back(std::move(e));
    }
    return pass;
  }

  /// The analyst's closed loop until `stop`; also drives the loaded
  /// scheduler probe.
  void AnalystLoop(uint64_t order_seed, std::stop_token stop,
                   Tracer* tracer, Pass& pass, Tally& tally) {
    OpOrder order(analyst_kinds_, order_seed);
    RoundClock clock;
    while (!stop.stop_requested()) {
      const auto [kind, b] = order.Next();
      RunPrepared(kind, b, tracer, pass, tally);
      clock.OpDone(order, pass);
    }
    // The dashboard's latencies are the workload's p50/p95; the analyst's
    // count only per kind, for geomean_ms.
    pass.lat_ms.clear();
  }

 private:
  std::unique_ptr<vcq::Session> analyst_;
  const std::vector<Kind> analyst_kinds_ =
      Cross({Query::kQ3, Query::kQ9, Query::kQ18},
            {Engine::kTyper, Engine::kTectorwise});
  const std::vector<Kind> dashboard_kinds_ =
      Cross({Query::kQ6, Query::kSsbQ11}, {Engine::kTectorwise});
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "prepared_olap") return std::make_unique<PreparedOlap>(seed);
  if (name == "sql_adhoc") return std::make_unique<SqlAdhoc>(seed);
  if (name == "mixed_tenants") return std::make_unique<MixedTenants>(seed);
  return nullptr;
}

Pass ProbeUnderAnalystLoad(Env& env, uint64_t seed, double seconds,
                           Tracer& tracer, Tally& tally) {
  MixedTenants mixed(seed);
  mixed.Prepare(env, tally);
  mixed.Reference(env, tally);
  Pass pass = mixed.Run(env, seconds, /*pass_id=*/100, nullptr, tally);

  // Empty 4-wide regions, first on an idle pool, then while the analyst
  // loop keeps the gang workers busy.
  const auto empty_regions = [&](const char* name, int count) {
    for (int i = 0; i < count; ++i) {
      Tracer::Scope span(&tracer, name, tracer.NextOp());
      env.pool->Run(4, [](size_t) {});
    }
  };
  empty_regions("runtime.WorkerPool.Run.empty.idle", 200);
  Pass analyst_pass;
  std::jthread analyst([&](std::stop_token stop) {
    mixed.AnalystLoop(seed + 101, stop, nullptr, analyst_pass, tally);
  });
  // Let the analyst's first region start before sampling.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  empty_regions("runtime.WorkerPool.Run.empty.loaded", 40);
  analyst.request_stop();
  analyst.join();
  return pass;
}

}  // namespace perfbench
