// Shared pieces of the repository benchmark (perfbench): command options,
// the span recorder every layer timing comes from, order statistics, the
// seeded substitution-parameter draws, the result checker, and the set-up
// of databases, pool and sessions. See perfbench/README.md for the metric
// definitions and why each workload exists.
#ifndef VCQ_PERFBENCH_BENCH_H_
#define VCQ_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/session.h"
#include "runtime/query_result.h"
#include "runtime/relation.h"
#include "runtime/worker_pool.h"

namespace perfbench {

using vcq::Engine;
using vcq::Query;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale_factor = 1.0;
  std::string spans_path;  // traced runs write their spans here
  std::string commit = "n/a";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Spans. Every per-layer timing is the duration of a span this benchmark
// records around one call into a public function of a src/ module; the
// engine's own QueryTrace is never read. Disabled recorders cost one
// branch, so untraced runs carry no recording work.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, uint64_t op)
        : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      span_.name = std::move(name);
      span_.op = op;
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      span_.end_ns = NowNs();
      tracer_->Add(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  void Add(Span span);
  /// Durations (ns) of every span named `name`, in recording order.
  std::vector<double> DurationsNs(std::string_view name) const;
  uint64_t NextOp() { return next_op_++; }
  size_t size() const;
  /// Chrome-trace JSON ("X" events, µs) of every recorded span.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_op_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);
double Geomean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Substitution parameters (TPC-H spec §2.4, SSB query flights), drawn from
// a seeded generator and applied with PreparedQuery::Set.
// ---------------------------------------------------------------------------
struct Binding {
  std::string name;
  std::variant<int64_t, std::string> value;
};
using Bindings = std::vector<Binding>;

using Rng = std::mt19937_64;
Bindings DrawBindings(Query query, Rng& rng);
void Apply(const Bindings& bindings, vcq::PreparedQuery& prepared);
std::string ToString(const Bindings& bindings);

/// "q9", "ssb-q1.1": the metric-name form of a catalog query.
std::string MetricName(Query query);
const std::vector<Query>& AllQueries();

// ---------------------------------------------------------------------------
// Result check: byte identity with a reference from another path.
// ---------------------------------------------------------------------------
/// Empty when `got` succeeded and equals `want` (column names, every row
/// in order); otherwise a one-line description of the failure or of the
/// first difference.
std::string CheckResult(const vcq::runtime::QueryResult& got,
                        const vcq::runtime::QueryResult& want);

// ---------------------------------------------------------------------------
// Set-up: generated databases, one shared worker pool, and one session
// per database (the sessions share the pool).
// ---------------------------------------------------------------------------
struct Env {
  vcq::runtime::Database tpch;
  vcq::runtime::Database ssb;
  std::unique_ptr<vcq::runtime::WorkerPool> pool;
  std::unique_ptr<vcq::Session> tpch_session;
  std::unique_ptr<vcq::Session> ssb_session;

  const vcq::runtime::Database& db(Query q) const {
    return vcq::IsSsbQuery(q) ? ssb : tpch;
  }
  vcq::Session& session(Query q) const {
    return vcq::IsSsbQuery(q) ? *ssb_session : *tpch_session;
  }
};

/// Generates both databases (spans "datagen.GenerateTpch"/"...Ssb") and
/// opens the pool and sessions.
std::unique_ptr<Env> MakeEnv(double scale_factor, Tracer* tracer);

vcq::runtime::QueryOptions ThreadsOpt(size_t threads);

// ---------------------------------------------------------------------------
// Outcome bookkeeping shared by workloads and probes.
// ---------------------------------------------------------------------------
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions

  /// Counts one operation; `error` empty means it succeeded and checked.
  void Record(const std::string& error);
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// What one timed pass of a workload measured.
struct Pass {
  std::vector<double> lat_ms;  // the operations behind p50/p95
  std::map<std::string, std::vector<double>> kind_ms;  // per query kind
  uint64_t completed = 0;  // closed-loop executions behind qps
  double window_s = 0;     // closed-loop measuring time
  std::vector<double> dispatch_ms;  // async: due-to-done minus wall_ns
  std::vector<double> lag_ms;       // open-loop generator lateness
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up: prepares every query the workload uses, executes each once.
  virtual void Prepare(Env& env, Tally& tally) = 0;
  /// Untimed: a reference result for every (query, binding) it can draw.
  virtual void Reference(Env& env, Tally& tally) = 0;
  /// One timed pass of `seconds`; `pass_id` varies the seeded order.
  virtual Pass Run(Env& env, double seconds, uint64_t pass_id,
                   Tracer* tracer, Tally& tally) = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// The mixed_tenants shape replayed for the api and runtime scheduler
/// probes: a pass of `seconds` (its dispatch_ms and lag_ms), then empty
/// 4-wide regions, idle and under the analyst load (spans
/// "runtime.WorkerPool.Run.empty.{idle,loaded}").
Pass ProbeUnderAnalystLoad(Env& env, uint64_t seed, double seconds,
                           Tracer& tracer, Tally& tally);

/// Every per-layer metric except bench.trace_overhead_pct.
void RunProbes(const Options& opt, Env& env, Tracer& tracer, Tally& tally,
               Metrics& out);

}  // namespace perfbench

#endif  // VCQ_PERFBENCH_BENCH_H_
