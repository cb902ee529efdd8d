// perfbench: the repository benchmark. One process sets up the databases
// and sessions, runs one workload through the public vcq::Session API,
// checks every result against a reference from another path, and prints
// its metrics as the last stdout line, one JSON object:
//
//   perfbench --workload prepared_olap|sql_adhoc|mixed_tenants --seed N
//             --seconds S --trace 0|1 [--sf F] [--spans PATH] [--commit SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and traced (half of S each, in alternating segments), then the
// per-layer probes, writes the spans to PATH and reports the per-layer
// metrics. The exit code is non-zero when any operation failed, returned a
// wrong result, or a metric came out non-finite.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "common/cpu_info.h"
#include "runtime/perf_counters.h"
#include "runtime/resource_governor.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Traced runs alternate untraced and traced segments of the workload, in
// the order U T T U with one operation order per pair, so that neither
// host drift nor the order's mix favours one side.
constexpr bool kTracedSegment[] = {false, true, true, false};

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::atoi(value) != 0;
    } else if (key == "--sf") {
      opt.scale_factor = std::atof(value);
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else if (key == "--commit") {
      opt.commit = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0 &&
         opt.scale_factor > 0;
}

// Host record: what the figures depend on besides the code.
void PrintHost(const Options& opt) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const bool counters = vcq::runtime::PerfCounters().available();
  std::printf(
      "host {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"scale_factor\": %g, \"setups\": %d, \"nproc\": %u, "
      "\"l2_bytes\": %ld, \"l3_bytes\": %ld, \"avx512\": %s, "
      "\"perf_counters\": \"%s\", \"commit\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.scale_factor, kSetups,
      std::thread::hardware_concurrency(), l2, l3,
      vcq::CpuInfo::HasAvx512() ? "true" : "false",
      counters ? "available" : "n/a", opt.commit.c_str());
}

/// Prints the result line. A non-finite metric is not JSON; it is left
/// out, and the caller has counted it as a failure.
void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.first)) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.first);
    out += (first ? "" : ", ") + std::string("\"") + name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metric.second +
           "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// The end-to-end metrics of one untraced pass.
void PutEndToEnd(const Pass& pass, const std::vector<double>& setup_s,
                 const Tally& tally, Metrics& out) {
  std::vector<double> kind_medians;
  for (const auto& [kind, ms] : pass.kind_ms) kind_medians.push_back(Median(ms));
  out["setup_s"] = {Median(setup_s), "s"};
  out["qps"] = {pass.completed / pass.window_s, "1/s"};
  out["geomean_ms"] = {Geomean(kind_medians), "ms"};
  out["latency_p50_ms"] = {Percentile(pass.lat_ms, 50), "ms"};
  out["latency_p95_ms"] = {Percentile(pass.lat_ms, 95), "ms"};
  out["peak_query_mb"] = {
      vcq::runtime::ResourceGovernor::Global().peak() / (1024.0 * 1024.0),
      "MB"};
  out["success_ratio"] = {
      1.0 - static_cast<double>(tally.failed) / std::max<uint64_t>(1, tally.attempted),
      "ratio"};
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--sf F] [--spans PATH] "
                 "[--commit SHA]\n");
    return 2;
  }
  if (MakeWorkload(opt.workload, opt.seed) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  PrintHost(opt);

  Tracer tracer(opt.trace);
  Tally tally;
  Metrics metrics;
  std::unique_ptr<Env> env;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();  // its handles and sessions go before their database
    env.reset();
    const uint64_t start = NowNs();
    env = MakeEnv(opt.scale_factor, &tracer);
    workload = MakeWorkload(opt.workload, opt.seed);
    workload->Prepare(*env, tally);
    setup_s.push_back((NowNs() - start) / 1e9);
  }
  workload->Reference(*env, tally);
  vcq::runtime::ResourceGovernor::Global().ResetPeak();

  if (!opt.trace) {
    const Pass pass = workload->Run(*env, opt.seconds, 0, nullptr, tally);
    PutEndToEnd(pass, setup_s, tally, metrics);
    std::fprintf(stderr, "perfbench: %zu timed operations (%zu behind p50/p95)\n",
                 static_cast<size_t>(pass.completed), pass.lat_ms.size());
    for (const auto& [kind, ms] : pass.kind_ms) {
      std::fprintf(stderr, "perfbench: %-22s n=%3zu median %9.3f ms\n",
                   kind.c_str(), ms.size(), Median(ms));
    }
  } else {
    double completed[2] = {0, 0}, window_s[2] = {0, 0};  // untraced, traced
    const double segment_s = opt.seconds / std::size(kTracedSegment);
    for (size_t i = 0; i < std::size(kTracedSegment); ++i) {
      const bool traced = kTracedSegment[i];
      const Pass pass = workload->Run(*env, segment_s, i / 2,
                                      traced ? &tracer : nullptr, tally);
      completed[traced] += pass.completed;
      window_s[traced] += pass.window_s;
    }
    RunProbes(opt, *env, tracer, tally, metrics);
    const double qps_u = completed[0] / window_s[0];
    const double qps_t = completed[1] / window_s[1];
    metrics["bench.trace_overhead_pct"] = {(qps_u / qps_t - 1) * 100, "%"};
    if (!opt.spans_path.empty() && !tracer.WriteJson(opt.spans_path)) {
      tally.Record("cannot write spans to " + opt.spans_path);
    }
    std::fprintf(stderr, "perfbench: %zu spans\n", tracer.size());
  }
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.first)) tally.Record(name + " is not finite");
  }
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
  PrintResult(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
