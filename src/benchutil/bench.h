#ifndef VCQ_BENCHUTIL_BENCH_H_
#define VCQ_BENCHUTIL_BENCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/vcq.h"
#include "runtime/perf_counters.h"

// Measurement harness shared by all bench binaries (one binary per paper
// table/figure; the binaries are listed in CMakeLists.txt). Configuration
// via environment:
//   VCQ_SF       scale factor            (default per bench)
//   VCQ_REPS     repetitions per cell    (median reported)
//   VCQ_THREADS  max worker threads
//   VCQ_QUICK=1  CI-sized run
// Counter columns print "n/a" when the kernel denies perf events.
//
// Every per-phase number comes from the measured run's QueryTrace
// (runtime/trace.h), the same record EXPLAIN ANALYZE reads.

namespace vcq::benchutil {

struct Measurement {
  double ms = 0;                        // median wall time
  runtime::PerfCounters::Values counters;  // from the instrumented run
  size_t tuples = 0;                    // normalization base (paper §3.4)

  // Build/probe split of the median `ms`: the instrumented (traced) run
  // gives the build share — its join-build spans (one per hash table,
  // sizing barrier to final barrier; spans of distinct builds never
  // overlap, so nested build-side joins are not double-counted, and
  // materialize-phase skew is excluded) over its wall time — and build_ms
  // is that share of `ms`; probe_ms is the rest, so build_ms + probe_ms ==
  // ms. For queries without hash joins build_ms is 0 and probe_ms is `ms`.
  double build_ms = 0;
  double probe_ms = 0;

  double CyclesPerTuple() const;
  double InstructionsPerTuple() const;
};

/// Runs `fn` reps times and returns the median wall time (`ms` only).
Measurement Measure(const std::function<void()>& fn, int reps);

/// Measures one query end to end: the median of `reps` runs as configured,
/// then one traced run for the hardware counters and the build/probe split.
/// `tuples` normalization = sum of scanned table cardinalities for that
/// query (paper §3.4).
Measurement MeasureQuery(const runtime::Database& db, Engine engine,
                         Query query, const runtime::QueryOptions& opt,
                         int reps);

/// Sum of base-table cardinalities scanned by `query` (paper §3.4
/// normalization).
size_t TuplesScanned(const runtime::Database& db, Query query);

/// Prints the standard bench banner: what paper artifact this reproduces,
/// the paper's setup, and this run's setup.
void PrintHeader(const std::string& title, const std::string& paper_setup,
                 const std::string& this_setup);

/// Minimal fixed-width table printer for paper-style output.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats helpers.
std::string Fmt(double v, int decimals = 1);
std::string FmtCounter(double v, int decimals = 1);  // "n/a" for NaN

double EnvSf(double default_sf);
int EnvReps(int default_reps);
size_t EnvThreads(size_t default_threads);
bool Quick();

}  // namespace vcq::benchutil

#endif  // VCQ_BENCHUTIL_BENCH_H_
