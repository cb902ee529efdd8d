#include "benchutil/bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "api/query_catalog.h"
#include "common/env_util.h"
#include "runtime/trace.h"

namespace vcq::benchutil {

namespace {

double Now() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double Measurement::CyclesPerTuple() const {
  return counters.cycles / static_cast<double>(tuples);
}

double Measurement::InstructionsPerTuple() const {
  return counters.instructions / static_cast<double>(tuples);
}

Measurement Measure(const std::function<void()>& fn, int reps) {
  Measurement m;
  std::vector<double> times;
  times.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    fn();
    times.push_back(Now() - start);
  }
  std::sort(times.begin(), times.end());
  m.ms = times[times.size() / 2];
  return m;
}

size_t TuplesScanned(const runtime::Database& db, Query query) {
  return ScannedTuples(db, query);
}

Measurement MeasureQuery(const runtime::Database& db, Engine engine,
                         Query query, const runtime::QueryOptions& opt,
                         int reps) {
  // Timed reps run exactly as configured; the instrumented rep re-runs
  // with tracing on, and the build share of its wall time (from the trace
  // the session stamps into the result) splits the untraced median.
  Measurement m = Measure([&] { RunQuery(db, engine, query, opt); }, reps);
  runtime::QueryOptions traced = opt;
  traced.trace = runtime::TraceLevel::kSpans;
  runtime::PerfCounters counters;
  counters.Start();
  const runtime::QueryResult result = RunQuery(db, engine, query, traced);
  m.counters = counters.Stop();
  uint64_t build_ns = 0;
  if (result.trace != nullptr) {
    for (const runtime::TraceSpan& span : result.trace->Spans()) {
      if (span.name == runtime::QueryTrace::kJoinBuild)
        build_ns += span.duration_ns();
    }
  }
  // Join-build spans nest inside the run, so the share is within [0, 1].
  m.build_ms = m.ms * static_cast<double>(build_ns) /
               static_cast<double>(result.wall_ns);
  m.probe_ms = m.ms - m.build_ms;
  m.tuples = TuplesScanned(db, query);
  return m;
}

void PrintHeader(const std::string& title, const std::string& paper_setup,
                 const std::string& this_setup) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper setup: %s\n", paper_setup.c_str());
  std::printf("this run:    %s\n", this_setup.c_str());
  std::printf("==============================================================="
              "=================\n");
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  auto emit = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c)
      std::printf("%s%-*s", c ? "  " : "", static_cast<int>(widths[c]),
                  cells[c].c_str());
    std::printf("\n");
  };
  emit(columns_);
  size_t total = columns_.size() >= 1 ? 2 * (columns_.size() - 1) : 0;
  for (size_t w : widths) total += w;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) emit(row);
}

std::string Fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string FmtCounter(double v, int decimals) {
  if (std::isnan(v)) return "n/a";
  return Fmt(v, decimals);
}

double EnvSf(double default_sf) {
  if (Quick()) default_sf = std::min(default_sf, 0.05);
  return EnvDouble("VCQ_SF", default_sf);
}

int EnvReps(int default_reps) {
  if (Quick()) default_reps = 1;
  return static_cast<int>(EnvInt("VCQ_REPS", default_reps));
}

size_t EnvThreads(size_t default_threads) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t v = static_cast<size_t>(
      EnvInt("VCQ_THREADS", static_cast<int64_t>(
                                default_threads ? default_threads : hw)));
  return std::max<size_t>(1, v);
}

bool Quick() { return EnvFlag("VCQ_QUICK"); }

}  // namespace vcq::benchutil
