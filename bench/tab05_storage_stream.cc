// Table 5 (substitution): out-of-memory execution. The paper
// streams SF=100 tables from a 1.4 GB/s SATA-SSD RAID; here the working
// set is spilled to a file and replayed through a bandwidth-capped loader
// concurrently with the query. Reported runtime is the completed overlap
// of compute and I/O (the query finishes no earlier than its data): an
// idealized fully-overlapped streaming model.

#include <chrono>
#include <cstdio>
#include <vector>

#include "benchutil/bench.h"
#include "common/env_util.h"
#include "datagen/tpch.h"
#include "runtime/throttled_source.h"

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  using namespace vcq;
  const double sf = benchutil::EnvSf(2.0);
  const int reps = benchutil::EnvReps(2);
  const size_t threads = benchutil::EnvThreads(0);
  const uint64_t bandwidth = static_cast<uint64_t>(
      EnvDouble("VCQ_BANDWIDTH_GBPS", 1.4) * (1ull << 30));

  benchutil::PrintHeader(
      "Table 5: streaming from secondary storage (throttled replay)",
      "SF=100, 20 threads, 3x SATA SSD RAID-5 @ 1.4 GB/s",
      "SF=" + benchutil::Fmt(sf, 2) + ", " + std::to_string(threads) +
          " threads, replay capped at " +
          benchutil::Fmt(static_cast<double>(bandwidth) / (1 << 30), 2) +
          " GB/s");

  runtime::Database db = datagen::GenerateTpch(sf);
  runtime::QueryOptions opt;
  opt.threads = threads;

  // Spill the full working set once (every column the queries scan).
  runtime::ThrottledSource source("/tmp/vcq_tab05_spill.bin", bandwidth);
  {
    // One representative byte stream of the database's size: the loader
    // replays exactly as many bytes as the tables occupy.
    std::vector<char> chunk(8 << 20, 0x5A);
    uint64_t remaining = db.byte_size();
    while (remaining > 0) {
      const uint64_t n = std::min<uint64_t>(remaining, chunk.size());
      source.Spill(chunk.data(), n);
      remaining -= n;
    }
  }
  std::printf("working set: %.2f GB -> replay floor %.0f ms\n\n",
              static_cast<double>(db.byte_size()) / (1 << 30),
              static_cast<double>(db.byte_size()) /
                  static_cast<double>(bandwidth) * 1000.0);

  benchutil::Table table({"query", "Typer ms", "TW ms", "Ratio",
                          "in-mem Typer", "in-mem TW"});
  for (Query q : TpchQueries()) {
    double typer_ms = 0, tw_ms = 0;
    for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        runtime::ThrottledSource replay("/tmp/vcq_tab05_replay.bin",
                                        bandwidth);
        // Per-query replay volume: only the tables this query scans.
        std::vector<char> chunk(8 << 20, 0x5A);
        uint64_t bytes = 0;
        // Approximate per-query scan volume by tuple share of the DB.
        bytes = db.byte_size() *
                benchutil::TuplesScanned(db, q) /
                (db["lineitem"].tuple_count() + db["orders"].tuple_count() +
                 db["customer"].tuple_count() + db["part"].tuple_count() +
                 db["partsupp"].tuple_count() +
                 db["supplier"].tuple_count());
        uint64_t remaining = bytes;
        while (remaining > 0) {
          const uint64_t n = std::min<uint64_t>(remaining, chunk.size());
          replay.Spill(chunk.data(), n);
          remaining -= n;
        }
        const double start = NowMs();
        replay.StartReplay();
        RunQuery(db, e, q, opt);
        replay.Join();  // completion = max(compute, I/O)
        best = std::min(best, NowMs() - start);
      }
      (e == Engine::kTyper ? typer_ms : tw_ms) = best;
    }
    const auto typer_mem = benchutil::MeasureQuery(db, Engine::kTyper, q,
                                                   opt, reps);
    const auto tw_mem = benchutil::MeasureQuery(db, Engine::kTectorwise, q,
                                                opt, reps);
    table.AddRow({QueryName(q), benchutil::Fmt(typer_ms, 0),
                  benchutil::Fmt(tw_ms, 0),
                  benchutil::Fmt(typer_ms / tw_ms, 2),
                  benchutil::Fmt(typer_mem.ms, 0),
                  benchutil::Fmt(tw_mem.ms, 0)});
  }
  table.Print();
  std::printf(
      "\npaper shape: engine differences shrink (Ratio moves toward 1) but "
      "remain visible; scan-dominated Q1/Q6 are hit hardest by the "
      "bandwidth cap.\n");
  return 0;
}
