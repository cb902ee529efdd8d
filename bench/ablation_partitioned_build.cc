// Ablation: the join build/probe memory path. Axes:
//   * build protocol — the CAS pass every in-memory build uses vs the
//     spill-replay protocol (runtime::JoinBuild, BuildMode::kPartitioned):
//     a one-pass radix scatter into a partition-major arena, then plain-
//     store linking per partition. Replay is timed on in-memory rows, so
//     the numbers exclude spill-file I/O and show the protocol's own cost;
//   * chain layout — CAS leaves entries scattered across worker MemPool
//     chunks, replay places each chain inside its partition's arena
//     segment;
//   * probe staging — findCandidates vs the prefetch-staged
//     JoinCandidatesStaged (relaxed operator fusion, paper §9.1);
// swept over build-side cardinality (Fig. 9-style working-set axis). The
// paper's Tab. 1/Fig. 4 finding is that exactly this path dominates the
// join queries once the table leaves the caches.

#include <cstddef>
#include <cstdio>
#include <random>
#include <vector>

#include "benchutil/bench.h"
#include "runtime/hash.h"
#include "runtime/hashmap.h"
#include "runtime/mem_pool.h"
#include "runtime/worker_pool.h"
#include "tectorwise/primitives.h"

namespace {

using namespace vcq;
using runtime::BuildMode;
using runtime::EntryChunkList;
using runtime::Hashmap;
using runtime::JoinBuild;
using tectorwise::pos_t;

constexpr size_t kBatch = 4096;

struct Entry {
  Hashmap::EntryHeader header;
  int64_t key;
  int64_t payload;
};

/// Build-side rows pre-materialized into per-worker chunk lists, so the
/// measured region is exactly the insert protocol (what JoinBuild::Run
/// does), not the materialize phase.
struct BuildInput {
  explicit BuildInput(size_t entries, size_t workers) : lists(workers) {
    constexpr size_t kChunkRows = 1024;
    for (size_t w = 0; w < workers; ++w) {
      const size_t begin = w * entries / workers;
      const size_t end = (w + 1) * entries / workers;
      for (size_t at = begin; at < end; at += kChunkRows) {
        const size_t rows = std::min(kChunkRows, end - at);
        auto* block =
            static_cast<Entry*>(pool.Allocate(rows * sizeof(Entry)));
        for (size_t k = 0; k < rows; ++k) {
          const auto key = static_cast<int64_t>(at + k);
          block[k].header.next = nullptr;
          block[k].header.hash =
              runtime::HashMurmur2(static_cast<uint64_t>(key));
          block[k].key = key;
          block[k].payload = key * 3;
        }
        lists[w].Add(reinterpret_cast<std::byte*>(block), rows);
      }
    }
  }

  /// All rows as a single worker's chunk list (single-threaded builds).
  EntryChunkList Merged() const {
    EntryChunkList all;
    for (const EntryChunkList& list : lists) {
      for (const auto& [base, rows] : list.chunks) all.Add(base, rows);
    }
    return all;
  }

  runtime::MemPool pool;
  std::vector<EntryChunkList> lists;
};

double MeasureBuild(const BuildInput& input, BuildMode mode, size_t threads,
                    int reps) {
  return benchutil::Measure(
             [&] {
               Hashmap ht;
               JoinBuild build(&ht, threads);
               runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
                 EntryChunkList chunks = threads == 1
                                             ? input.Merged()
                                             : input.lists[wid];
                 build.Run(mode, std::move(chunks), sizeof(Entry));
               });
             },
             reps)
      .ms;
}

/// One built table (either protocol) plus the probe working set.
struct Probe {
  Probe(const BuildInput& input, BuildMode mode, size_t entries)
      : build(&ht, 1), hashes(kBatch), pos(kBatch), keys(kBatch),
        cand(kBatch), cand_pos(kBatch), match(kBatch), hits(kBatch),
        hit_pos(kBatch) {
    build.Run(mode, input.Merged(), sizeof(Entry));
    rng.seed(42 + entries);
    range = 2 * entries;  // ~50% hit rate
  }

  /// Hashes one fresh batch and resolves it through the full candidate /
  /// compare / advance loop; returns the hit count (kept live).
  size_t Batch(bool staged) {
    for (size_t k = 0; k < kBatch; ++k) {
      keys[k] = static_cast<int64_t>(rng() % range);
      hashes[k] = runtime::HashMurmur2(static_cast<uint64_t>(keys[k]));
      pos[k] = static_cast<pos_t>(k);
    }
    size_t m = staged
                   ? tectorwise::JoinCandidatesStaged(
                         kBatch, hashes.data(), pos.data(), ht, cand.data(),
                         cand_pos.data())
                   : tectorwise::JoinCandidates(kBatch, hashes.data(),
                                                pos.data(), ht, cand.data(),
                                                cand_pos.data());
    size_t hit_count = 0;
    while (m > 0) {
      tectorwise::CmpEntryKeyInit<int64_t>(m, cand.data(), cand_pos.data(),
                                           keys.data(),
                                           offsetof(Entry, key),
                                           match.data());
      m = tectorwise::ExtractHitsAdvance(m, cand.data(), cand_pos.data(),
                                         match.data(), hits.data(),
                                         hit_pos.data(), hit_count);
    }
    return hit_count;
  }

  Hashmap ht;
  JoinBuild build;
  std::mt19937_64 rng;
  uint64_t range = 1;
  std::vector<uint64_t> hashes;
  std::vector<pos_t> pos;
  std::vector<int64_t> keys;
  std::vector<Hashmap::EntryHeader*> cand;
  std::vector<pos_t> cand_pos;
  std::vector<uint8_t> match;
  std::vector<Hashmap::EntryHeader*> hits;
  std::vector<pos_t> hit_pos;
};

double MeasureProbe(Probe& probe, bool staged, size_t batches, int reps) {
  volatile size_t sink = 0;
  return benchutil::Measure(
             [&] {
               size_t total = 0;
               for (size_t b = 0; b < batches; ++b)
                 total += probe.Batch(staged);
               sink = total;
             },
             reps)
      .ms;
}

}  // namespace

int main() {
  const int reps = benchutil::EnvReps(3);
  const size_t threads = benchutil::EnvThreads(0);
  benchutil::PrintHeader(
      "Ablation: CAS build vs spill-replay build + prefetch-staged probes",
      "join queries are bound by the hash-table memory path (Tab. 1, "
      "Fig. 4); ROF prefetching hides it (Sec. 9.1)",
      "threads=" + std::to_string(threads) +
          "; CAS=lock-free in-place inserts (every in-memory build), "
          "replay=radix scatter + per-partition linking (spilled builds, "
          "timed without spill I/O)");

  std::vector<size_t> entry_counts = {1 << 14, 1 << 16, 1 << 18, 1 << 20,
                                      1 << 22};
  if (benchutil::Quick()) entry_counts = {1 << 12, 1 << 14};

  benchutil::Table table({"entries", "ws_MB", "cas b1 ms", "replay b1 ms",
                          "cas bT ms", "replay bT ms", "replay/cas bT",
                          "probe cas ms", "probe replay ms",
                          "replay+stage ms", "stage spdup"});
  for (const size_t entries : entry_counts) {
    BuildInput input(entries, threads);

    const double cas1 = MeasureBuild(input, BuildMode::kCas, 1, reps);
    const double replay1 =
        MeasureBuild(input, BuildMode::kPartitioned, 1, reps);
    const double cas_t = MeasureBuild(input, BuildMode::kCas, threads, reps);
    const double replay_t =
        MeasureBuild(input, BuildMode::kPartitioned, threads, reps);

    Probe cas_probe(input, BuildMode::kCas, entries);
    Probe replay_probe(input, BuildMode::kPartitioned, entries);
    const size_t batches = std::max<size_t>(1, entries / kBatch) * 4;
    const double p_cas = MeasureProbe(cas_probe, false, batches, reps);
    const double p_replay = MeasureProbe(replay_probe, false, batches, reps);
    const double p_staged = MeasureProbe(replay_probe, true, batches, reps);

    const double ws_mb =
        static_cast<double>(cas_probe.ht.capacity() * sizeof(void*) +
                            entries * sizeof(Entry)) /
        (1 << 20);
    table.AddRow({std::to_string(entries), benchutil::Fmt(ws_mb, 1),
                  benchutil::Fmt(cas1, 2), benchutil::Fmt(replay1, 2),
                  benchutil::Fmt(cas_t, 2), benchutil::Fmt(replay_t, 2),
                  benchutil::Fmt(replay_t / cas_t, 2),
                  benchutil::Fmt(p_cas, 2), benchutil::Fmt(p_replay, 2),
                  benchutil::Fmt(p_staged, 2),
                  benchutil::Fmt(p_replay / p_staged, 2)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: CAS builds faster than replay except on the "
      "smallest tables (replay/cas > 1: replay copies every row once "
      "more, which is why only spilled builds use it), the two layouts "
      "probe at similar cost, and staged probes win once the working "
      "set exceeds the LLC (prefetches hide the two dependent misses per "
      "lookup).\n");
  return 0;
}
