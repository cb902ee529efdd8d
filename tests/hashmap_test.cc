#include "runtime/hashmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "runtime/hash.h"
#include "runtime/mem_pool.h"
#include "runtime/options.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/worker_pool.h"
#include "typer/join_table.h"

namespace vcq::runtime {
namespace {

struct TestEntry {
  Hashmap::EntryHeader header;
  int64_t key;
  int64_t value;
};

TestEntry* MakeEntry(MemPool& pool, int64_t key, int64_t value) {
  auto* e = pool.Create<TestEntry>();
  e->header.next = nullptr;
  e->header.hash = HashMurmur2(static_cast<uint64_t>(key));
  e->key = key;
  e->value = value;
  return e;
}

const TestEntry* Find(const Hashmap& ht, int64_t key) {
  const uint64_t h = HashMurmur2(static_cast<uint64_t>(key));
  for (auto* e = ht.FindChainTagged(h); e != nullptr; e = e->next) {
    const auto* te = reinterpret_cast<const TestEntry*>(e);
    if (e->hash == h && te->key == key) return te;
  }
  return nullptr;
}

TEST(HashmapTest, InsertFindRoundTrip) {
  Hashmap ht;
  ht.SetSize(1000);
  MemPool pool;
  for (int64_t k = 0; k < 1000; ++k)
    ht.InsertUnlocked(&MakeEntry(pool, k, k * 10)->header);
  for (int64_t k = 0; k < 1000; ++k) {
    const TestEntry* e = Find(ht, k);
    ASSERT_NE(e, nullptr) << "key " << k;
    EXPECT_EQ(e->value, k * 10);
  }
  EXPECT_EQ(Find(ht, 5000), nullptr);
}

TEST(HashmapTest, TagNeverProducesFalseNegatives) {
  // The Bloom tag may let non-members through (false positives are fine)
  // but must never hide an inserted key.
  Hashmap ht;
  ht.SetSize(64);  // tiny: long chains, heavily shared buckets
  MemPool pool;
  for (int64_t k = 0; k < 4096; ++k)
    ht.InsertUnlocked(&MakeEntry(pool, k, k)->header);
  for (int64_t k = 0; k < 4096; ++k)
    ASSERT_NE(Find(ht, k), nullptr) << "key " << k;
}

TEST(HashmapTest, TagFiltersMostMisses) {
  Hashmap ht;
  ht.SetSize(1 << 14);
  MemPool pool;
  for (int64_t k = 0; k < 1000; ++k)
    ht.InsertUnlocked(&MakeEntry(pool, k, k)->header);
  // With load factor << 1 and 16 tag bits, most absent keys must be
  // rejected without chain traversal.
  int filtered = 0;
  constexpr int kProbes = 10000;
  for (int64_t k = 1000000; k < 1000000 + kProbes; ++k) {
    if (ht.FindChainTagged(HashMurmur2(static_cast<uint64_t>(k))) == nullptr)
      ++filtered;
  }
  EXPECT_GT(filtered, kProbes * 9 / 10);
}

TEST(HashmapTest, DuplicateKeysChainTogether) {
  Hashmap ht;
  ht.SetSize(100);
  MemPool pool;
  for (int64_t v = 0; v < 5; ++v)
    ht.InsertUnlocked(&MakeEntry(pool, 7, v)->header);
  const uint64_t h = HashMurmur2(7);
  int matches = 0;
  for (auto* e = ht.FindChainTagged(h); e != nullptr; e = e->next) {
    if (e->hash == h && reinterpret_cast<TestEntry*>(e)->key == 7) ++matches;
  }
  EXPECT_EQ(matches, 5);
}

TEST(HashmapTest, ConcurrentInsertIsLossless) {
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  Hashmap ht;
  ht.SetSize(kThreads * kPerThread);
  std::vector<MemPool> pools(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        const int64_t key = t * kPerThread + i;
        ht.Insert(&MakeEntry(pools[t], key, key)->header);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int64_t key = 0; key < kThreads * kPerThread; ++key)
    ASSERT_NE(Find(ht, key), nullptr) << "lost key " << key;
}

TEST(HashmapTest, ClearEmptiesTable) {
  Hashmap ht;
  ht.SetSize(100);
  MemPool pool;
  ht.InsertUnlocked(&MakeEntry(pool, 1, 1)->header);
  ASSERT_NE(Find(ht, 1), nullptr);
  ht.Clear();
  EXPECT_EQ(Find(ht, 1), nullptr);
}

TEST(HashmapTest, CapacityIsPowerOfTwoAndAmple) {
  Hashmap ht;
  ht.SetSize(1000);
  EXPECT_GE(ht.capacity(), 2000u);
  EXPECT_EQ(ht.capacity() & (ht.capacity() - 1), 0u);
}

// --- JoinBuild: CAS vs partitioned (spill-replay) build equivalence ---------

/// Materializes `total` entries (keys 0..total-1, every 7th key duplicated)
/// into per-worker chunk lists carved from `pool`.
std::vector<EntryChunkList> MakeChunkLists(MemPool& pool, size_t total,
                                           size_t workers) {
  constexpr size_t kRows = 64;  // small chunks: exercise chunk boundaries
  std::vector<EntryChunkList> lists(workers);
  for (size_t w = 0; w < workers; ++w) {
    const size_t begin = w * total / workers;
    const size_t end = (w + 1) * total / workers;
    for (size_t at = begin; at < end; at += kRows) {
      const size_t rows = std::min(kRows, end - at);
      auto* block = static_cast<TestEntry*>(
          pool.Allocate(rows * sizeof(TestEntry)));
      for (size_t k = 0; k < rows; ++k) {
        const size_t i = at + k;
        const int64_t key =
            static_cast<int64_t>(i % 7 == 0 ? i / 7 : i);  // some duplicates
        block[k].header.next = nullptr;
        block[k].header.hash = HashMurmur2(static_cast<uint64_t>(key));
        block[k].key = key;
        block[k].value = static_cast<int64_t>(i);
      }
      lists[w].Add(reinterpret_cast<std::byte*>(block), rows);
    }
  }
  return lists;
}

/// Per-bucket multiset of (hash, key, value) plus the tag bits — everything
/// a probe can observe, independent of chain order and entry placement.
std::map<size_t, std::vector<std::tuple<uint64_t, int64_t, int64_t>>>
BucketContents(const Hashmap& ht) {
  std::map<size_t, std::vector<std::tuple<uint64_t, int64_t, int64_t>>> out;
  for (size_t b = 0; b < ht.capacity(); ++b) {
    for (auto* e = Hashmap::Ptr(ht.buckets()[b].load()); e != nullptr;
         e = e->next) {
      const auto* te = reinterpret_cast<const TestEntry*>(e);
      out[b].emplace_back(e->hash, te->key, te->value);
    }
    if (out.count(b)) std::sort(out[b].begin(), out[b].end());
  }
  return out;
}

std::vector<uintptr_t> BucketTags(const Hashmap& ht) {
  std::vector<uintptr_t> tags(ht.capacity());
  for (size_t b = 0; b < ht.capacity(); ++b)
    tags[b] = ht.buckets()[b].load() & ~Hashmap::kPtrMask;
  return tags;
}

/// A copy of `lists` whose first half of chunks (per worker) lives in a
/// real spill file instead of memory: the shape a build has after spilling
/// under pressure (spilled segments, then the live tail).
std::vector<EntryChunkList> SpillFirstHalf(
    const std::vector<EntryChunkList>& lists, SpillManager& spill) {
  std::vector<EntryChunkList> out(lists.size());
  for (size_t w = 0; w < lists.size(); ++w) {
    const auto& chunks = lists[w].chunks;
    const size_t half = chunks.size() / 2;
    for (size_t c = 0; c < half; ++c)
      out[w].Add(chunks[c].first, chunks[c].second);
    out[w].SpillTo(spill.Create("hashmap_test"), sizeof(TestEntry));
    for (size_t c = half; c < chunks.size(); ++c)
      out[w].Add(chunks[c].first, chunks[c].second);
  }
  return out;
}

class JoinBuildTest : public ::testing::TestWithParam<size_t> {};

// Large enough that the directory splits into several partitions (more
// than some thread counts, fewer than others).
constexpr size_t kMultiPartitionRows = 70000;

TEST_P(JoinBuildTest, PartitionedMatchesCasChains) {
  const size_t threads = GetParam();
  MemPool pool;
  const auto lists = MakeChunkLists(pool, kMultiPartitionRows, threads);
  SpillManager spill(0, nullptr, nullptr);
  const auto spilled = SpillFirstHalf(lists, spill);
  ASSERT_GT(spill.spilled_bytes(), 0u);

  // The partitioned builds only read the source rows, while the CAS build
  // relinks them in place, so it runs last. The spilled input requests
  // kCas and must be upgraded to the replay protocol.
  Hashmap part_ht;
  JoinBuild part_build(&part_ht, threads);
  WorkerPool::Global().Run(threads, [&](size_t wid) {
    part_build.Run(BuildMode::kPartitioned, lists[wid], sizeof(TestEntry));
  });
  Hashmap replay_ht;
  JoinBuild replay_build(&replay_ht, threads);
  WorkerPool::Global().Run(threads, [&](size_t wid) {
    replay_build.Run(BuildMode::kCas, spilled[wid], sizeof(TestEntry));
  });
  Hashmap cas_ht;
  JoinBuild cas_build(&cas_ht, threads);
  WorkerPool::Global().Run(threads, [&](size_t wid) {
    cas_build.Run(BuildMode::kCas, lists[wid], sizeof(TestEntry));
  });

  EXPECT_FALSE(cas_build.releases_chunks());
  EXPECT_TRUE(part_build.releases_chunks());
  EXPECT_TRUE(replay_build.releases_chunks());
  EXPECT_GT(part_build.partitions(), 1u);
  const auto expected = BucketContents(cas_ht);
  const auto expected_tags = BucketTags(cas_ht);
  for (const auto* built : {&part_ht, &replay_ht}) {
    ASSERT_EQ(built->capacity(), cas_ht.capacity());
    EXPECT_EQ(BucketContents(*built), expected);
    EXPECT_EQ(BucketTags(*built), expected_tags);
  }
  EXPECT_EQ(cas_build.entry_count(), kMultiPartitionRows);
  EXPECT_EQ(part_build.entry_count(), kMultiPartitionRows);
  EXPECT_EQ(replay_build.entry_count(), kMultiPartitionRows);
}

TEST_P(JoinBuildTest, PartitionedChainsStayInTheirPartitionSegment) {
  const size_t threads = GetParam();
  MemPool pool;
  const auto lists = MakeChunkLists(pool, kMultiPartitionRows, threads);
  Hashmap ht;
  JoinBuild build(&ht, threads);
  WorkerPool::Global().Run(threads, [&](size_t wid) {
    build.Run(BuildMode::kPartitioned, lists[wid], sizeof(TestEntry));
  });
  // The partition segments tile the arena in partition order.
  ASSERT_GT(build.partitions(), 1u);
  size_t next_row = 0;
  for (size_t p = 0; p < build.partitions(); ++p) {
    const auto [first, last] = build.PartitionRows(p);
    EXPECT_EQ(first, next_row) << "partition " << p;
    EXPECT_LE(first, last);
    next_row = last;
  }
  EXPECT_EQ(next_row, kMultiPartitionRows);
  // Every chain entry is an arena row inside the segment of the partition
  // that owns its bucket — the invariant that lets one worker link each
  // partition with plain stores.
  const std::byte* arena = build.arena();
  ASSERT_NE(arena, nullptr);
  size_t seen = 0;
  for (size_t b = 0; b < ht.capacity(); ++b) {
    const auto [first, last] = build.PartitionRows(build.PartitionOf(b));
    for (auto* e = Hashmap::Ptr(ht.buckets()[b].load()); e != nullptr;
         e = e->next) {
      ++seen;
      const auto* p = reinterpret_cast<const std::byte*>(e);
      ASSERT_GE(p, arena);
      const auto offset = static_cast<size_t>(p - arena);
      ASSERT_EQ(offset % sizeof(TestEntry), 0u);
      const size_t row = offset / sizeof(TestEntry);
      ASSERT_GE(row, first) << "bucket " << b;
      ASSERT_LT(row, last) << "bucket " << b;
    }
  }
  EXPECT_EQ(seen, kMultiPartitionRows);
}

TEST_P(JoinBuildTest, EmptyBuildSide) {
  const size_t threads = GetParam();
  for (const BuildMode mode : {BuildMode::kCas, BuildMode::kPartitioned}) {
    Hashmap ht;
    JoinBuild build(&ht, threads);
    WorkerPool::Global().Run(threads, [&](size_t) {
      build.Run(mode, EntryChunkList{}, sizeof(TestEntry));
    });
    EXPECT_EQ(build.entry_count(), 0u);
    EXPECT_EQ(ht.FindChainTagged(HashMurmur2(7)), nullptr);
  }
}

// 7 exercises a thread count that divides neither the partition count nor
// the power-of-two capacity.
INSTANTIATE_TEST_SUITE_P(Threads, JoinBuildTest,
                         ::testing::Values(size_t{1}, size_t{4}, size_t{7}));

// --- materialize-chunk ownership: CAS keeps, spill replay releases ---------

TEST(JoinBuildChunkReleaseTest, CasKeepsChunksSpilledBuildReleasesThem) {
  // A CAS build links entries in place, so the per-worker MemPool chunks
  // must survive for the probes. A spilled build is replayed into
  // JoinBuild's own arena, so the engines must free the chunks instead of
  // carrying them through the probe phase. Checked via the process-wide
  // MemPool byte counter.
  constexpr size_t kEntries = 200000;
  constexpr size_t kThreads = 4;
  const auto produce = [](size_t wid, auto emit) {
    for (size_t i = wid; i < kEntries; i += kThreads) {
      TestEntry e;
      e.header.next = nullptr;
      e.header.hash = HashMurmur2(static_cast<uint64_t>(i));
      e.key = static_cast<int64_t>(i);
      e.value = static_cast<int64_t>(i) * 3;
      emit(e);
    }
  };
  using Table = typer::JoinTable<TestEntry>;
  const auto expect_probeable = [&](const Table& table) {
    EXPECT_EQ(table.size(), kEntries);
    for (int64_t key : {int64_t{0}, int64_t{77}, int64_t{12345},
                        int64_t{199999}}) {
      const TestEntry* e = table.Lookup(
          HashMurmur2(static_cast<uint64_t>(key)),
          [&](const TestEntry& t) { return t.key == key; });
      ASSERT_NE(e, nullptr) << "key " << key;
      EXPECT_EQ(e->value, key * 3);
    }
  };

  QueryOptions opt;
  opt.threads = kThreads;
  const size_t before = MemPool::live_bytes();
  Table cas(opt);
  cas.Build(produce);
  EXPECT_GE(MemPool::live_bytes() - before, kEntries * sizeof(TestEntry))
      << "CAS chains live in the materialize chunks; they must survive";
  expect_probeable(cas);

  // A spill-mode ledger far below the build's size: every chunk boundary
  // is under pressure, so each worker spills all but its last chunk.
  QueryLedger ledger(64 << 10, nullptr);
  ledger.EnableSpillMode();
  SpillManager spill(0, nullptr, nullptr);
  QueryOptions spill_opt = opt;
  spill_opt.ledger = &ledger;
  spill_opt.spill_manager = &spill;
  const size_t before_spilled = MemPool::live_bytes();
  {
    Table spilled(spill_opt);
    spilled.Build(produce);
    EXPECT_GT(spill.spilled_bytes(), 0u);
    EXPECT_EQ(MemPool::live_bytes(), before_spilled)
        << "a spilled build must release its materialize-phase chunks";
    expect_probeable(spilled);
  }
  EXPECT_EQ(ledger.in_use(), 0u);
}

TEST(MemPoolTest, AllocationsAlignedAndDistinct) {
  MemPool pool(1024);
  void* a = pool.Allocate(10);
  void* b = pool.Allocate(10);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
}

TEST(MemPoolTest, LargeAllocationExceedingChunk) {
  MemPool pool(1024);
  void* big = pool.Allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 1 << 20);  // must be writable end to end
}

TEST(MemPoolTest, ReleaseIsIdempotent) {
  // The failure-containment invariant: Release() is called from both the
  // normal drain path and the unwind backstop, so calling it any number of
  // times must release the pool's bytes exactly once — live_bytes() lands
  // on the baseline and stays there, never underflowing.
  const size_t baseline = MemPool::live_bytes();
  MemPool pool(1024);
  pool.Allocate(4096);
  EXPECT_GT(pool.owned_bytes(), 0u);
  EXPECT_GT(MemPool::live_bytes(), baseline);
  pool.Release();
  EXPECT_EQ(pool.owned_bytes(), 0u);
  EXPECT_EQ(MemPool::live_bytes(), baseline);
  pool.Release();  // second (unwind-path) release: a no-op
  pool.Release();
  EXPECT_EQ(pool.owned_bytes(), 0u);
  EXPECT_EQ(MemPool::live_bytes(), baseline);
  // The pool is still usable after a release cycle.
  void* p = pool.Allocate(16);
  EXPECT_NE(p, nullptr);
  pool.Release();
  EXPECT_EQ(MemPool::live_bytes(), baseline);
}

TEST(MemPoolTest, ManySmallAllocationsDoNotOverlap) {
  MemPool pool(4096);
  std::vector<int64_t*> ptrs;
  for (int i = 0; i < 10000; ++i) {
    auto* p = static_cast<int64_t*>(pool.Allocate(sizeof(int64_t)));
    *p = i;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(*ptrs[i], i);
}

}  // namespace
}  // namespace vcq::runtime
