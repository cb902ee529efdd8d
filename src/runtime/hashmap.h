#ifndef VCQ_RUNTIME_HASHMAP_H_
#define VCQ_RUNTIME_HASHMAP_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "runtime/barrier.h"
#include "runtime/cancel.h"
#include "runtime/fault_injector.h"
#include "runtime/options.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/trace.h"

namespace vcq::runtime {

/// Chaining hash table shared by Typer and Tectorwise (paper §3.2): a bucket
/// array of tagged pointers plus externally allocated entries (row format,
/// MemPool). The upper 16 bits of each bucket pointer encode a small
/// Bloom-filter-like tag ("using 16 unused bits of each pointer"), so a
/// probe miss usually skips the collision chain entirely — this is what
/// makes selective joins cheap in both engines.
///
/// The table itself is key-agnostic: operators define their own entry
/// layouts that start with EntryHeader and do their own key comparisons,
/// which is precisely the paper's framing (Typer fuses the comparison into
/// the probe loop; Tectorwise runs one compare primitive per key column).
class Hashmap {
 public:
  struct EntryHeader {
    EntryHeader* next;
    uint64_t hash;
  };

  static constexpr uintptr_t kPtrMask = (uintptr_t{1} << 48) - 1;

  Hashmap() = default;
  Hashmap(const Hashmap&) = delete;
  Hashmap& operator=(const Hashmap&) = delete;

  /// Sizes the bucket array for `entry_count` entries (load factor <= 0.5).
  /// Not thread-safe; call once before the parallel build phase. Strong
  /// exception guarantee: a bad_alloc leaves the previous directory (and
  /// capacity/mask) intact, so a failed build never publishes a
  /// capacity/mask pair that disagrees with the live bucket array.
  void SetSize(size_t entry_count) {
    const size_t capacity = NextPow2(entry_count * 2);
    auto buckets = std::make_unique<std::atomic<uintptr_t>[]>(capacity);
    for (size_t i = 0; i < capacity; ++i)
      buckets[i].store(0, std::memory_order_relaxed);
    buckets_ = std::move(buckets);
    capacity_ = capacity;
    mask_ = capacity_ - 1;
  }

  void Clear() {
    for (size_t i = 0; i < capacity_; ++i)
      buckets_[i].store(0, std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// Bloom tag derived from the hash's top 4 bits: one of 16 bits in the
  /// pointer's upper 16 bits.
  static uintptr_t TagOf(uint64_t hash) {
    return uintptr_t{1} << (48 + (hash >> 60));
  }

  static EntryHeader* Ptr(uintptr_t bucket) {
    return reinterpret_cast<EntryHeader*>(bucket & kPtrMask);
  }

  size_t BucketOf(uint64_t hash) const { return hash & mask_; }

  /// Chain head with Bloom pre-filter: returns nullptr without touching the
  /// chain when the tag bit for this hash is absent.
  EntryHeader* FindChainTagged(uint64_t hash) const {
    const uintptr_t b =
        buckets_[BucketOf(hash)].load(std::memory_order_relaxed);
    return (b & TagOf(hash)) ? Ptr(b) : nullptr;
  }

  /// Chain head without the filter (used by the tag-ablation bench).
  EntryHeader* FindChain(uint64_t hash) const {
    return Ptr(buckets_[BucketOf(hash)].load(std::memory_order_relaxed));
  }

  /// Thread-safe insert via CAS; preserves existing tag bits and adds the
  /// entry's own. `e->hash` must already be set.
  void Insert(EntryHeader* e) {
    std::atomic<uintptr_t>& slot = buckets_[BucketOf(e->hash)];
    const uintptr_t tag = TagOf(e->hash);
    uintptr_t old = slot.load(std::memory_order_relaxed);
    uintptr_t desired;
    do {
      e->next = Ptr(old);
      desired = reinterpret_cast<uintptr_t>(e) | (old & ~kPtrMask) | tag;
    } while (!slot.compare_exchange_weak(old, desired,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  /// Insert without CAS: for serial builds, tests, and the spill-replay
  /// build, where each worker exclusively owns the buckets it links
  /// (runtime::JoinBuild).
  void InsertUnlocked(EntryHeader* e) {
    std::atomic<uintptr_t>& slot = buckets_[BucketOf(e->hash)];
    const uintptr_t old = slot.load(std::memory_order_relaxed);
    e->next = Ptr(old);
    slot.store(reinterpret_cast<uintptr_t>(e) | (old & ~kPtrMask) |
                   TagOf(e->hash),
               std::memory_order_relaxed);
  }

  /// Raw bucket array (SIMD gather probing, Fig. 8/9).
  const std::atomic<uintptr_t>* buckets() const { return buckets_.get(); }
  uint64_t mask() const { return mask_; }

 private:
  std::unique_ptr<std::atomic<uintptr_t>[]> buckets_;
  size_t capacity_ = 0;
  uint64_t mask_ = 0;
};

/// One worker's materialized build-side rows: contiguous `stride`-byte rows,
/// each beginning with an EntryHeader whose hash is already set. Produced by
/// the materialize phase of either engine, consumed by JoinBuild.
///
/// Under spill pressure (runtime/spill.h) the owning engine may evict
/// completed chunks to a SpillFile and release their memory: `spill` then
/// holds the evicted rows (same stride, write order) and `total` counts
/// only the live in-memory rows. JoinBuild streams the spilled segments
/// back during the insert phase — spilling forces the kPartitioned
/// (spill-replay) protocol, which copies every row into its arena.
struct EntryChunkList {
  std::vector<std::pair<std::byte*, size_t>> chunks;  // (base, row count)
  size_t total = 0;             // live rows (in the chunks above)
  SpillFile* spill = nullptr;   // rows evicted under memory pressure
  size_t spilled_rows = 0;

  void Add(std::byte* base, size_t rows) {
    chunks.emplace_back(base, rows);
    total += rows;
  }

  /// Moves every live chunk's rows into `file` (one segment per chunk,
  /// write order = creation order) and forgets them; the caller releases
  /// the backing memory. `stride` is the row size.
  void SpillTo(SpillFile* file, size_t stride) {
    for (const auto& [base, rows] : chunks) {
      if (rows == 0) continue;
      file->Append(0, base, rows * stride, rows);
      spilled_rows += rows;
    }
    spill = file;
    chunks.clear();
    total = 0;
  }
};

/// Execution context of one JoinBuild (all optional): the run's
/// CancelToken (barrier aborts, failure propagation), FaultInjector (the
/// build's named fault points), QueryLedger (directory + arena bytes are
/// charged to the query's memory budget), and QueryTrace + site. On a
/// traced run the build records one QueryTrace::kJoinBuild event span at
/// its final barrier: from the sizing barrier (the last worker finished
/// materializing) to the final barrier, with the build-side row count as
/// its tuples. The span covers the insert protocol only. It excludes the
/// engine-specific materialize phase, whose drain may run whole nested
/// subplans (builds stacked on a join's build side would be counted
/// twice) and whose per-worker skew is not build work. `site` is the
/// Tectorwise plan-node index, kNoSite for Typer. Default-constructed =
/// the ungoverned, unrecorded seed behavior.
struct JoinBuildEnv {
  const CancelToken* cancel = nullptr;
  FaultInjector* fault = nullptr;
  QueryLedger* ledger = nullptr;
  QueryTrace* trace = nullptr;
  uint32_t site = QueryTrace::kNoSite;
};

/// Shared join-build protocol of both engines (one instance per hash table,
/// one Run() call per worker). The materialize phase stays engine-specific;
/// from the sizing barrier on, the path is common:
///
///   kCas          every worker CAS-inserts its own rows, in place, into
///                 the shared table (paper §3.2). Entries remain in the
///                 worker MemPool chunks. Both engines request it for every
///                 build.
///   kPartitioned  the spill-replay protocol, forced whenever any worker
///                 spilled (spilled rows have no in-memory home to link in
///                 place). The directory is split into partitions:
///                 contiguous bucket ranges, sized so that one partition's
///                 directory slice stays cache-resident. Each worker
///                 histograms its own rows (live and spilled) by partition;
///                 the counts are prefix-summed at a barrier into a
///                 partition-major arena, and each worker copies its rows
///                 into its slots of every partition in one sequential
///                 pass. After a second barrier, workers claim whole
///                 partitions through an atomic counter and link their
///                 rows with plain stores: no bucket word is touched by two
///                 cores.
///
/// The arena is owned here and must outlive the probes (both engines keep
/// the JoinBuild alive for the query). Chain contents are identical across
/// protocols (same entries per bucket, same tag bits); only chain order and
/// entry placement differ, which no studied query observes.
///
/// Failure containment (JoinBuildEnv with a token): a worker whose phase
/// throws — injected fault, real bad_alloc from the directory/arena — marks
/// the build poisoned, Fail()s the token, and the exception never crosses a
/// barrier: every wait is token-aware (Barrier::WaitOrAbort), so surviving
/// workers abort instead of blocking on the dead one, skip the guarded
/// phases, and drain. The poisoned table is never probed (the probing
/// region observes the sticky trip before claiming any morsel) and all
/// charged bytes return on destruction. Without a token the seed contract
/// stands: an exception propagates and the run fails fast.
class JoinBuild {
 public:
  JoinBuild(Hashmap* ht, size_t threads, JoinBuildEnv env = {})
      : ht_(ht), threads_(threads), env_(env), barrier_(threads),
        published_(threads) {}

  ~JoinBuild() {
    if (env_.ledger != nullptr && charged_ > 0) env_.ledger->Uncharge(charged_);
  }

  /// Executes the insert protocol for one worker: publishes `chunks`, meets
  /// the barrier that sizes the table, and inserts according to `mode`
  /// (upgraded to kPartitioned when any worker spilled). `stride` is the
  /// row size (identical across workers).
  void Run(BuildMode mode, EntryChunkList chunks, size_t stride) {
    const size_t wid = arrivals_.fetch_add(1, std::memory_order_relaxed);
    VCQ_CHECK_MSG(wid < threads_, "JoinBuild::Run called more often than the "
                                  "thread count it was built for");
    published_[wid] = std::move(chunks);

    const BarrierStatus sizing = barrier_.WaitOrAbort(
        [&] {
          // The on_last body must not leak an exception through the
          // barrier on managed runs: followers would be released believing
          // the table was sized. Poison instead, so every worker skips the
          // insert phase, and re-raise only on unmanaged builds.
          try {
            FaultHit(env_.fault, "join_build.size", env_.cancel);
            if (env_.trace != nullptr) start_ns_ = QueryTrace::NowNs();
            stride_ = stride;
            total_ = 0;
            bool any_spilled = false;
            for (const EntryChunkList& list : published_) {
              total_ += list.total + list.spilled_rows;
              any_spilled |= list.spilled_rows > 0;
            }
            effective_mode_.store(
                any_spilled ? BuildMode::kPartitioned : mode,
                std::memory_order_release);
            // Budget-aware sizing: the directory and arena are the build's
            // big allocations, so re-check the token between them — a
            // budget already tripped by the materialize phase (or by the
            // directory charge itself) must not be overshot by the arena.
            if (Interrupted(env_.cancel)) {
              poisoned_.store(true, std::memory_order_release);
              return;
            }
            ht_->SetSize(total_);
            Charge(ht_->capacity() * sizeof(uintptr_t));
            if (effective_mode_.load(std::memory_order_relaxed) ==
                BuildMode::kPartitioned) {
              if (Interrupted(env_.cancel)) {
                poisoned_.store(true, std::memory_order_release);
                return;
              }
              SizePartitions();
            }
          } catch (...) {
            poisoned_.store(true, std::memory_order_release);
            FailCurrentException(env_.cancel);
            if (env_.cancel == nullptr) throw;
          }
        },
        env_.cancel);

    if (sizing != BarrierStatus::kAborted &&
        !poisoned_.load(std::memory_order_acquire)) {
      try {
        FaultHit(env_.fault, "join_build.insert", env_.cancel);
        if (effective_mode_.load(std::memory_order_acquire) ==
            BuildMode::kCas) {
          for (const auto& [base, rows] : published_[wid].chunks) {
            for (size_t k = 0; k < rows; ++k) {
              ht_->Insert(
                  reinterpret_cast<Hashmap::EntryHeader*>(base + k * stride_));
            }
          }
        } else {
          InsertPartitioned(wid);
        }
        FaultHit(env_.fault, "join_build.finish", env_.cancel);
      } catch (...) {
        poisoned_.store(true, std::memory_order_release);
        FailCurrentException(env_.cancel);
        if (env_.cancel == nullptr) throw;
      }
    }

    barrier_.WaitOrAbort(
        [&] {
          if (env_.trace != nullptr) {
            TraceSpan span;
            span.cat = "join";
            span.name = QueryTrace::kJoinBuild;
            span.start_ns = start_ns_;
            span.end_ns = QueryTrace::NowNs();
            span.site = env_.site;
            span.tuples = total_;
            env_.trace->AddEvent(std::move(span));
          }
          // After a partitioned build every entry lives in the arena, so
          // the published chunk lists are dead; drop them so the engines
          // can free the materialize-phase MemPool chunks they point into.
          if (effective_mode_.load(std::memory_order_relaxed) ==
              BuildMode::kPartitioned) {
            for (EntryChunkList& list : published_) list = EntryChunkList{};
          }
        },
        env_.cancel);
  }

  /// True once any worker's build phase failed; the table contents are
  /// undefined and must not be probed (the sticky token trip guarantees
  /// the probing region never starts).
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// True when probes only ever walk the arena, i.e. the materialize-phase
  /// chunks handed to Run() are no longer referenced and their memory can
  /// be released by the owning engine. Reflects the EFFECTIVE protocol: a
  /// kCas request is upgraded to kPartitioned when any worker spilled
  /// (decided under the sizing barrier). Valid after Run returns; a build
  /// that failed before sizing reports true (releasing is safe — a
  /// poisoned table is never probed).
  bool releases_chunks() const {
    return effective_mode_.load(std::memory_order_acquire) ==
           BuildMode::kPartitioned;
  }

  /// Total build-side rows (valid after Run returns).
  size_t entry_count() const { return total_; }
  /// Partition-major entry arena (kPartitioned only; nullptr for kCas).
  const std::byte* arena() const { return arena_.get(); }
  /// Partition count of a kPartitioned build (0 for kCas).
  size_t partitions() const { return partitions_; }
  /// Partition that owns directory bucket `bucket` (kPartitioned only).
  size_t PartitionOf(size_t bucket) const { return bucket >> bucket_shift_; }
  /// Arena rows [first, last) holding partition `p`'s entries
  /// (kPartitioned only).
  std::pair<size_t, size_t> PartitionRows(size_t p) const {
    return {part_begin_[p], part_begin_[p + 1]};
  }

 private:
  /// Directory buckets per partition (256 KiB of bucket words), unless the
  /// fan-out cap below forces larger slices: small enough to stay in a
  /// core's L2 while the partition's rows are linked, large enough that
  /// the scatter writes a bounded number of streams.
  static constexpr size_t kSliceBuckets = size_t{1} << 15;
  static constexpr size_t kMaxPartitions = size_t{1} << 10;

  /// Sizing on_last (single-threaded): allocates the arena and the
  /// per-worker partition cursors — O(threads × partitions) scratch.
  void SizePartitions() {
    const size_t capacity = ht_->capacity();
    partitions_ = std::clamp<size_t>(capacity / kSliceBuckets, 1,
                                     kMaxPartitions);
    bucket_shift_ = static_cast<unsigned>(
        __builtin_ctzll(capacity / partitions_));  // both powers of two
    cursors_.assign(threads_ * partitions_, 0);
    part_begin_.assign(partitions_ + 1, 0);
    Charge((cursors_.size() + part_begin_.size()) * sizeof(size_t));
    arena_.reset(new std::byte[total_ * stride_]);
    Charge(total_ * stride_);
  }

  size_t PartitionOfHash(uint64_t hash) const {
    return ht_->BucketOf(hash) >> bucket_shift_;
  }

  /// Streams every row of `list` — spilled segments first (re-read through
  /// `scratch` in write order), then the live chunks — through `fn`.
  template <typename Fn>
  void ForEachRow(const EntryChunkList& list, std::vector<std::byte>& scratch,
                  Fn&& fn) const {
    if (list.spill != nullptr && list.spilled_rows > 0) {
      for (const SpillFile::Segment& seg : list.spill->segments()) {
        scratch.resize(seg.bytes);
        list.spill->Read(seg, scratch.data());
        for (size_t k = 0; k < seg.rows; ++k) fn(scratch.data() + k * stride_);
      }
    }
    for (const auto& [base, rows] : list.chunks) {
      for (size_t k = 0; k < rows; ++k) fn(base + k * stride_);
    }
  }

  void InsertPartitioned(size_t wid) {
    const EntryChunkList& own = published_[wid];
    size_t* cursor = cursors_.data() + wid * partitions_;
    std::vector<std::byte> scratch;
    // Pass 1: histogram this worker's own rows by partition.
    ForEachRow(own, scratch, [&](const std::byte* row) {
      ++cursor[PartitionOfHash(
          reinterpret_cast<const Hashmap::EntryHeader*>(row)->hash)];
    });
    // Partition-major prefix sum: partition p's segment holds worker 0's
    // rows of p, then worker 1's, ...; each count becomes its worker's
    // write cursor into that segment.
    const BarrierStatus offsets = barrier_.WaitOrAbort(
        [&] {
          size_t at = 0;
          for (size_t p = 0; p < partitions_; ++p) {
            part_begin_[p] = at;
            for (size_t w = 0; w < threads_; ++w) {
              size_t& c = cursors_[w * partitions_ + p];
              const size_t rows = c;
              c = at;
              at += rows;
            }
          }
          part_begin_[partitions_] = at;
        },
        env_.cancel);
    // An abort here means some sibling died before arriving (its histogram
    // never landed): the cursors were never computed, so writing the arena
    // would scribble over other workers' slots. Bail; the caller's final
    // barrier also aborts on the same sticky trip.
    if (offsets == BarrierStatus::kAborted ||
        poisoned_.load(std::memory_order_acquire)) {
      return;
    }

    // Pass 2: scatter this worker's rows into its slots of each partition.
    std::byte* arena = arena_.get();
    ForEachRow(own, scratch, [&](const std::byte* src) {
      const uint64_t hash =
          reinterpret_cast<const Hashmap::EntryHeader*>(src)->hash;
      std::memcpy(arena + cursor[PartitionOfHash(hash)]++ * stride_, src,
                  stride_);
    });
    if (barrier_.WaitOrAbort(env_.cancel) == BarrierStatus::kAborted ||
        poisoned_.load(std::memory_order_acquire)) {
      return;
    }

    // Link: whole partitions, claimed dynamically. A partition's buckets
    // belong to whichever worker claimed it, so plain stores suffice.
    for (size_t p = next_partition_.fetch_add(1, std::memory_order_relaxed);
         p < partitions_;
         p = next_partition_.fetch_add(1, std::memory_order_relaxed)) {
      for (size_t row = part_begin_[p]; row < part_begin_[p + 1]; ++row) {
        ht_->InsertUnlocked(
            reinterpret_cast<Hashmap::EntryHeader*>(arena + row * stride_));
      }
    }
  }

  /// Books `bytes` against the run's memory budget (sizing on_last only —
  /// single-threaded by construction, so the plain charged_ accumulation
  /// is safe); the destructor returns the total.
  void Charge(size_t bytes) {
    if (env_.ledger == nullptr) return;
    charged_ += bytes;
    env_.ledger->Charge(bytes);
  }

  Hashmap* ht_;
  const size_t threads_;
  JoinBuildEnv env_;
  std::atomic<bool> poisoned_{false};
  // Effective protocol: the requested mode, upgraded to kPartitioned when
  // any worker spilled (written once under the sizing barrier's on_last).
  std::atomic<BuildMode> effective_mode_{BuildMode::kPartitioned};
  size_t charged_ = 0;  // written only under the sizing barrier's on_last
  Barrier barrier_;
  std::atomic<size_t> arrivals_{0};
  std::vector<EntryChunkList> published_;
  size_t stride_ = 0;
  size_t total_ = 0;
  uint64_t start_ns_ = 0;  // written/read only under the barrier's on_last
  // kPartitioned state, sized under the sizing barrier's on_last.
  size_t partitions_ = 0;
  unsigned bucket_shift_ = 0;
  std::vector<size_t> cursors_;     // [worker][partition] count, then cursor
  std::vector<size_t> part_begin_;  // partition p's rows: [p], [p + 1]
  std::atomic<size_t> next_partition_{0};
  std::unique_ptr<std::byte[]> arena_;
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_HASHMAP_H_
