#ifndef VCQ_TECTORWISE_COMPACTION_H_
#define VCQ_TECTORWISE_COMPACTION_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "tectorwise/core.h"

// Batch compaction (cf. "Data Chunk Compaction in Vectorized
// Execution", SIGMOD'25, and paper §5.1 on sparse selection vectors).
//
// A Compactor sits at a compaction point of the vectorized pipeline (Select
// output, group-by input). When the point produces sparse batches — a few
// live positions scattered over a full vector — the Compactor copies the
// live values of every registered column into its own dense buffers,
// merging consecutive sparse batches until a full vector_size batch is
// accumulated, then republishes the column Slots to point at the dense
// buffers and emits the batch without a selection vector. Every downstream
// primitive then runs its dense path (contiguous loads, full SIMD lanes)
// and per-vector interpretation overhead amortizes over full vectors again.
//
// A batch is only absorbed when it is sparse (IsSparse in core.h: density
// below 1/64); dense batches pass through untouched, so the fast path stays
// zero-copy.

namespace vcq::tectorwise {

/// Per-column append kernel bound to a column Slot by the steps.h factory
/// MakeCompact<T>: copies the `n` live values (per `sel`; null = dense) of
/// the bound column to `dst`.
using CompactStep =
    std::function<void(size_t n, const pos_t* sel, void* dst)>;

/// Accumulates the live rows of sparse batches into dense, operator-owned
/// column buffers and republishes the column Slots when a dense batch is
/// emitted. Owned by the operator at the compaction point; driven by its
/// Next() loop:
///
///   BeginBatch();                       // restore slots, shift carry-over
///   ...pull child, run steps -> count, sel...
///   if (!ShouldCompact(count)) emit batch unchanged;  // even with rows
///       // pending: those already live in the compactor's buffers and
///       // can wait for the backlog to fill (batch order is free)
///   else { Append(count, sel); if (Full()) emit Flush() rows dense; }
///   ...at child EOS: emit Flush() until pending() is 0...
///
/// Buffers hold 2 * vector_size rows: Append() is only called while fewer
/// than vector_size rows are pending and a batch holds at most vector_size
/// rows, so capacity is never exceeded; Flush() publishes at most
/// vector_size rows and BeginBatch() moves the remainder to the front.
class Compactor {
 public:
  Compactor() = default;
  explicit Compactor(const ExecContext& ctx) { Configure(ctx); }

  void Configure(const ExecContext& ctx);

  /// Registers a column for densification. `slot` must be republishable:
  /// its producer either resets `ptr` every batch (Scan) or writes into a
  /// fixed buffer the saved `ptr` keeps addressing (Map/join/group
  /// outputs).
  void AddColumn(Slot* slot, size_t elem_size, CompactStep step);

  /// Density test for a fresh batch with `count` live tuples; always false
  /// while no column is registered (nothing consumed above the point).
  bool ShouldCompact(size_t count) const {
    return !columns_.empty() && IsSparse(count, vector_size_);
  }

  size_t pending() const { return pending_; }
  bool Full() const { return pending_ >= vector_size_; }

  /// Restores republished slots to their producers' buffers and shifts any
  /// carry-over rows (beyond the last emitted vector) to the buffer front.
  /// Call once at the top of the operator's Next() before pulling anything.
  void BeginBatch();

  /// Appends the live rows of the current batch to the dense buffers.
  void Append(size_t n, const pos_t* sel);

  /// Publishes up to vector_size accumulated rows: repoints every
  /// registered slot at its dense buffer and returns the emitted count.
  size_t Flush();

 private:
  struct Column {
    Slot* slot;
    size_t elem_size;
    CompactStep step;
    VecBuffer buffer;          // 2 * vector_size rows
    const void* saved = nullptr;  // producer ptr to restore after a Flush
  };

  size_t vector_size_ = kDefaultVectorSize;
  std::vector<Column> columns_;
  size_t pending_ = 0;   // accumulated, not yet emitted rows
  size_t emitted_ = 0;   // rows published by the last Flush
};

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_COMPACTION_H_
