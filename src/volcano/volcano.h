#ifndef VCQ_VOLCANO_VOLCANO_H_
#define VCQ_VOLCANO_VOLCANO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

// Volcano: a classic tuple-at-a-time, pull-based interpreter (paper §1,
// Table 6 row "System R"). This is the model both studied paradigms
// replaced; the library ships it as a runnable baseline so the
// order-of-magnitude interpretation overhead the paper talks about is
// measurable in the same harness. (The paper's Table 2 compares its
// prototypes with HyPer and Actian Vector, which are closed source; this
// repo compares Typer with Tectorwise instead, and Volcano serves as the
// differential correctness oracle.) Deliberately interpretation-heavy: virtual next() per
// tuple, std::function expression evaluation per row, no morsel
// parallelism (single-threaded, as classic Volcano without exchange
// operators).
//
// Rows are arrays of int64 value slots; scans translate columns (including
// string predicates) into slots via accessor closures.
//
// Cancellation: every pipeline bottoms out in one or more ScanOps, which
// poll an optional CancelToken every kCancelPollRows tuples and report
// end-of-stream on a trip. Blocking operators (HashJoinOp::Open,
// GroupByOp::Open) drain a cancelled child quickly because the child's
// scans stop producing; the query runner then surfaces the token's status
// instead of the partial result.

#include "runtime/cancel.h"

namespace vcq::volcano {

using Row = std::vector<int64_t>;

class Operator {
 public:
  virtual ~Operator() = default;
  virtual void Open() = 0;
  /// Produces one tuple; false at end of stream.
  virtual bool Next(Row* out) = 0;
  virtual size_t Width() const = 0;
};

/// Table scan: one accessor closure per output slot, invoked per row —
/// the per-tuple type dispatch vectorization amortizes away (paper §4.2).
class ScanOp : public Operator {
 public:
  /// Tuples between CancelToken polls: frequent enough that even this
  /// engine's slow per-tuple pace reacts to a trip within microseconds,
  /// rare enough that the atomic load never shows up in Table 2.
  static constexpr size_t kCancelPollRows = 1024;

  explicit ScanOp(size_t tuple_count,
                  const runtime::CancelToken* cancel = nullptr)
      : count_(tuple_count), cancel_(cancel) {}

  /// Returns the slot index of the added column/derived value.
  size_t AddAccessor(std::function<int64_t(size_t)> fn) {
    accessors_.push_back(std::move(fn));
    return accessors_.size() - 1;
  }

  void Open() override { next_ = 0; }
  bool Next(Row* out) override;
  size_t Width() const override { return accessors_.size(); }

 private:
  size_t count_;
  const runtime::CancelToken* cancel_;
  size_t next_ = 0;
  std::vector<std::function<int64_t(size_t)>> accessors_;
};

/// Tuple-at-a-time filter.
class SelectOp : public Operator {
 public:
  SelectOp(std::unique_ptr<Operator> child,
           std::function<bool(const Row&)> predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  void Open() override { child_->Open(); }
  bool Next(Row* out) override;
  size_t Width() const override { return child_->Width(); }

 private:
  std::unique_ptr<Operator> child_;
  std::function<bool(const Row&)> predicate_;
};

/// Appends computed slots to each tuple.
class ProjectOp : public Operator {
 public:
  explicit ProjectOp(std::unique_ptr<Operator> child)
      : child_(std::move(child)) {}

  size_t AddExpr(std::function<int64_t(const Row&)> fn) {
    exprs_.push_back(std::move(fn));
    return child_->Width() + exprs_.size() - 1;
  }

  void Open() override { child_->Open(); }
  bool Next(Row* out) override;
  size_t Width() const override { return child_->Width() + exprs_.size(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<std::function<int64_t(const Row&)>> exprs_;
};

/// Hash join: drains the build side on Open, then streams probe tuples,
/// emitting probe row ++ build payload for every match (handles duplicate
/// build keys via multimap iteration).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> build, std::unique_ptr<Operator> probe,
             size_t build_key_slot, size_t probe_key_slot,
             std::vector<size_t> build_payload_slots)
      : build_(std::move(build)),
        probe_(std::move(probe)),
        build_key_slot_(build_key_slot),
        probe_key_slot_(probe_key_slot),
        payload_slots_(std::move(build_payload_slots)) {}

  void Open() override;
  bool Next(Row* out) override;
  size_t Width() const override {
    return probe_->Width() + payload_slots_.size();
  }

 private:
  std::unique_ptr<Operator> build_;
  std::unique_ptr<Operator> probe_;
  size_t build_key_slot_;
  size_t probe_key_slot_;
  std::vector<size_t> payload_slots_;

  std::unordered_multimap<int64_t, std::vector<int64_t>> table_;
  Row probe_row_;
  std::unordered_multimap<int64_t, std::vector<int64_t>>::iterator it_;
  std::unordered_multimap<int64_t, std::vector<int64_t>>::iterator range_end_;
  bool have_range_ = false;
};

/// Full-materialization hash aggregation: sum/count/min/max over key slots.
class GroupByOp : public Operator {
 public:
  enum class AggOp : uint8_t { kSum, kCount, kMin, kMax };

  explicit GroupByOp(std::unique_ptr<Operator> child,
                     std::vector<size_t> key_slots)
      : child_(std::move(child)), key_slots_(std::move(key_slots)) {}

  /// Adds an aggregate of the given kind over `child_slot` (ignored for
  /// kCount). Returns the output slot (keys first, then aggregates).
  size_t AddAggOp(AggOp op, size_t child_slot = SIZE_MAX) {
    agg_slots_.push_back(child_slot);
    agg_ops_.push_back(op);
    return key_slots_.size() + agg_slots_.size() - 1;
  }

  void Open() override;
  bool Next(Row* out) override;
  size_t Width() const override {
    return key_slots_.size() + agg_slots_.size();
  }

 private:
  struct VecHash {
    size_t operator()(const std::vector<int64_t>& v) const;
  };

  std::unique_ptr<Operator> child_;
  std::vector<size_t> key_slots_;
  std::vector<size_t> agg_slots_;
  std::vector<AggOp> agg_ops_;
  std::unordered_map<std::vector<int64_t>, std::vector<int64_t>, VecHash>
      groups_;
  std::unordered_map<std::vector<int64_t>, std::vector<int64_t>,
                     VecHash>::iterator emit_;
  bool materialized_ = false;
};

}  // namespace vcq::volcano

#endif  // VCQ_VOLCANO_VOLCANO_H_
