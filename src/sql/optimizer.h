#ifndef VCQ_SQL_OPTIMIZER_H_
#define VCQ_SQL_OPTIMIZER_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sql/logical.h"

// The optimizer: turns a BoundQuery's table set + join edges into a
// concrete binary join tree and places the filter conjuncts. Three
// independently switchable rewrites (bench/ablation_sql_optimizer.cc
// measures each):
//
//   fold_constants  evaluate constant subtrees of every scalar.
//   pushdown        place each filter at the lowest subtree covering its
//                   tables (single-table filters at the scan); off = all
//                   filters above the last join.
//   join_order      greedy smallest-intermediate ordering (GOO): repeatedly
//                   join the connected pair with the smallest estimated
//                   output, smaller side as hash-table build. Off =
//                   left-deep in FROM order (skipping to the next connected
//                   table), accumulated side as build. Also gates eager
//                   aggregation (below).
//
// Cardinality model. Per-column distinct counts come from the catalog's
// min/max stats: ndv = |T| for a verified unique column, otherwise
// clamp(max-min+1, 1, |T|) (string columns: |T|/10).
//   * Filters. Equality on a constant selects 1/ndv, a range its fraction
//     of [min, max]. A $parameter is unknown at plan time and selects a
//     fixed guess: 0.1 for =, 0.2 for a two-value IN, 0.3 for a range;
//     string comparisons use the same guesses and substring LIKE 0.05.
//   * Joins. All key pairs between the two subtrees form ONE composite
//     key. A side's distinct count is the product of its key columns'
//     ndv, capped at that side's estimated rows. Containment: a side can
//     only match values that exist in a base table on the other side
//     holding the whole key, so its distinct count is also capped at that
//     table's (capped) composite ndv. Output = |A|·|B| / max(ndv_A,
//     ndv_B). For partsupp ⋈ lineitem on (partkey, suppkey) that is
//     |lineitem|, the measured count; dividing per key pair would give
//     |lineitem|/2500, and the row caps without containment |partsupp|.
//   * Group-bys. groups = min(input rows, Π ndv of the keys), a join key
//     capped at its partner column's ndv; a HAVING conjunct selects the
//     parameter guess (0.1 for =, 0.3 otherwise).
//
// Eager aggregation (Yan & Larson, VLDB 1995), tried when join_order is on.
// It applies to a grouped query when some table R satisfies all of:
//   * every aggregate reads only R (COUNT(*) reads any table);
//   * every filter touching R touches only R;
//   * R reaches every other table through joins onto a verified unique
//     column (ColumnStats::unique) of the far table, so one R row matches
//     at most one combination of the other tables' rows;
//   * every R join column is in the GROUP BY, itself or through the
//     column it is joined to, and every group key reading R is a plain
//     column.
// Then R's leaf groups by its join columns (plus its group-key columns),
// computes every aggregate and applies HAVING below the joins, and the top
// group-by becomes a projection: each final group is exactly one
// pre-aggregated row. The rewrite is kept only when its estimated
// intermediate rows (join outputs plus rows fed into a group-by) are
// fewer than the lazy plan's: TPC-H Q18 pre-aggregates lineitem by
// orderkey, Q3 (same shape, selective dimension filters) stays lazy.

namespace vcq::sql {

struct OptimizerOptions {
  bool fold_constants = true;
  bool pushdown = true;
  bool join_order = true;
};

/// Under eager aggregation the pre-aggregated leaf carries aggregate i of
/// BoundQuery::aggs upward as the pseudo column {table, kAggColumn + i}.
constexpr uint32_t kAggColumn = 1u << 31;

inline bool IsAggColumn(ColumnId id) { return id.col >= kAggColumn; }

/// Binary join tree node. Leaves name a table (index into
/// BoundQuery::tables); inner nodes join build × probe on `keys`
/// ({build column, probe column} pairs). `filters` are indexes into
/// BoundQuery::filters applied at this node — after the scan for leaves,
/// after the probe for joins.
struct JoinTree {
  int table = -1;
  std::unique_ptr<JoinTree> build;
  std::unique_ptr<JoinTree> probe;
  std::vector<std::array<ColumnId, 2>> keys;
  std::vector<uint32_t> filters;
  double est_rows = 0;  // after this node's filters (and HAVING)
  uint32_t mask = 0;    // bit per BoundQuery::tables index
  /// Eager aggregation, leaves only: when non-empty, the leaf's filtered
  /// rows are grouped by these columns of its table, every BoundQuery
  /// aggregate is computed and BoundQuery::having applied. The leaf then
  /// outputs the group keys plus the kAggColumn pseudo columns.
  std::vector<ColumnId> group_keys;
  double est_input = 0;   // pre-aggregated leaves: rows into the group-by
  double est_groups = 0;  // pre-aggregated leaves: groups before HAVING

  bool IsLeaf() const { return table >= 0; }
  bool PreAggregated() const { return !group_keys.empty(); }
};

struct PhysicalPlan {
  BoundQuery query;
  OptimizerOptions options;
  std::unique_ptr<JoinTree> root;
  /// Σ estimated join-output rows — the optimizer's plan cost (reported by
  /// EXPLAIN and the ablation bench; intermediate materialization is what
  /// the rewrites are trying to shrink).
  double cost = 0;
  /// Eager aggregation: the BoundQuery::tables index of the
  /// pre-aggregated leaf, or -1. When set, the plan's top stage projects
  /// the values and the carried aggregate columns instead of grouping,
  /// and HAVING has already been applied.
  int eager_table = -1;

  bool EagerAggregation() const { return eager_table >= 0; }
  /// The pseudo column carrying aggregate `i` under eager aggregation.
  ColumnId AggColumn(uint32_t i) const {
    return {static_cast<uint32_t>(eager_table), kAggColumn + i};
  }
};

PhysicalPlan Optimize(BoundQuery query, const OptimizerOptions& options);

/// EXPLAIN "optimized" stage: the join tree with estimates and filter
/// placement.
std::string ToString(const PhysicalPlan& plan);

}  // namespace vcq::sql

#endif  // VCQ_SQL_OPTIMIZER_H_
