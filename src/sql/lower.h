#ifndef VCQ_SQL_LOWER_H_
#define VCQ_SQL_LOWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/optimizer.h"
#include "tectorwise/queries.h"

// The two backends of the SQL front door. Both consume the same
// PhysicalPlan (optimizer.h) and funnel their rows through the shared
// result writer (result.h), which is what makes their outputs
// byte-identical:
//
//   LowerTectorwise  walks the join tree once and emits a
//                    tectorwise::PlanBuilder DAG (scan → map → select
//                    chains at each site, hash joins with explicit
//                    Build/Probe carries, hash group-by or fixed
//                    aggregation on top — or, under eager aggregation,
//                    a hash group-by + HAVING on one leaf and a
//                    projection on top). Returns a normal
//                    tectorwise::Prepared, so Session treats SQL plans
//                    exactly like catalog plans.
//
//   RunVolcano       interprets the same tree with the tuple-at-a-time
//                    operators (volcano/volcano.h) per execution.
//                    Volcano rows are untyped int64 slots, so string
//                    columns ride as per-column dictionary codes (built
//                    on first use; code order = string order, so joins
//                    and group-bys on codes are exact) and string
//                    predicates are evaluated against the typed column
//                    at the scan into boolean pseudo-slots. Single
//                    threaded by design — it is the differential oracle,
//                    not a contender.
//
// RunVolcano optionally reports per-join output counts, which the
// optimizer ablation bench uses as its ground-truth "intermediate
// tuples" metric.

namespace vcq::sql {

struct VolcanoJoinStat {
  std::string label;  // "buildtables⋈probetables"
  uint64_t tuples = 0;
};

struct VolcanoStats {
  /// One entry per join node, in post-order (build subtree, probe subtree,
  /// then the node), counted before the node's filters.
  std::vector<VolcanoJoinStat> joins;
  /// Σ join output tuples — what predicate pushdown and join ordering
  /// are trying to shrink.
  uint64_t intermediate_tuples = 0;
  /// Eager aggregation only: groups the pre-aggregated leaf formed, and
  /// the rows left of them after HAVING.
  uint64_t pre_agg_groups = 0;
  uint64_t pre_agg_rows = 0;
};

/// Builds the Tectorwise plan for `plan`. Check-fails on physical-plan
/// shapes the binder cannot produce; all user errors were rejected at
/// compile time.
tectorwise::Prepared LowerTectorwise(const PhysicalPlan& plan);

/// Interprets `plan` with the Volcano operators. Parameters are resolved
/// up front into the operator closures; `stats`, when non-null, receives
/// per-join output counts.
runtime::QueryResult RunVolcano(const PhysicalPlan& plan,
                                const runtime::QueryOptions& opt,
                                const runtime::QueryParams& params,
                                VolcanoStats* stats = nullptr);

}  // namespace vcq::sql

#endif  // VCQ_SQL_LOWER_H_
