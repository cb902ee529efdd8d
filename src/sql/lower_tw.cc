#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "runtime/types.h"
#include "sql/lower.h"
#include "sql/result.h"
#include "tectorwise/plan.h"

// Tectorwise lowering: one walk of the optimizer's join tree emits a
// PlanBuilder DAG. Each tree node becomes scan → [map] → [select] or
// hash-join → [map] → [select]; the aggregation stage (hash group-by,
// fixed aggregation, or a plain projection map) sits on top. Columns are
// threaded explicitly: every node carries exactly the columns its
// ancestors still need (computed top-down), re-declared across joins with
// Build/Probe since Tectorwise rematerializes join output. Under eager
// aggregation the pre-aggregated leaf adds [map] → hash group-by →
// [having select] above its scan, its aggregates travel up the joins as
// kAggColumn pseudo columns, and the top stage is a projection.
//
// The collector reads the root's result columns with Batch::Value (the
// selection-vector-aware accessor — a HAVING clause leaves a Select as
// root) into untyped SqlRows and hands them to the shared result writer.

namespace vcq::sql {
namespace {

using runtime::Char;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;
using runtime::TypeTag;
using runtime::Varchar;
using tectorwise::ColumnRef;
using tectorwise::MapNode;
using tectorwise::Plan;
using tectorwise::PlanBuilder;
using tectorwise::PlanNode;
using tectorwise::SelectNode;

uint64_t CKey(ColumnId id) {
  return (static_cast<uint64_t>(id.table) << 32) | id.col;
}

tectorwise::CmpOp TwCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return tectorwise::CmpOp::kLess;
    case CmpOp::kLe:
      return tectorwise::CmpOp::kLessEq;
    case CmpOp::kGt:
      return tectorwise::CmpOp::kGreater;
    case CmpOp::kGe:
      return tectorwise::CmpOp::kGreaterEq;
    case CmpOp::kEq:
      return tectorwise::CmpOp::kEq;
  }
  return tectorwise::CmpOp::kEq;
}

/// Calls `f` with a typed null pointer matching the column's physical
/// type; `f` must return the same type for every instantiation.
template <typename F>
decltype(auto) WithPhys(const ColumnDef& col, F&& f) {
  switch (col.tag) {
    case TypeTag::kInt32:
      return f(static_cast<int32_t*>(nullptr));
    case TypeTag::kInt64:
      return f(static_cast<int64_t*>(nullptr));
    case TypeTag::kVarchar:
      VCQ_CHECK(col.elem_size == sizeof(Varchar<55>));
      return f(static_cast<Varchar<55>*>(nullptr));
    case TypeTag::kChar:
      switch (col.elem_size) {
        case 1:
          return f(static_cast<Char<1>*>(nullptr));
        case 6:
          return f(static_cast<Char<6>*>(nullptr));
        case 7:
          return f(static_cast<Char<7>*>(nullptr));
        case 9:
          return f(static_cast<Char<9>*>(nullptr));
        case 10:
          return f(static_cast<Char<10>*>(nullptr));
        case 12:
          return f(static_cast<Char<12>*>(nullptr));
        case 15:
          return f(static_cast<Char<15>*>(nullptr));
        case 25:
          return f(static_cast<Char<25>*>(nullptr));
        default:
          break;
      }
      break;
  }
  VCQ_CHECK_MSG(false, "unsupported physical column type");
  std::abort();
}

template <typename T>
T ConstOf(const Operand& o) {
  if constexpr (std::is_arithmetic_v<T>)
    return static_cast<T>(o.num);
  else
    return T::From(o.str);
}

/// Evaluates a residual constant subtree (present when constant folding is
/// disabled; same arithmetic as the folder, so plan dumps are the only
/// observable difference).
int64_t EvalConst(const Scalar& s) {
  switch (s.op) {
    case ScalarOp::kConst:
      return s.value;
    case ScalarOp::kAdd:
      return EvalConst(s.args[0]) + EvalConst(s.args[1]);
    case ScalarOp::kSub:
      return EvalConst(s.args[0]) - EvalConst(s.args[1]);
    case ScalarOp::kMul:
      return EvalConst(s.args[0]) * EvalConst(s.args[1]);
    default:
      break;
  }
  VCQ_CHECK_MSG(false, "non-constant scalar in constant context");
  std::abort();
}

using SlotGetter = std::function<SqlValue(const Plan::Batch&, size_t)>;

/// Columns available at one point of the DAG, keyed by (table, column).
struct Env {
  PlanNode* node = nullptr;
  std::unordered_map<uint64_t, ColumnRef> cols;

  ColumnRef Ref(ColumnId id) const {
    const auto it = cols.find(CKey(id));
    VCQ_CHECK_MSG(it != cols.end(), "internal: column not carried");
    return it->second;
  }
};

/// Hash group-by output: key and aggregate columns, plus the node rows
/// leave from (the HAVING select when there is one).
struct Grouped {
  PlanNode* root = nullptr;
  std::vector<ColumnRef> keys;
  std::vector<SlotGetter> key_getters;
  std::vector<ColumnRef> aggs;
};

class Lowerer {
 public:
  explicit Lowerer(const PhysicalPlan& plan)
      : p_(plan), q_(plan.query), pb_("sql") {}

  tectorwise::Prepared Run() {
    std::set<uint64_t> needed;
    for (const Scalar& v : q_.values) Collect(v, &needed);
    if (p_.EagerAggregation()) {
      // The aggregates arrive computed, from the pre-aggregated leaf.
      for (uint32_t i = 0; i < q_.aggs.size(); ++i)
        needed.insert(CKey(p_.AggColumn(i)));
      return Projection(Lower(*p_.root, needed));
    }
    for (const Aggregate& a : q_.aggs)
      if (a.has_arg) Collect(a.arg, &needed);
    Env env = Lower(*p_.root, needed);
    return q_.aggs.empty() ? Projection(env) : Aggregate_(env);
  }

 private:
  std::string Name(const char* prefix) {
    return std::string(prefix) + std::to_string(next_name_++);
  }

  void Collect(const Scalar& s, std::set<uint64_t>* out) {
    if (s.IsColumn()) out->insert(CKey(s.col));
    for (const Scalar& a : s.args) Collect(a, out);
  }

  /// Column definition, with aggregate pseudo columns as int64 numerics.
  const ColumnDef& Def(ColumnId id) const {
    static const ColumnDef kAggDef{"agg", SqlType{}, TypeTag::kInt64,
                                   sizeof(int64_t), ColumnStats{}};
    return IsAggColumn(id) ? kAggDef : q_.Column(id);
  }

  /// True when a native int32 comparison would truncate the constant.
  bool NeedsWiden(const Predicate& p) const {
    if (p.is_string || !p.lhs.IsColumn()) return false;
    if (q_.Column(p.lhs.col).tag != TypeTag::kInt32) return false;
    for (const Operand& o : p.rhs)
      if (!o.is_param && (o.num < INT32_MIN || o.num > INT32_MAX))
        return true;
    return false;
  }

  /// Materializes a numeric scalar as an int64 column of `map`.
  ColumnRef LowerNumeric(MapNode& map, const Env& env, const Scalar& s) {
    switch (s.op) {
      case ScalarOp::kColumn: {
        const ColumnDef& col = q_.Column(s.col);
        if (col.tag == TypeTag::kInt64) return env.Ref(s.col);
        VCQ_CHECK(col.tag == TypeTag::kInt32);
        return map.Widen<int32_t, int64_t>(env.Ref(s.col), Name("w"));
      }
      case ScalarOp::kYear:
        return map.Widen<int32_t, int64_t>(LowerYear(map, env, s), Name("w"));
      case ScalarOp::kAdd:
      case ScalarOp::kSub:
      case ScalarOp::kMul: {
        const Scalar& a = s.args[0];
        const Scalar& b = s.args[1];
        const bool ac = a.TableMask() == 0;
        const bool bc = b.TableMask() == 0;
        VCQ_CHECK_MSG(!(ac && bc), "constant scalar reached lowering");
        if (s.op == ScalarOp::kAdd) {
          if (ac)
            return map.AddConst<int64_t>(EvalConst(a),
                                         LowerNumeric(map, env, b), Name("e"));
          if (bc)
            return map.AddConst<int64_t>(EvalConst(b),
                                         LowerNumeric(map, env, a), Name("e"));
          return map.Add<int64_t>(LowerNumeric(map, env, a),
                                  LowerNumeric(map, env, b), Name("e"));
        }
        if (s.op == ScalarOp::kSub) {
          if (ac)
            return map.RSubConst<int64_t>(EvalConst(a),
                                          LowerNumeric(map, env, b),
                                          Name("e"));
          if (bc)
            return map.AddConst<int64_t>(-EvalConst(b),
                                         LowerNumeric(map, env, a), Name("e"));
          return map.Sub<int64_t>(LowerNumeric(map, env, a),
                                  LowerNumeric(map, env, b), Name("e"));
        }
        if (ac)
          return map.MulConst<int64_t>(LowerNumeric(map, env, b),
                                       EvalConst(a), Name("e"));
        if (bc)
          return map.MulConst<int64_t>(LowerNumeric(map, env, a),
                                       EvalConst(b), Name("e"));
        return map.Mul<int64_t>(LowerNumeric(map, env, a),
                                LowerNumeric(map, env, b), Name("e"));
      }
      case ScalarOp::kConst:
        break;
    }
    VCQ_CHECK_MSG(false, "constant scalar reached lowering");
    std::abort();
  }

  /// EXTRACT(YEAR ...) as an int32 column; the binder guarantees the
  /// argument is a plain date column.
  ColumnRef LowerYear(MapNode& map, const Env& env, const Scalar& s) {
    VCQ_CHECK(s.args[0].IsColumn());
    return map.Year(env.Ref(s.args[0].col), Name("y"));
  }

  template <typename T>
  void AddPredT(SelectNode& sel, ColumnRef ref, const Predicate& p) {
    switch (p.kind) {
      case PredKind::kContains:
        if constexpr (std::is_same_v<T, Varchar<55>>) {
          if (p.rhs[0].is_param)
            sel.ContainsParam<T>(ref, p.rhs[0].param);
          else
            sel.Contains<T>(ref, p.rhs[0].str);
        } else {
          VCQ_CHECK_MSG(false, "substring match on non-varchar column");
        }
        return;
      case PredKind::kEqOr2:
        // The binder rejects mixed constant/parameter lists.
        if (p.rhs[0].is_param)
          sel.EqOr2Param<T>(ref, p.rhs[0].param, p.rhs[1].param);
        else
          sel.EqOr2<T>(ref, ConstOf<T>(p.rhs[0]), ConstOf<T>(p.rhs[1]));
        return;
      case PredKind::kCmp:
        if (p.rhs[0].is_param)
          sel.CmpParam<T>(ref, TwCmp(p.cmp), p.rhs[0].param);
        else
          sel.Cmp<T>(ref, TwCmp(p.cmp), ConstOf<T>(p.rhs[0]));
        return;
    }
  }

  /// Applies a tree node's filters: one Map for the compound left-hand
  /// sides, then one Select with every conjunct.
  void ApplyFilters(const JoinTree& t, Env* env) {
    if (t.filters.empty()) return;
    MapNode* map = nullptr;
    std::vector<ColumnRef> lhs(t.filters.size());
    std::vector<bool> compound(t.filters.size(), false);
    for (size_t i = 0; i < t.filters.size(); ++i) {
      const Predicate& p = q_.filters[t.filters[i]];
      if (p.is_string) continue;
      if (p.lhs.IsColumn() && !NeedsWiden(p)) continue;
      if (map == nullptr) map = &pb_.Map(*env->node);
      lhs[i] = LowerNumeric(*map, *env, p.lhs);
      compound[i] = true;
    }
    SelectNode& sel =
        pb_.Select(map != nullptr ? static_cast<PlanNode&>(*map)
                                  : *env->node);
    for (size_t i = 0; i < t.filters.size(); ++i) {
      const Predicate& p = q_.filters[t.filters[i]];
      if (compound[i]) {
        AddPredT<int64_t>(sel, lhs[i], p);
        continue;
      }
      WithPhys(q_.Column(p.lhs.col), [&](auto* tp) {
        using T = std::remove_pointer_t<decltype(tp)>;
        AddPredT<T>(sel, env->Ref(p.lhs.col), p);
      });
    }
    env->node = &sel;
  }

  Env Lower(const JoinTree& t, const std::set<uint64_t>& needed_above) {
    // A pre-aggregated leaf scans what its group-by reads instead.
    std::set<uint64_t> needed =
        t.PreAggregated() ? PreAggregateInputs(t) : needed_above;
    for (uint32_t f : t.filters) Collect(q_.filters[f].lhs, &needed);

    if (t.IsLeaf()) {
      const TableDef& def = q_.Table(static_cast<uint32_t>(t.table));
      auto& scan = pb_.Scan(q_.catalog->db()[def.name], def.name);
      Env env;
      env.node = &scan;
      for (const uint64_t key : needed) {
        const ColumnId id{static_cast<uint32_t>(key >> 32),
                          static_cast<uint32_t>(key)};
        const ColumnDef& col = q_.Column(id);
        env.cols.emplace(key, WithPhys(col, [&](auto* tp) {
                           using T = std::remove_pointer_t<decltype(tp)>;
                           return scan.Col<T>(col.name);
                         }));
      }
      ApplyFilters(t, &env);
      if (t.PreAggregated()) return PreAggregate(t, env);
      return env;
    }

    std::set<uint64_t> bneed;
    std::set<uint64_t> pneed;
    for (const uint64_t key : needed) {
      const uint32_t table = static_cast<uint32_t>(key >> 32);
      ((t.build->mask >> table) & 1 ? bneed : pneed).insert(key);
    }
    // keys[i] = {build column, probe column} (optimizer orientation).
    for (const auto& k : t.keys) {
      bneed.insert(CKey(k[0]));
      pneed.insert(CKey(k[1]));
    }
    Env benv = Lower(*t.build, bneed);
    Env penv = Lower(*t.probe, pneed);

    auto& join = pb_.HashJoin(*benv.node, *penv.node);
    for (const auto& k : t.keys) {
      WithPhys(q_.Column(k[0]), [&](auto* tp) {
        using T = std::remove_pointer_t<decltype(tp)>;
        if constexpr (std::is_arithmetic_v<T>)
          join.Key<T>(penv.Ref(k[1]), benv.Ref(k[0]));
        else
          VCQ_CHECK_MSG(false, "string join keys rejected by the binder");
      });
    }
    Env env;
    env.node = &join;
    for (const uint64_t key : needed) {
      const ColumnId id{static_cast<uint32_t>(key >> 32),
                        static_cast<uint32_t>(key)};
      const ColumnDef& col = Def(id);
      const bool from_build = (t.build->mask >> id.table) & 1;
      env.cols.emplace(key, WithPhys(col, [&](auto* tp) {
                         using T = std::remove_pointer_t<decltype(tp)>;
                         return from_build ? join.Build<T>(benv.Ref(id))
                                           : join.Probe<T>(penv.Ref(id));
                       }));
    }
    ApplyFilters(t, &env);
    return env;
  }

  /// The group keys and aggregate arguments of a pre-aggregated leaf.
  std::set<uint64_t> PreAggregateInputs(const JoinTree& t) {
    std::set<uint64_t> inputs;
    for (const ColumnId c : t.group_keys) inputs.insert(CKey(c));
    for (const Aggregate& a : q_.aggs)
      if (a.has_arg) Collect(a.arg, &inputs);
    return inputs;
  }

  /// Eager aggregation's leaf, above its filtered scan: group by the
  /// leaf's keys with every aggregate, then HAVING. Outputs the keys and
  /// the kAggColumn pseudo columns.
  Env PreAggregate(const JoinTree& t, const Env& in) {
    std::vector<Scalar> keys;
    for (const ColumnId c : t.group_keys) keys.push_back(ColumnScalar(q_, c));
    const Grouped g = Group(in, keys);
    Env env;
    env.node = g.root;
    for (size_t i = 0; i < keys.size(); ++i)
      env.cols.emplace(CKey(t.group_keys[i]), g.keys[i]);
    for (uint32_t i = 0; i < g.aggs.size(); ++i)
      env.cols.emplace(CKey(p_.AggColumn(i)), g.aggs[i]);
    return env;
  }

  /// Getter for a physical column output (string → SqlValue::Str).
  SlotGetter ColGetter(const ColumnDef& col, ColumnRef ref) {
    return WithPhys(col, [&](auto* tp) -> SlotGetter {
      using T = std::remove_pointer_t<decltype(tp)>;
      if constexpr (std::is_arithmetic_v<T>) {
        return [ref](const Plan::Batch& b, size_t k) {
          return SqlValue::Num(b.Value<T>(ref, k));
        };
      } else {
        return [ref](const Plan::Batch& b, size_t k) {
          return SqlValue::Str(std::string(b.Value<T>(ref, k).View()));
        };
      }
    });
  }

  template <typename T>
  static SlotGetter NumGetter(ColumnRef ref) {
    return [ref](const Plan::Batch& b, size_t k) {
      return SqlValue::Num(b.Value<T>(ref, k));
    };
  }

  /// Lowers one value scalar for the projection/group stage; returns the
  /// input ref plus its getter type. Creates `*map` on demand.
  std::pair<ColumnRef, SlotGetter> LowerValue(const Scalar& v, Env* env,
                                              MapNode** map) {
    auto ensure_map = [&]() -> MapNode& {
      if (*map == nullptr) *map = &pb_.Map(*env->node);
      return **map;
    };
    if (v.IsColumn()) {
      const ColumnDef& col = q_.Column(v.col);
      return {env->Ref(v.col), ColGetter(col, env->Ref(v.col))};
    }
    if (v.op == ScalarOp::kYear) {
      const ColumnRef ref = LowerYear(ensure_map(), *env, v);
      return {ref, NumGetter<int32_t>(ref)};
    }
    const ColumnRef ref = LowerNumeric(ensure_map(), *env, v);
    return {ref, NumGetter<int64_t>(ref)};
  }

  /// Shared tail: build the plan and wrap the row-gathering collector.
  tectorwise::Prepared Gather(PlanNode& root, std::vector<ColumnRef> refs,
                              std::vector<SlotGetter> getters) {
    // The SqlRow getters read via Batch::Value only, so streaming roots
    // (projections, HAVING Selects) are safe.
    Plan plan = pb_.Build(root, std::move(refs),
                          /*selection_aware_collector=*/true);
    auto shared =
        std::make_shared<std::vector<SlotGetter>>(std::move(getters));
    const ResultSpec spec = SpecFor(q_);
    return tectorwise::Prepared(
        std::move(plan),
        [shared, spec](const Plan& plan, const QueryOptions& opt,
                       const QueryParams& params) {
          std::vector<SqlRow> rows;
          plan.Run(opt, params, [&](const Plan::Batch& b) {
            for (size_t k = 0; k < b.size(); ++k) {
              SqlRow row;
              row.reserve(shared->size());
              for (const SlotGetter& g : *shared) row.push_back(g(b, k));
              rows.push_back(std::move(row));
            }
          });
          return Render(spec, std::move(rows));
        });
  }

  /// A projection of the values; under eager aggregation followed by the
  /// carried aggregates (the [values, aggs] slot layout of logical.h).
  tectorwise::Prepared Projection(Env env) {
    MapNode* map = nullptr;
    std::vector<ColumnRef> refs;
    std::vector<SlotGetter> getters;
    for (const Scalar& v : q_.values) {
      auto [ref, get] = LowerValue(v, &env, &map);
      refs.push_back(ref);
      getters.push_back(std::move(get));
    }
    if (p_.EagerAggregation()) {
      for (uint32_t i = 0; i < q_.aggs.size(); ++i) {
        const ColumnRef ref = env.Ref(p_.AggColumn(i));
        refs.push_back(ref);
        getters.push_back(NumGetter<int64_t>(ref));
      }
    }
    PlanNode& root = map != nullptr ? static_cast<PlanNode&>(*map) : *env.node;
    return Gather(root, std::move(refs), std::move(getters));
  }

  /// Stages every aggregate argument as an int64 column of `*map` (created
  /// on demand; Widen int32 arguments, dates included for min/max).
  std::vector<ColumnRef> AggArgs(const Env& env, MapNode** map) {
    std::vector<ColumnRef> arg_refs(q_.aggs.size());
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      const sql::Aggregate& a = q_.aggs[i];
      if (!a.has_arg) continue;
      if (*map == nullptr) *map = &pb_.Map(*env.node);
      arg_refs[i] = LowerNumeric(**map, env, a.arg);
    }
    return arg_refs;
  }

  tectorwise::Prepared Aggregate_(Env env) {
    if (q_.grouped) {
      Grouped g = Group(env, q_.values);
      std::vector<ColumnRef> refs = g.keys;
      std::vector<SlotGetter> getters = std::move(g.key_getters);
      for (const ColumnRef& a : g.aggs) {
        refs.push_back(a);
        getters.push_back(NumGetter<int64_t>(a));
      }
      return Gather(*g.root, std::move(refs), std::move(getters));
    }
    MapNode* map = nullptr;
    const std::vector<ColumnRef> arg_refs = AggArgs(env, &map);
    // Ungrouped: FixedAgg emits one worker-local partial row per worker;
    // the collector folds them with each function's identity.
    PlanNode& input =
        map != nullptr ? static_cast<PlanNode&>(*map) : *env.node;
    auto& agg = pb_.FixedAgg(input);
    std::vector<ColumnRef> refs;
    std::vector<ast::AggFn> fns;
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      const sql::Aggregate& a = q_.aggs[i];
      switch (a.fn) {
        case ast::AggFn::kSum:
          refs.push_back(agg.Sum(arg_refs[i], Name("a")));
          break;
        case ast::AggFn::kCount:
          refs.push_back(agg.Count(Name("a")));
          break;
        case ast::AggFn::kMin:
          refs.push_back(agg.Min(arg_refs[i], Name("a")));
          break;
        case ast::AggFn::kMax:
          refs.push_back(agg.Max(arg_refs[i], Name("a")));
          break;
        case ast::AggFn::kAvg:
          VCQ_CHECK_MSG(false, "AVG is lowered to SUM/COUNT by the binder");
      }
      fns.push_back(a.fn);
    }
    Plan plan = pb_.Build(agg, refs);
    const ResultSpec spec = SpecFor(q_);
    return tectorwise::Prepared(
        std::move(plan),
        [refs, fns, spec](const Plan& plan, const QueryOptions& opt,
                          const QueryParams& params) {
          std::vector<int64_t> acc(fns.size());
          for (size_t i = 0; i < fns.size(); ++i)
            acc[i] = fns[i] == ast::AggFn::kMin   ? INT64_MAX
                     : fns[i] == ast::AggFn::kMax ? INT64_MIN
                                                  : 0;
          plan.Run(opt, params, [&](const Plan::Batch& b) {
            for (size_t k = 0; k < b.size(); ++k) {
              for (size_t i = 0; i < fns.size(); ++i) {
                const int64_t v = b.Value<int64_t>(refs[i], k);
                switch (fns[i]) {
                  case ast::AggFn::kMin:
                    acc[i] = std::min(acc[i], v);
                    break;
                  case ast::AggFn::kMax:
                    acc[i] = std::max(acc[i], v);
                    break;
                  default:
                    acc[i] += v;
                    break;
                }
              }
            }
          });
          SqlRow row;
          row.reserve(acc.size());
          for (const int64_t v : acc) row.push_back(SqlValue::Num(v));
          std::vector<SqlRow> rows;
          rows.push_back(std::move(row));
          return Render(spec, std::move(rows));
        });
  }

  /// Hash group-by of `env` on `keys` computing every aggregate, then a
  /// Select applying HAVING. Non-column keys are staged in the same map
  /// as the aggregate arguments.
  Grouped Group(const Env& env, const std::vector<Scalar>& keys) {
    MapNode* map = nullptr;
    const std::vector<ColumnRef> arg_refs = AggArgs(env, &map);
    auto ensure_map = [&]() -> MapNode& {
      if (map == nullptr) map = &pb_.Map(*env.node);
      return *map;
    };
    std::vector<ColumnRef> key_ins(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const Scalar& v = keys[i];
      if (v.IsColumn())
        key_ins[i] = env.Ref(v.col);
      else if (v.op == ScalarOp::kYear)
        key_ins[i] = LowerYear(ensure_map(), env, v);
      else
        key_ins[i] = LowerNumeric(ensure_map(), env, v);
    }
    PlanNode& input =
        map != nullptr ? static_cast<PlanNode&>(*map) : *env.node;
    auto& group = pb_.HashGroup(input);

    Grouped g;
    for (size_t i = 0; i < keys.size(); ++i) {
      const Scalar& v = keys[i];
      if (v.IsColumn()) {
        const ColumnDef& col = q_.Column(v.col);
        const ColumnRef out = WithPhys(col, [&](auto* tp) {
          using T = std::remove_pointer_t<decltype(tp)>;
          return group.Key<T>(key_ins[i]);
        });
        g.keys.push_back(out);
        g.key_getters.push_back(ColGetter(col, out));
      } else if (v.op == ScalarOp::kYear) {
        const ColumnRef out = group.Key<int32_t>(key_ins[i]);
        g.keys.push_back(out);
        g.key_getters.push_back(NumGetter<int32_t>(out));
      } else {
        const ColumnRef out = group.Key<int64_t>(key_ins[i]);
        g.keys.push_back(out);
        g.key_getters.push_back(NumGetter<int64_t>(out));
      }
    }
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      switch (q_.aggs[i].fn) {
        case ast::AggFn::kSum:
          g.aggs.push_back(group.Sum(arg_refs[i]));
          break;
        case ast::AggFn::kCount:
          g.aggs.push_back(group.Count());
          break;
        case ast::AggFn::kMin:
          g.aggs.push_back(group.Min(arg_refs[i]));
          break;
        case ast::AggFn::kMax:
          g.aggs.push_back(group.Max(arg_refs[i]));
          break;
        case ast::AggFn::kAvg:
          VCQ_CHECK_MSG(false, "AVG is lowered to SUM/COUNT by the binder");
      }
    }

    g.root = &group;
    if (!q_.having.empty()) {
      auto& hsel = pb_.Select(group);
      for (const HavingPred& h : q_.having) {
        if (h.rhs.is_param)
          hsel.CmpParam<int64_t>(g.aggs[h.agg], TwCmp(h.cmp), h.rhs.param);
        else
          hsel.Cmp<int64_t>(g.aggs[h.agg], TwCmp(h.cmp), h.rhs.num);
      }
      g.root = &hsel;
    }
    return g;
  }

  const PhysicalPlan& p_;
  const BoundQuery& q_;
  PlanBuilder pb_;
  int next_name_ = 0;
};

}  // namespace

tectorwise::Prepared LowerTectorwise(const PhysicalPlan& plan) {
  return Lowerer(plan).Run();
}

}  // namespace vcq::sql
