#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "runtime/cancel.h"
#include "runtime/types.h"
#include "sql/lower.h"
#include "sql/result.h"
#include "volcano/volcano.h"

// Volcano lowering: interprets the optimizer's join tree with the
// tuple-at-a-time operators. Built fresh per execution (parameters are
// resolved into the closures up front). Rows are int64 slots, so:
//
//   * string VALUE columns (group keys, projections) ride as per-column
//     dictionary codes — the dictionary is sorted, so code order equals
//     string order and equality joins/groupings on codes are exact; the
//     drain loop decodes for rendering.
//   * string PREDICATES are evaluated against the typed column at the
//     scan into 0/1 pseudo-slots, carried like any other slot to
//     wherever the optimizer placed the filter (above the last join when
//     pushdown is off).
//
// Each join is wrapped in a counting adapter; RunVolcano reports the
// per-join output cardinalities as the ablation bench's ground-truth
// "intermediate tuples" metric. Under eager aggregation the
// pre-aggregated leaf becomes scan → select → group-by → HAVING select,
// its aggregate slots ride up the joins like columns, and the top stage
// is a projection.

namespace vcq::sql {
namespace {

using runtime::Char;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;
using runtime::TypeTag;
using runtime::Varchar;
using volcano::GroupByOp;
using volcano::HashJoinOp;
using volcano::Operator;
using volcano::ProjectOp;
using volcano::Row;
using volcano::ScanOp;
using volcano::SelectOp;

/// Needed-set keys: column keys are (table << 32 | col); string-predicate
/// pseudo-slots are (kPredBit | filter index). Disjoint since table
/// indexes are at most 15.
constexpr uint64_t kPredBit = 1ull << 63;

uint64_t CKey(ColumnId id) {
  return (static_cast<uint64_t>(id.table) << 32) | id.col;
}

int64_t PackKeys(int64_t hi, int64_t lo) {
  return static_cast<int64_t>((static_cast<uint64_t>(hi) << 32) |
                              static_cast<uint32_t>(lo));
}

bool CmpApply(CmpOp op, int64_t a, int64_t b) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
    case CmpOp::kEq:
      return a == b;
  }
  return false;
}

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

/// Join-output counter for VolcanoStats.
class CountingOp : public Operator {
 public:
  CountingOp(std::unique_ptr<Operator> child, std::shared_ptr<uint64_t> n)
      : child_(std::move(child)), n_(std::move(n)) {}

  void Open() override { child_->Open(); }
  bool Next(Row* out) override {
    if (!child_->Next(out)) return false;
    ++*n_;
    return true;
  }
  size_t Width() const override { return child_->Width(); }

 private:
  std::unique_ptr<Operator> child_;
  std::shared_ptr<uint64_t> n_;
};

/// Ordered dictionary over one string column.
struct Dict {
  std::vector<std::string> values;                // code → string
  std::shared_ptr<std::vector<int32_t>> codes;    // row → code
};

struct VEnv {
  std::unique_ptr<Operator> op;
  std::unordered_map<uint64_t, size_t> slots;

  size_t Slot(uint64_t key) const {
    const auto it = slots.find(key);
    VCQ_CHECK_MSG(it != slots.end(), "internal: slot not carried");
    return it->second;
  }
  size_t Slot(ColumnId id) const { return Slot(CKey(id)); }
};

using RowFn = std::function<int64_t(const Row&)>;

class Lowerer {
 public:
  Lowerer(const PhysicalPlan& plan, const QueryOptions& opt,
          const QueryParams& params)
      : p_(plan), q_(plan.query), opt_(opt), params_(params) {}

  QueryResult Run(VolcanoStats* stats) {
    std::set<uint64_t> needed;
    for (const Scalar& v : q_.values) Collect(v, &needed);
    if (p_.EagerAggregation()) {
      for (uint32_t i = 0; i < q_.aggs.size(); ++i)
        needed.insert(CKey(p_.AggColumn(i)));
    } else {
      for (const Aggregate& a : q_.aggs)
        if (a.has_arg) Collect(a.arg, &needed);
    }
    VEnv env = Lower(*p_.root, std::move(needed));

    const ResultSpec spec = SpecFor(q_);
    std::vector<SqlRow> rows;
    if (q_.aggs.empty() || p_.EagerAggregation())
      Project(std::move(env), &rows);
    else if (q_.grouped)
      Group(std::move(env), &rows);
    else
      Fold(std::move(env), &rows);

    if (stats != nullptr) {
      stats->joins.clear();
      stats->intermediate_tuples = 0;
      for (const auto& [label, n] : join_counts_) {
        stats->joins.push_back({label, *n});
        stats->intermediate_tuples += *n;
      }
      stats->pre_agg_groups = *pre_agg_groups_;
      stats->pre_agg_rows = *pre_agg_rows_;
    }
    if (runtime::Interrupted(opt_.cancel))
      return QueryResult::Failed(opt_.cancel->status());
    return Render(spec, std::move(rows));
  }

 private:
  void Collect(const Scalar& s, std::set<uint64_t>* out) {
    if (s.IsColumn()) out->insert(CKey(s.col));
    for (const Scalar& a : s.args) Collect(a, out);
  }

  int64_t NumOperand(const Operand& o) const {
    return o.is_param ? params_.Int(o.param) : o.num;
  }
  std::string StrOperand(const Operand& o) const {
    return o.is_param ? params_.Str(o.param) : o.str;
  }

  uint32_t TableOf(uint64_t key) const {
    if (key & kPredBit)
      return q_.filters[static_cast<uint32_t>(key)].lhs.col.table;
    return static_cast<uint32_t>(key >> 32);
  }

  const Dict& DictFor(ColumnId id) {
    const auto [it, inserted] = dicts_.try_emplace(CKey(id));
    Dict& d = it->second;
    if (!inserted) return d;
    const ColumnDef& c = q_.Column(id);
    const runtime::Relation& rel = q_.catalog->db()[q_.Table(id.table).name];
    WithPhys(c, [&](auto* tp) {
      using T = std::remove_pointer_t<decltype(tp)>;
      if constexpr (std::is_arithmetic_v<T>) {
        VCQ_CHECK_MSG(false, "dictionary over a numeric column");
      } else {
        // Code every row in first-seen order, sort only the distinct
        // values, then remap each code to its sorted rank.
        const auto span = rel.Col<T>(c.name);
        std::unordered_map<std::string_view, int32_t> seen;
        std::vector<std::string_view> distinct;
        d.codes = std::make_shared<std::vector<int32_t>>();
        d.codes->reserve(span.size());
        for (const T& v : span) {
          const auto [at, fresh] = seen.try_emplace(
              v.View(), static_cast<int32_t>(distinct.size()));
          if (fresh) distinct.push_back(v.View());
          d.codes->push_back(at->second);
        }
        std::vector<int32_t> order(distinct.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
          return distinct[a] < distinct[b];
        });
        std::vector<int32_t> rank(distinct.size());
        d.values.reserve(distinct.size());
        for (size_t r = 0; r < order.size(); ++r) {
          rank[order[r]] = static_cast<int32_t>(r);
          d.values.emplace_back(distinct[order[r]]);
        }
        for (int32_t& code : *d.codes) code = rank[code];
      }
    });
    return d;
  }

  /// Typed per-row evaluator for a string predicate, bound to the scan.
  std::function<bool(size_t)> StringPred(const Predicate& p) {
    const ColumnDef& c = q_.Column(p.lhs.col);
    const runtime::Relation& rel =
        q_.catalog->db()[q_.Table(p.lhs.col.table).name];
    return WithPhys(c, [&](auto* tp) -> std::function<bool(size_t)> {
      using T = std::remove_pointer_t<decltype(tp)>;
      if constexpr (std::is_arithmetic_v<T>) {
        VCQ_CHECK_MSG(false, "string predicate on a numeric column");
        return {};
      } else {
        const auto span = rel.Col<T>(c.name);
        switch (p.kind) {
          case PredKind::kContains:
            if constexpr (std::is_same_v<T, Varchar<55>>) {
              const std::string needle = StrOperand(p.rhs[0]);
              return [span, needle](size_t i) {
                return span[i].Contains(needle);
              };
            } else {
              VCQ_CHECK_MSG(false, "substring match on non-varchar column");
              return {};
            }
          case PredKind::kEqOr2: {
            const T a = T::From(StrOperand(p.rhs[0]));
            const T b = T::From(StrOperand(p.rhs[1]));
            return [span, a, b](size_t i) {
              return span[i] == a || span[i] == b;
            };
          }
          case PredKind::kCmp: {
            const T v = T::From(StrOperand(p.rhs[0]));
            const CmpOp op = p.cmp;
            return [span, v, op](size_t i) {
              switch (op) {
                case CmpOp::kLt:
                  return span[i] < v;
                case CmpOp::kLe:
                  return span[i] <= v;
                case CmpOp::kGt:
                  return span[i] > v;
                case CmpOp::kGe:
                  return span[i] >= v;
                case CmpOp::kEq:
                  return span[i] == v;
              }
              return false;
            };
          }
        }
        return {};
      }
    });
  }

  RowFn Eval(const Scalar& s, const VEnv& env) const {
    switch (s.op) {
      case ScalarOp::kColumn: {
        const size_t slot = env.Slot(s.col);
        return [slot](const Row& r) { return r[slot]; };
      }
      case ScalarOp::kConst: {
        const int64_t v = s.value;
        return [v](const Row&) { return v; };
      }
      case ScalarOp::kYear: {
        const RowFn a = Eval(s.args[0], env);
        return [a](const Row& r) {
          return runtime::YearOf(static_cast<int32_t>(a(r)));
        };
      }
      case ScalarOp::kAdd: {
        const RowFn a = Eval(s.args[0], env);
        const RowFn b = Eval(s.args[1], env);
        return [a, b](const Row& r) { return a(r) + b(r); };
      }
      case ScalarOp::kSub: {
        const RowFn a = Eval(s.args[0], env);
        const RowFn b = Eval(s.args[1], env);
        return [a, b](const Row& r) { return a(r) - b(r); };
      }
      case ScalarOp::kMul: {
        const RowFn a = Eval(s.args[0], env);
        const RowFn b = Eval(s.args[1], env);
        return [a, b](const Row& r) { return a(r) * b(r); };
      }
    }
    VCQ_CHECK_MSG(false, "unhandled scalar op");
    std::abort();
  }

  void ApplyFilters(const JoinTree& t, VEnv* env) {
    if (t.filters.empty()) return;
    std::vector<std::function<bool(const Row&)>> preds;
    for (const uint32_t f : t.filters) {
      const Predicate& p = q_.filters[f];
      if (p.is_string) {
        const size_t slot = env->Slot(kPredBit | f);
        preds.push_back([slot](const Row& r) { return r[slot] != 0; });
        continue;
      }
      const RowFn lhs = Eval(p.lhs, *env);
      switch (p.kind) {
        case PredKind::kEqOr2: {
          const int64_t a = NumOperand(p.rhs[0]);
          const int64_t b = NumOperand(p.rhs[1]);
          preds.push_back([lhs, a, b](const Row& r) {
            const int64_t v = lhs(r);
            return v == a || v == b;
          });
          break;
        }
        case PredKind::kCmp: {
          const int64_t v = NumOperand(p.rhs[0]);
          const CmpOp op = p.cmp;
          preds.push_back(
              [lhs, v, op](const Row& r) { return CmpApply(op, lhs(r), v); });
          break;
        }
        case PredKind::kContains:
          VCQ_CHECK_MSG(false, "substring predicate on a numeric column");
      }
    }
    env->op = std::make_unique<SelectOp>(
        std::move(env->op), [preds](const Row& r) {
          for (const auto& p : preds)
            if (!p(r)) return false;
          return true;
        });
  }

  VEnv Lower(const JoinTree& t, std::set<uint64_t> needed) {
    // A pre-aggregated leaf scans what its group-by reads instead.
    if (t.PreAggregated()) {
      needed.clear();
      for (const ColumnId c : t.group_keys) needed.insert(CKey(c));
      for (const Aggregate& a : q_.aggs)
        if (a.has_arg) Collect(a.arg, &needed);
    }
    for (const uint32_t f : t.filters) {
      const Predicate& p = q_.filters[f];
      if (p.is_string)
        needed.insert(kPredBit | f);
      else
        Collect(p.lhs, &needed);
    }
    return t.IsLeaf() ? Leaf(t, needed) : Join(t, needed);
  }

  /// Eager aggregation's leaf, above its filtered scan: group by the
  /// leaf's keys (slots 0..k-1) with every aggregate (slots k..), then
  /// HAVING.
  VEnv PreAggregate(const JoinTree& t, VEnv in) {
    std::vector<Scalar> keys;
    for (const ColumnId c : t.group_keys) keys.push_back(ColumnScalar(q_, c));
    VEnv env;
    env.op = Aggregated(std::move(in), keys, pre_agg_groups_, pre_agg_rows_);
    for (size_t i = 0; i < keys.size(); ++i)
      env.slots[CKey(t.group_keys[i])] = i;
    for (uint32_t i = 0; i < q_.aggs.size(); ++i)
      env.slots[CKey(p_.AggColumn(i))] = keys.size() + i;
    return env;
  }

  VEnv Leaf(const JoinTree& t, const std::set<uint64_t>& needed) {
    const auto table = static_cast<uint32_t>(t.table);
    const TableDef& def = q_.Table(table);
    const runtime::Relation& rel = q_.catalog->db()[def.name];
    auto scan = std::make_unique<ScanOp>(def.tuple_count, opt_.cancel);
    VEnv env;
    for (const uint64_t key : needed) {
      if (TableOf(key) != table) continue;
      if (key & kPredBit) {
        const auto fn = StringPred(q_.filters[static_cast<uint32_t>(key)]);
        env.slots[key] =
            scan->AddAccessor([fn](size_t i) { return fn(i) ? 1 : 0; });
        continue;
      }
      const ColumnId id{static_cast<uint32_t>(key >> 32),
                        static_cast<uint32_t>(key)};
      const ColumnDef& c = q_.Column(id);
      env.slots[key] = WithPhys(c, [&](auto* tp) -> size_t {
        using T = std::remove_pointer_t<decltype(tp)>;
        if constexpr (std::is_arithmetic_v<T>) {
          const auto span = rel.Col<T>(c.name);
          return scan->AddAccessor(
              [span](size_t i) { return static_cast<int64_t>(span[i]); });
        } else {
          const auto codes = DictFor(id).codes;
          return scan->AddAccessor(
              [codes](size_t i) { return (*codes)[i]; });
        }
      });
    }
    env.op = std::move(scan);
    ApplyFilters(t, &env);
    if (t.PreAggregated()) return PreAggregate(t, std::move(env));
    return env;
  }

  std::string MaskNames(uint32_t mask) const {
    std::string out;
    for (uint32_t i = 0; i < q_.tables.size(); ++i) {
      if (((mask >> i) & 1) == 0) continue;
      if (!out.empty()) out += ",";
      out += q_.Table(i).name;
    }
    return out;
  }

  VEnv Join(const JoinTree& t, const std::set<uint64_t>& needed) {
    std::set<uint64_t> bneed;
    std::set<uint64_t> pneed;
    for (const uint64_t key : needed)
      ((t.build->mask >> TableOf(key)) & 1 ? bneed : pneed).insert(key);
    // keys[i] = {build column, probe column} (optimizer orientation).
    for (const auto& k : t.keys) {
      bneed.insert(CKey(k[0]));
      pneed.insert(CKey(k[1]));
    }
    VEnv b = Lower(*t.build, std::move(bneed));
    VEnv p = Lower(*t.probe, std::move(pneed));

    size_t bkey;
    size_t pkey;
    if (t.keys.size() == 1) {
      bkey = b.Slot(t.keys[0][0]);
      pkey = p.Slot(t.keys[0][1]);
    } else {
      // Composite (two int32 pairs, binder-enforced): pack both sides.
      VCQ_CHECK(t.keys.size() == 2);
      auto bproj = std::make_unique<ProjectOp>(std::move(b.op));
      const size_t b0 = b.Slot(t.keys[0][0]);
      const size_t b1 = b.Slot(t.keys[1][0]);
      bkey = bproj->AddExpr(
          [b0, b1](const Row& r) { return PackKeys(r[b0], r[b1]); });
      b.op = std::move(bproj);
      auto pproj = std::make_unique<ProjectOp>(std::move(p.op));
      const size_t p0 = p.Slot(t.keys[0][1]);
      const size_t p1 = p.Slot(t.keys[1][1]);
      pkey = pproj->AddExpr(
          [p0, p1](const Row& r) { return PackKeys(r[p0], r[p1]); });
      p.op = std::move(pproj);
    }

    std::vector<size_t> payload;
    std::vector<uint64_t> payload_keys;
    for (const uint64_t key : needed) {
      if (((t.build->mask >> TableOf(key)) & 1) == 0) continue;
      payload_keys.push_back(key);
      payload.push_back(b.Slot(key));
    }
    const size_t probe_width = p.op->Width();

    VEnv env;
    for (const uint64_t key : needed)
      if (((t.build->mask >> TableOf(key)) & 1) == 0)
        env.slots[key] = p.Slot(key);
    for (size_t i = 0; i < payload_keys.size(); ++i)
      env.slots[payload_keys[i]] = probe_width + i;

    auto join = std::make_unique<HashJoinOp>(std::move(b.op), std::move(p.op),
                                             bkey, pkey, std::move(payload));
    auto n = std::make_shared<uint64_t>(0);
    join_counts_.emplace_back(
        MaskNames(t.build->mask) + " x " + MaskNames(t.probe->mask), n);
    env.op = std::make_unique<CountingOp>(std::move(join), std::move(n));
    ApplyFilters(t, &env);
    return env;
  }

  /// Per-output-slot decoder used by the drain loops.
  std::function<SqlValue(const Row&, size_t)> Decoder(const Scalar& v) {
    if (v.IsColumn() && v.type.kind == TypeKind::kString) {
      const Dict* d = &DictFor(v.col);
      return [d](const Row& r, size_t slot) {
        return SqlValue::Str(d->values[static_cast<size_t>(r[slot])]);
      };
    }
    return [](const Row& r, size_t slot) { return SqlValue::Num(r[slot]); };
  }

  /// The values; under eager aggregation followed by the carried
  /// aggregates (the [values, aggs] slot layout of logical.h).
  void Project(VEnv env, std::vector<SqlRow>* rows) {
    std::vector<RowFn> fns;
    std::vector<std::function<SqlValue(int64_t)>> decode;
    for (const Scalar& v : q_.values) {
      fns.push_back(Eval(v, env));
      if (v.IsColumn() && v.type.kind == TypeKind::kString) {
        const Dict* d = &DictFor(v.col);
        decode.emplace_back([d](int64_t code) {
          return SqlValue::Str(d->values[static_cast<size_t>(code)]);
        });
      } else {
        decode.emplace_back(
            [](int64_t x) { return SqlValue::Num(x); });
      }
    }
    if (p_.EagerAggregation()) {
      for (uint32_t i = 0; i < q_.aggs.size(); ++i) {
        const size_t slot = env.Slot(CKey(p_.AggColumn(i)));
        fns.push_back([slot](const Row& r) { return r[slot]; });
        decode.emplace_back([](int64_t x) { return SqlValue::Num(x); });
      }
    }
    env.op->Open();
    Row row;
    while (env.op->Next(&row)) {
      SqlRow out;
      out.reserve(fns.size());
      for (size_t i = 0; i < fns.size(); ++i)
        out.push_back(decode[i](fns[i](row)));
      rows->push_back(std::move(out));
    }
  }

  /// Groups `env` by `keys` computing every aggregate, then applies
  /// HAVING. Output slots: the keys, then the aggregates. Non-null
  /// counters receive the group count and the rows left after HAVING.
  std::unique_ptr<Operator> Aggregated(VEnv env,
                                       const std::vector<Scalar>& keys,
                                       std::shared_ptr<uint64_t> groups,
                                       std::shared_ptr<uint64_t> kept) {
    std::unique_ptr<Operator> op = std::move(env.op);
    ProjectOp* proj = nullptr;
    auto ensure_proj = [&]() -> ProjectOp& {
      if (proj == nullptr) {
        auto p = std::make_unique<ProjectOp>(std::move(op));
        proj = p.get();
        op = std::move(p);
      }
      return *proj;
    };
    std::vector<size_t> key_slots;
    for (const Scalar& v : keys) {
      if (v.IsColumn()) {
        key_slots.push_back(env.Slot(v.col));
        continue;
      }
      const RowFn fn = Eval(v, env);
      key_slots.push_back(ensure_proj().AddExpr(fn));
    }
    std::vector<size_t> arg_slots(q_.aggs.size(), SIZE_MAX);
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      const Aggregate& a = q_.aggs[i];
      if (!a.has_arg) continue;
      if (a.arg.IsColumn()) {
        arg_slots[i] = env.Slot(a.arg.col);
      } else {
        const RowFn fn = Eval(a.arg, env);
        arg_slots[i] = ensure_proj().AddExpr(fn);
      }
    }
    auto group = std::make_unique<GroupByOp>(std::move(op), key_slots);
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      switch (q_.aggs[i].fn) {
        case ast::AggFn::kSum:
          group->AddAggOp(GroupByOp::AggOp::kSum, arg_slots[i]);
          break;
        case ast::AggFn::kCount:
          group->AddAggOp(GroupByOp::AggOp::kCount);
          break;
        case ast::AggFn::kMin:
          group->AddAggOp(GroupByOp::AggOp::kMin, arg_slots[i]);
          break;
        case ast::AggFn::kMax:
          group->AddAggOp(GroupByOp::AggOp::kMax, arg_slots[i]);
          break;
        case ast::AggFn::kAvg:
          VCQ_CHECK_MSG(false, "AVG is lowered to SUM/COUNT by the binder");
      }
    }
    op = std::move(group);
    if (groups != nullptr)
      op = std::make_unique<CountingOp>(std::move(op), std::move(groups));
    if (!q_.having.empty()) {
      std::vector<std::function<bool(const Row&)>> preds;
      for (const HavingPred& h : q_.having) {
        const size_t slot = keys.size() + h.agg;
        const int64_t v = NumOperand(h.rhs);
        const CmpOp cmp = h.cmp;
        preds.push_back(
            [slot, v, cmp](const Row& r) { return CmpApply(cmp, r[slot], v); });
      }
      op = std::make_unique<SelectOp>(std::move(op), [preds](const Row& r) {
        for (const auto& p : preds)
          if (!p(r)) return false;
        return true;
      });
    }
    if (kept != nullptr)
      op = std::make_unique<CountingOp>(std::move(op), std::move(kept));
    return op;
  }

  void Group(VEnv env, std::vector<SqlRow>* rows) {
    std::vector<std::function<SqlValue(const Row&, size_t)>> decode;
    for (const Scalar& v : q_.values) decode.push_back(Decoder(v));
    std::unique_ptr<Operator> op =
        Aggregated(std::move(env), q_.values, nullptr, nullptr);
    const size_t nkeys = q_.values.size();
    op->Open();
    Row row;
    while (op->Next(&row)) {
      SqlRow out;
      out.reserve(nkeys + q_.aggs.size());
      for (size_t i = 0; i < nkeys; ++i)
        out.push_back(decode[i](row, i));
      for (size_t j = 0; j < q_.aggs.size(); ++j)
        out.push_back(SqlValue::Num(row[nkeys + j]));
      rows->push_back(std::move(out));
    }
  }

  void Fold(VEnv env, std::vector<SqlRow>* rows) {
    std::vector<RowFn> fns(q_.aggs.size());
    std::vector<int64_t> acc(q_.aggs.size());
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      const Aggregate& a = q_.aggs[i];
      if (a.has_arg) fns[i] = Eval(a.arg, env);
      acc[i] = a.fn == ast::AggFn::kMin   ? INT64_MAX
               : a.fn == ast::AggFn::kMax ? INT64_MIN
                                          : 0;
    }
    env.op->Open();
    Row row;
    while (env.op->Next(&row)) {
      for (size_t i = 0; i < q_.aggs.size(); ++i) {
        switch (q_.aggs[i].fn) {
          case ast::AggFn::kSum:
            acc[i] += fns[i](row);
            break;
          case ast::AggFn::kCount:
            ++acc[i];
            break;
          case ast::AggFn::kMin:
            acc[i] = std::min(acc[i], fns[i](row));
            break;
          case ast::AggFn::kMax:
            acc[i] = std::max(acc[i], fns[i](row));
            break;
          case ast::AggFn::kAvg:
            VCQ_CHECK_MSG(false, "AVG is lowered to SUM/COUNT by the binder");
        }
      }
    }
    SqlRow out;
    out.reserve(acc.size());
    for (const int64_t v : acc) out.push_back(SqlValue::Num(v));
    rows->push_back(std::move(out));
  }

  const PhysicalPlan& p_;
  const BoundQuery& q_;
  const QueryOptions& opt_;
  const QueryParams& params_;
  std::unordered_map<uint64_t, Dict> dicts_;
  std::vector<std::pair<std::string, std::shared_ptr<uint64_t>>> join_counts_;
  std::shared_ptr<uint64_t> pre_agg_groups_ = std::make_shared<uint64_t>(0);
  std::shared_ptr<uint64_t> pre_agg_rows_ = std::make_shared<uint64_t>(0);
};

}  // namespace

QueryResult RunVolcano(const PhysicalPlan& plan, const QueryOptions& opt,
                       const QueryParams& params, VolcanoStats* stats) {
  return Lowerer(plan, opt, params).Run(stats);
}

}  // namespace vcq::sql
