#include "sql/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace vcq::sql {
namespace {

void FoldScalar(Scalar* s) {
  for (Scalar& a : s->args) FoldScalar(&a);
  if (s->op != ScalarOp::kAdd && s->op != ScalarOp::kSub &&
      s->op != ScalarOp::kMul)
    return;
  if (!s->args[0].IsConst() || !s->args[1].IsConst()) return;
  const int64_t a = s->args[0].value;
  const int64_t b = s->args[1].value;
  int64_t v = 0;
  switch (s->op) {
    case ScalarOp::kAdd:
      v = a + b;
      break;
    case ScalarOp::kSub:
      v = a - b;
      break;
    case ScalarOp::kMul:
      v = a * b;
      break;
    default:
      return;
  }
  s->op = ScalarOp::kConst;
  s->value = v;
  s->args.clear();
}

double ParamGuess(CmpOp cmp) { return cmp == CmpOp::kEq ? 0.1 : 0.3; }

using KeyPairs = std::vector<std::array<ColumnId, 2>>;

/// The distinct columns on one side (0 or 1) of a composite key.
std::vector<ColumnId> SideColumns(const KeyPairs& keys, int side) {
  std::vector<ColumnId> cols;
  for (const auto& k : keys)
    if (std::find(cols.begin(), cols.end(), k[side]) == cols.end())
      cols.push_back(k[side]);
  return cols;
}

/// One plan the optimizer considered. `intermediate` — join outputs plus
/// rows fed into a group-by — is what eager aggregation is judged by.
struct Candidate {
  std::unique_ptr<JoinTree> root;
  double cost = 0;
  double intermediate = 0;
};

class Optimizer {
 public:
  Optimizer(BoundQuery query, const OptimizerOptions& options) {
    plan_.query = std::move(query);
    plan_.options = options;
  }

  PhysicalPlan Run() {
    BoundQuery& q = plan_.query;
    if (plan_.options.fold_constants) {
      for (Predicate& p : q.filters) FoldScalar(&p.lhs);
      for (Scalar& v : q.values) FoldScalar(&v);
      for (Aggregate& a : q.aggs)
        if (a.has_arg) FoldScalar(&a.arg);
    }
    Candidate best = Build(-1, {});
    if (plan_.options.join_order) {
      for (uint32_t r = 0; r < q.tables.size(); ++r) {
        std::vector<ColumnId> keys = EagerKeys(r);
        if (keys.empty()) continue;
        Candidate eager = Build(static_cast<int>(r), std::move(keys));
        if (eager.intermediate < best.intermediate) {
          best = std::move(eager);
          plan_.eager_table = static_cast<int>(r);
        }
      }
    }
    plan_.root = std::move(best.root);
    plan_.cost = best.cost;
    return std::move(plan_);
  }

 private:
  const BoundQuery& q() const { return plan_.query; }

  /// One complete join tree; `eager_table` >= 0 pre-aggregates that leaf
  /// by `group_keys`.
  Candidate Build(int eager_table, std::vector<ColumnId> group_keys) {
    placed_.assign(q().filters.size(), false);
    cost_ = 0;
    double group_input = 0;
    std::vector<std::unique_ptr<JoinTree>> items;
    for (uint32_t t = 0; t < q().tables.size(); ++t) {
      const bool eager = static_cast<int>(t) == eager_table;
      items.push_back(MakeLeaf(t, eager));
      if (eager) {
        PreAggregate(items.back().get(), std::move(group_keys));
        group_input = items.back()->est_input;
      }
    }
    if (plan_.options.join_order) {
      Greedy(&items);
    } else {
      FromOrder(&items);
    }
    VCQ_CHECK(items.size() == 1);
    Candidate c;
    c.root = std::move(items[0]);

    // Anything unplaced (all filters, when pushdown is off) lands above the
    // last join.
    for (uint32_t f = 0; f < q().filters.size(); ++f) {
      if (placed_[f]) continue;
      c.root->filters.push_back(f);
      c.root->est_rows *= Selectivity(q().filters[f]);
      placed_[f] = true;
    }
    if (eager_table < 0 && q().grouped) group_input = c.root->est_rows;
    c.cost = cost_;
    c.intermediate = cost_ + group_input;
    return c;
  }

  double Ndv(ColumnId id) const {
    const ColumnDef& c = plan_.query.Column(id);
    const double rows =
        std::max<double>(1, plan_.query.Table(id.table).tuple_count);
    if (!c.stats.valid) return std::max(1.0, rows * 0.1);
    if (c.stats.unique) return rows;
    const double width =
        static_cast<double>(c.stats.max) - static_cast<double>(c.stats.min) +
        1;
    return std::clamp(width, 1.0, rows);
  }

  double Selectivity(const Predicate& p) const {
    // Parameters are unknown at plan time.
    const bool param =
        std::any_of(p.rhs.begin(), p.rhs.end(),
                    [](const Operand& o) { return o.is_param; });
    if (p.kind == PredKind::kContains) return 0.05;
    const bool plain = p.lhs.IsColumn();
    const ColumnStats* stats =
        plain ? &plan_.query.Column(p.lhs.col).stats : nullptr;
    if (p.is_string || param || stats == nullptr || !stats->valid) {
      if (p.kind == PredKind::kEqOr2) return 0.2;
      return ParamGuess(p.cmp);
    }
    const double lo = static_cast<double>(stats->min);
    const double hi = static_cast<double>(stats->max);
    const double width = hi - lo + 1;
    const double v = static_cast<double>(p.rhs[0].num);
    const double ndv = Ndv(p.lhs.col);
    double sel = 0.3;
    switch (p.kind) {
      case PredKind::kEqOr2:
        sel = 2.0 / ndv;
        break;
      case PredKind::kCmp:
        switch (p.cmp) {
          case CmpOp::kEq:
            sel = 1.0 / ndv;
            break;
          case CmpOp::kLt:
            sel = (v - lo) / width;
            break;
          case CmpOp::kLe:
            sel = (v - lo + 1) / width;
            break;
          case CmpOp::kGt:
            sel = (hi - v) / width;
            break;
          case CmpOp::kGe:
            sel = (hi - v + 1) / width;
            break;
        }
        break;
      case PredKind::kContains:
        break;
    }
    return std::clamp(sel, 0.0, 1.0);
  }

  /// Leaves get their single-table filters under pushdown; a
  /// pre-aggregated leaf always does, since it groups the filtered rows.
  std::unique_ptr<JoinTree> MakeLeaf(uint32_t t, bool eager) {
    auto leaf = std::make_unique<JoinTree>();
    leaf->table = static_cast<int>(t);
    leaf->mask = 1u << t;
    leaf->est_rows =
        std::max<double>(1, plan_.query.Table(t).tuple_count);
    if (plan_.options.pushdown || eager) {
      for (uint32_t f = 0; f < q().filters.size(); ++f) {
        if (q().filters[f].TableMask() == leaf->mask) {
          leaf->filters.push_back(f);
          leaf->est_rows *= Selectivity(q().filters[f]);
          placed_[f] = true;
        }
      }
    }
    return leaf;
  }

  // ---- eager aggregation (see optimizer.h) ----

  bool IsGroupColumn(ColumnId c) const {
    return std::any_of(
        q().values.begin(), q().values.end(),
        [&](const Scalar& v) { return v.IsColumn() && v.col == c; });
  }

  /// The pre-aggregation keys if eager aggregation may group table `r`
  /// below the joins, else empty.
  std::vector<ColumnId> EagerKeys(uint32_t r) const {
    const BoundQuery& q = this->q();
    const uint32_t rbit = 1u << r;
    if (!q.grouped || q.aggs.empty() || q.tables.size() < 2) return {};
    for (const Aggregate& a : q.aggs)
      if (a.has_arg && (a.arg.TableMask() & ~rbit) != 0) return {};
    for (const Predicate& f : q.filters)
      if ((f.TableMask() & rbit) != 0 && f.TableMask() != rbit) return {};

    // Every other table must hang off R through N:1 joins: each is reached
    // over an edge whose far-side key includes a verified unique column.
    uint32_t reached = rbit;
    for (bool grew = true; grew;) {
      grew = false;
      for (const JoinEdge& e : q.joins) {
        const uint32_t far = e.mask & ~reached;
        if ((e.mask & reached) == 0 || far == 0) continue;
        const bool onto_unique =
            std::any_of(e.keys.begin(), e.keys.end(), [&](const auto& k) {
              const ColumnId c = ((1u << k[0].table) & far) ? k[0] : k[1];
              return q.Column(c).stats.unique;
            });
        if (!onto_unique) continue;
        reached |= e.mask;
        grew = true;
      }
    }
    if (reached != (1u << q.tables.size()) - 1) return {};

    // Group by R's join columns — each in the GROUP BY, itself or through
    // its partner — plus R's own group-key columns.
    std::vector<ColumnId> keys;
    auto add = [&](ColumnId c) {
      if (std::find(keys.begin(), keys.end(), c) == keys.end())
        keys.push_back(c);
    };
    for (const JoinEdge& e : q.joins) {
      if ((e.mask & rbit) == 0) continue;
      for (const auto& k : e.keys) {
        const bool first = k[0].table == r;
        const ColumnId mine = first ? k[0] : k[1];
        const ColumnId partner = first ? k[1] : k[0];
        if (!IsGroupColumn(mine) && !IsGroupColumn(partner)) return {};
        add(mine);
      }
    }
    for (const Scalar& v : q.values) {
      if ((v.TableMask() & rbit) == 0) continue;
      if (!v.IsColumn()) return {};
      add(v.col);
    }
    return keys;
  }

  /// Turns a filtered leaf into its pre-aggregation: groups estimated as
  /// min(rows, Π key ndv), a join key capped at its partner's ndv
  /// (containment), then every HAVING conjunct's guess.
  void PreAggregate(JoinTree* leaf, std::vector<ColumnId> keys) const {
    double groups = 1;
    for (const ColumnId k : keys) {
      double ndv = Ndv(k);
      for (const JoinEdge& e : q().joins)
        for (const auto& pair : e.keys)
          for (int s = 0; s < 2; ++s)
            if (pair[s] == k) ndv = std::min(ndv, Ndv(pair[1 - s]));
      groups *= ndv;
    }
    leaf->est_input = leaf->est_rows;
    leaf->est_groups =
        std::clamp(groups, 1.0, std::max(1.0, leaf->est_rows));
    leaf->est_rows = leaf->est_groups;
    for (const HavingPred& h : q().having) leaf->est_rows *= ParamGuess(h.cmp);
    leaf->group_keys = std::move(keys);
  }

  // ---- joins ----

  /// Every key pair between the two subtrees, oriented {a col, b col}:
  /// together they are one composite key. Empty = not connected.
  KeyPairs KeysBetween(const JoinTree& a, const JoinTree& b) const {
    KeyPairs keys;
    for (const JoinEdge& e : q().joins) {
      if ((e.mask & a.mask) == 0 || (e.mask & b.mask) == 0) continue;
      if ((e.mask & ~(a.mask | b.mask)) != 0) continue;
      for (auto key : e.keys) {
        if ((1u << key[0].table) & b.mask) std::swap(key[0], key[1]);
        keys.push_back(key);
      }
    }
    return keys;
  }

  /// Distinct composite keys on one side: Π ndv of its key columns,
  /// capped at the side's estimated rows.
  double SideNdv(const JoinTree& t, const KeyPairs& keys, int side) const {
    double ndv = 1;
    for (const ColumnId c : SideColumns(keys, side)) ndv *= Ndv(c);
    return std::min(ndv, std::max(1.0, t.est_rows));
  }

  /// Containment: the fewest distinct keys a base table on `side` can
  /// hold, over the tables owning a column paired with every column of
  /// the other side. The other side can only match that many values.
  double Domain(const KeyPairs& keys, int side) const {
    const std::vector<ColumnId> cols = SideColumns(keys, side);
    const std::vector<ColumnId> others = SideColumns(keys, 1 - side);
    double domain = HUGE_VAL;
    for (const ColumnId c : cols) {
      const uint32_t t = c.table;
      const bool covers =
          std::all_of(others.begin(), others.end(), [&](ColumnId o) {
            return std::any_of(keys.begin(), keys.end(), [&](const auto& k) {
              return k[1 - side] == o && k[side].table == t;
            });
          });
      if (!covers) continue;
      double ndv = 1;
      for (const ColumnId d : cols)
        if (d.table == t) ndv *= Ndv(d);
      domain = std::min(
          {domain, ndv,
           std::max<double>(1, plan_.query.Table(t).tuple_count)});
    }
    return domain;
  }

  /// |A|·|B| / max(ndv_A, ndv_B) over the composite key (optimizer.h).
  double JoinEstimate(const JoinTree& a, const JoinTree& b,
                      const KeyPairs& keys) const {
    const double ndv_a = std::min(SideNdv(a, keys, 0), Domain(keys, 1));
    const double ndv_b = std::min(SideNdv(b, keys, 1), Domain(keys, 0));
    return std::max(1.0, a.est_rows * b.est_rows /
                             std::max({ndv_a, ndv_b, 1.0}));
  }

  /// Joins two subtrees: smaller side becomes the hash-table build (unless
  /// `keep_sides`, the join_order=off mode, which keeps `a` as build).
  std::unique_ptr<JoinTree> Merge(std::unique_ptr<JoinTree> a,
                                  std::unique_ptr<JoinTree> b,
                                  bool keep_sides) {
    KeyPairs keys = KeysBetween(*a, *b);  // {a col, b col}
    VCQ_CHECK_MSG(!keys.empty(), "merging unconnected subtrees");
    auto node = std::make_unique<JoinTree>();
    node->mask = a->mask | b->mask;
    node->est_rows = JoinEstimate(*a, *b, keys);
    if (!keep_sides && b->est_rows < a->est_rows) {
      for (auto& key : keys) std::swap(key[0], key[1]);
      std::swap(a, b);
    }
    node->keys = std::move(keys);
    node->build = std::move(a);
    node->probe = std::move(b);
    cost_ += node->est_rows;
    if (plan_.options.pushdown) {
      for (uint32_t f = 0; f < q().filters.size(); ++f) {
        if (placed_[f]) continue;
        const uint32_t m = q().filters[f].TableMask();
        if ((m & ~node->mask) == 0) {
          node->filters.push_back(f);
          node->est_rows *= Selectivity(q().filters[f]);
          placed_[f] = true;
        }
      }
    }
    return node;
  }

  void Greedy(std::vector<std::unique_ptr<JoinTree>>* items) {
    while (items->size() > 1) {
      size_t best_i = 0;
      size_t best_j = 0;
      double best = -1;
      for (size_t i = 0; i < items->size(); ++i) {
        for (size_t j = i + 1; j < items->size(); ++j) {
          const JoinTree& a = *(*items)[i];
          const JoinTree& b = *(*items)[j];
          const KeyPairs keys = KeysBetween(a, b);
          if (keys.empty()) continue;
          const double est = JoinEstimate(a, b, keys);
          if (best < 0 || est < best) {
            best = est;
            best_i = i;
            best_j = j;
          }
        }
      }
      VCQ_CHECK_MSG(best >= 0, "join graph disconnected");
      auto merged = Merge(std::move((*items)[best_i]),
                          std::move((*items)[best_j]),
                          /*keep_sides=*/false);
      (*items)[best_i] = std::move(merged);
      items->erase(items->begin() + static_cast<ptrdiff_t>(best_j));
    }
  }

  void FromOrder(std::vector<std::unique_ptr<JoinTree>>* items) {
    std::unique_ptr<JoinTree> acc = std::move((*items)[0]);
    items->erase(items->begin());
    while (!items->empty()) {
      size_t next = SIZE_MAX;
      for (size_t i = 0; i < items->size(); ++i) {
        if (!KeysBetween(*acc, *(*items)[i]).empty()) {
          next = i;
          break;
        }
      }
      VCQ_CHECK_MSG(next != SIZE_MAX, "join graph disconnected");
      acc = Merge(std::move(acc), std::move((*items)[next]),
                  /*keep_sides=*/true);
      items->erase(items->begin() + static_cast<ptrdiff_t>(next));
    }
    items->push_back(std::move(acc));
  }

  PhysicalPlan plan_;
  std::vector<bool> placed_;
  double cost_ = 0;  // Σ join estimates of the tree being built
};

std::string Estimate(double rows) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", rows);
  return buf;
}

void Dump(const PhysicalPlan& p, const JoinTree& t, int indent,
          std::string* out) {
  const BoundQuery& q = p.query;
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  auto filters = [&](const JoinTree& n) {
    std::string s;
    for (uint32_t f : n.filters)
      s += " [" + ToString(q, q.filters[f].lhs) + " " +
           CmpOpName(q.filters[f].cmp) + " ...]";
    return s;
  };
  if (t.IsLeaf()) {
    const std::string& table = q.Table(static_cast<uint32_t>(t.table)).name;
    if (!t.PreAggregated()) {
      *out += pad + "scan " + table + " est=" + Estimate(t.est_rows) +
              filters(t) + "\n";
      return;
    }
    std::string line = pad + "group " + table + " by";
    for (size_t i = 0; i < t.group_keys.size(); ++i)
      line += (i ? ", " : " ") + ToString(q, ColumnScalar(q, t.group_keys[i]));
    for (const HavingPred& h : q.having) {
      const Aggregate& a = q.aggs[h.agg];
      line += std::string(" having [") + ast::AggFnName(a.fn) + "(" +
              (a.has_arg ? ToString(q, a.arg) : "*") + ") " +
              CmpOpName(h.cmp) + " ...]";
    }
    *out += line + " est=" + Estimate(t.est_rows) +
            " groups=" + Estimate(t.est_groups) + "\n";
    *out += pad + "  scan " + table + " est=" + Estimate(t.est_input) +
            filters(t) + "\n";
    return;
  }
  std::string keys;
  for (const auto& k : t.keys) {
    keys += keys.empty() ? " on " : ", ";
    keys += ToString(q, ColumnScalar(q, k[0])) + " = " +
            ToString(q, ColumnScalar(q, k[1]));
  }
  *out += pad + "hashjoin est=" + Estimate(t.est_rows) + keys + filters(t) +
          "\n";
  Dump(p, *t.build, indent + 1, out);
  Dump(p, *t.probe, indent + 1, out);
}

}  // namespace

PhysicalPlan Optimize(BoundQuery query, const OptimizerOptions& options) {
  Optimizer opt(std::move(query), options);
  return opt.Run();
}

std::string ToString(const PhysicalPlan& plan) {
  std::string out =
      "cost=" + Estimate(plan.cost) + " (estimated join output rows)\n";
  Dump(plan, *plan.root, 0, &out);
  if (plan.EagerAggregation())
    out += "project (aggregated below the joins)\n";
  else if (plan.query.grouped || !plan.query.aggs.empty())
    out += plan.query.grouped ? "group + aggregate\n" : "aggregate\n";
  return out;
}

}  // namespace vcq::sql
