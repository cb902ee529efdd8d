#include "sql/fuzz.h"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"

namespace vcq::sql {
namespace {

/// One foreign-key edge of the workload graph: joining `a` to `b` is
/// equality on `cond` (composite keys are pre-joined conjunctions).
struct FkEdge {
  const char* a;
  const char* b;
  const char* cond;
};

constexpr FkEdge kTpchEdges[] = {
    {"lineitem", "orders", "l_orderkey = o_orderkey"},
    {"orders", "customer", "o_custkey = c_custkey"},
    {"lineitem", "partsupp",
     "l_partkey = ps_partkey AND l_suppkey = ps_suppkey"},
    {"partsupp", "part", "ps_partkey = p_partkey"},
    {"partsupp", "supplier", "ps_suppkey = s_suppkey"},
    {"supplier", "nation", "s_nationkey = n_nationkey"},
    {"customer", "nation", "c_nationkey = n_nationkey"},
    {"nation", "region", "n_regionkey = r_regionkey"},
};

constexpr FkEdge kSsbEdges[] = {
    {"lineorder", "date", "lo_orderdate = d_datekey"},
    {"lineorder", "customer", "lo_custkey = c_custkey"},
    {"lineorder", "supplier", "lo_suppkey = s_suppkey"},
    {"lineorder", "part", "lo_partkey = p_partkey"},
};

class Generator {
 public:
  Generator(const Catalog& catalog, uint64_t seed)
      : catalog_(catalog), rng_(seed) {
    const bool ssb = catalog.Find("lineorder") != nullptr;
    edges_ = ssb ? kSsbEdges : kTpchEdges;
    edge_count_ = ssb ? std::size(kSsbEdges) : std::size(kTpchEdges);
  }

  std::string Run() {
    PickTables();
    CollectColumns();
    const bool grouped = Chance(55);
    const bool projection = !grouped && Chance(35) && !columns_.empty();
    std::string select;
    std::string tail;
    if (projection) {
      select = ProjectionList();
    } else {
      if (grouped) PickGroupKeys();
      select = AggregateList();
      if (!group_keys_.empty()) {
        tail += "GROUP BY ";
        for (size_t i = 0; i < group_keys_.size(); ++i) {
          if (i) tail += ", ";
          tail += group_keys_[i]->name;
        }
        tail += "\n";
      }
    }
    std::string sql = "SELECT " + select + "\nFROM ";
    for (size_t i = 0; i < tables_.size(); ++i) {
      if (i) sql += ", ";
      sql += tables_[i]->name;
    }
    sql += "\n";
    std::vector<std::string> preds = join_conds_;
    const size_t npred = Uniform(0, 3);
    for (size_t i = 0; i < npred; ++i) {
      std::string p = RandomPredicate();
      if (!p.empty()) preds.push_back(std::move(p));
    }
    if (!preds.empty()) {
      sql += "WHERE ";
      for (size_t i = 0; i < preds.size(); ++i) {
        if (i) sql += "\n  AND ";
        sql += preds[i];
      }
      sql += "\n";
    }
    sql += tail;
    if (Chance(50) && output_count_ > 0) {
      sql += "ORDER BY ";
      const size_t nord = Uniform(1, std::min<size_t>(2, output_count_));
      size_t first = Uniform(1, output_count_);
      for (size_t i = 0; i < nord; ++i) {
        if (i) sql += ", ";
        sql += std::to_string((first + i - 1) % output_count_ + 1);
        if (Chance(40)) sql += " DESC";
      }
      sql += "\n";
    }
    if (Chance(30)) sql += "LIMIT " + std::to_string(Uniform(1, 50)) + "\n";
    return sql;
  }

 private:
  bool Chance(int percent) { return static_cast<int>(Uniform(1, 100)) <=
                                    percent; }

  size_t Uniform(size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(rng_);
  }

  int64_t Uniform64(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

  /// Grows a random connected subtree of the FK graph (1-3 tables), so the
  /// binder's no-cross-product rule always holds and the join set is
  /// acyclic.
  void PickTables() {
    std::vector<const char*> names;
    for (const TableDef& t : catalog_.tables()) names.push_back(t.name.c_str());
    const char* start = names[Uniform(0, names.size() - 1)];
    std::vector<std::string> chosen{start};
    const size_t want = Uniform(1, 3);
    while (chosen.size() < want) {
      std::vector<const FkEdge*> frontier;
      for (size_t e = 0; e < edge_count_; ++e) {
        const FkEdge& edge = edges_[e];
        const bool has_a = Has(chosen, edge.a);
        const bool has_b = Has(chosen, edge.b);
        if (has_a != has_b) frontier.push_back(&edge);
      }
      if (frontier.empty()) break;
      const FkEdge* pick = frontier[Uniform(0, frontier.size() - 1)];
      chosen.push_back(Has(chosen, pick->a) ? pick->b : pick->a);
      join_conds_.push_back(pick->cond);
    }
    for (const std::string& name : chosen) {
      const TableDef* def = catalog_.Find(name);
      VCQ_CHECK_MSG(def != nullptr, "fuzz table missing from catalog");
      tables_.push_back(def);
    }
  }

  static bool Has(const std::vector<std::string>& v, const char* s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  }

  void CollectColumns() {
    for (const TableDef* t : tables_) {
      for (const ColumnDef& c : t->columns) {
        columns_.push_back(&c);
        owner_.push_back(t);
        if (c.type.kind == TypeKind::kNumeric) numerics_.push_back(&c);
      }
    }
  }

  /// Renders a fixed-point literal at the column's scale ("0.05", "-3.20").
  static std::string LitText(int64_t v, int scale) {
    if (v < 0) {
      std::string out = "-";
      out += LitText(-v, scale);
      return out;
    }
    if (scale == 0) return std::to_string(v);
    std::string digits = std::to_string(v);
    const size_t need = static_cast<size_t>(scale) + 1;
    if (digits.size() < need)
      digits.insert(0, need - digits.size(), '0');
    const size_t point = digits.size() - static_cast<size_t>(scale);
    std::string out(digits, 0, point);
    out += '.';
    out.append(digits, point);
    return out;
  }

  std::string RandomPredicate() {
    const ColumnDef* col = columns_[Uniform(0, columns_.size() - 1)];
    const TableDef* owner = owner_[ColumnIndex(col)];
    if (col->type.kind == TypeKind::kString) {
      if (owner->tuple_count == 0) return {};
      const std::string a = SampleString(
          catalog_, *owner, *col, Uniform(0, owner->tuple_count - 1));
      if (Chance(30)) {
        const std::string b = SampleString(
            catalog_, *owner, *col, Uniform(0, owner->tuple_count - 1));
        return col->name + " IN ('" + a + "', '" + b + "')";
      }
      return col->name + " = '" + a + "'";
    }
    if (col->type.kind == TypeKind::kDate || !col->stats.valid) return {};
    const int64_t lo = col->stats.min;
    const int64_t hi = col->stats.max;
    if (Chance(30)) {
      int64_t a = Uniform64(lo, hi);
      int64_t b = Uniform64(lo, hi);
      if (a > b) std::swap(a, b);
      return col->name + " BETWEEN " + LitText(a, col->type.scale) + " AND " +
             LitText(b, col->type.scale);
    }
    static constexpr const char* kOps[] = {"<", "<=", ">", ">=", "="};
    // Equality only for low-cardinality domains, so it is not always empty.
    const size_t op = hi - lo < 100 ? Uniform(0, 4) : Uniform(0, 3);
    return col->name + " " + kOps[op] + " " +
           LitText(Uniform64(lo, hi), col->type.scale);
  }

  size_t ColumnIndex(const ColumnDef* col) const {
    for (size_t i = 0; i < columns_.size(); ++i)
      if (columns_[i] == col) return i;
    return 0;
  }

  void PickGroupKeys() {
    const size_t want = Uniform(1, 2);
    for (size_t tries = 0; group_keys_.size() < want && tries < 8; ++tries) {
      const ColumnDef* col = columns_[Uniform(0, columns_.size() - 1)];
      if (std::find(group_keys_.begin(), group_keys_.end(), col) !=
          group_keys_.end())
        continue;
      group_keys_.push_back(col);
    }
  }

  /// A numeric scalar usable as an aggregate argument: a plain column or
  /// an additive two-column expression (multiplication excluded — summing
  /// scale-4 products over a fuzz-chosen join can overflow int64).
  std::string NumericScalar() {
    const ColumnDef* a = numerics_[Uniform(0, numerics_.size() - 1)];
    if (Chance(30) && numerics_.size() > 1) {
      const ColumnDef* b = numerics_[Uniform(0, numerics_.size() - 1)];
      return a->name + (Chance(50) ? " + " : " - ") + b->name;
    }
    return a->name;
  }

  std::string AggregateList() {
    std::string out;
    size_t n = 0;
    for (const ColumnDef* key : group_keys_) {
      if (n++) out += ", ";
      out += key->name;
    }
    const size_t naggs = Uniform(1, 3);
    for (size_t i = 0; i < naggs; ++i) {
      if (n++) out += ", ";
      const size_t kind = numerics_.empty() ? 0 : Uniform(0, 4);
      switch (kind) {
        case 0: out += "COUNT(*)"; break;
        case 1: out += "SUM(" + NumericScalar() + ")"; break;
        case 2: out += "MIN(" + NumericScalar() + ")"; break;
        case 3: out += "MAX(" + NumericScalar() + ")"; break;
        default: out += "AVG(" + NumericScalar() + ")"; break;
      }
      out += " AS a" + std::to_string(i);
    }
    output_count_ = n;
    return out;
  }

  std::string ProjectionList() {
    const size_t n = Uniform(1, std::min<size_t>(4, columns_.size()));
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      if (i) out += ", ";
      out += columns_[Uniform(0, columns_.size() - 1)]->name;
    }
    output_count_ = n;
    return out;
  }

  const Catalog& catalog_;
  std::mt19937_64 rng_;
  const FkEdge* edges_;
  size_t edge_count_;
  std::vector<const TableDef*> tables_;
  std::vector<std::string> join_conds_;
  std::vector<const ColumnDef*> columns_;
  std::vector<const TableDef*> owner_;
  std::vector<const ColumnDef*> numerics_;
  std::vector<const ColumnDef*> group_keys_;
  size_t output_count_ = 0;
};

}  // namespace

std::string GenerateFuzzQuery(const Catalog& catalog, uint64_t seed) {
  return Generator(catalog, seed).Run();
}

}  // namespace vcq::sql
