#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/types.h"

namespace perfbench {

using vcq::runtime::QueryResult;

void Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::DurationsNs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  uint64_t epoch = UINT64_MAX;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start_ns);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%llu}}",
                  (s.start_ns - epoch) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.op));
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\"," << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / v.size());
}

// ---------------------------------------------------------------------------
// Substitution parameters. Domains follow TPC-H spec §2.4 (Q1 DELTA,
// Q6 YEAR/DISCOUNT/QUANTITY, Q3 SEGMENT/DATE, Q9 COLOR, Q18 QUANTITY) and
// the SSB flights' selection ranges; every draw keeps the query's shape and
// selectivity class, so latencies move little between seeds.
// ---------------------------------------------------------------------------
namespace {

int64_t Uniform(Rng& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

template <size_t N>
std::string Pick(Rng& rng, const char* const (&options)[N]) {
  return options[Uniform(rng, 0, N - 1)];
}

std::string Date(int32_t days) { return vcq::runtime::DateToString(days); }

constexpr const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "HOUSEHOLD", "MACHINERY"};
// TPC-H P_NAME color words (spec §4.2.3); each selects ~1 part in 17.
constexpr const char* kColors[] = {
    "almond",    "antique",   "aquamarine", "azure",      "beige",
    "bisque",    "black",     "blanched",   "blue",       "blush",
    "brown",     "burlywood", "burnished",  "chartreuse", "chiffon",
    "chocolate", "coral",     "cornflower", "cornsilk",   "cream",
    "cyan",      "dark",      "deep",       "dim",        "dodger",
    "drab",      "firebrick", "floral",     "forest",     "frosted",
    "gainsboro", "ghost",     "goldenrod",  "green",      "grey",
    "honeydew",  "hot",       "indian",     "ivory",      "khaki",
    "lace",      "lavender",  "lawn",       "lemon",      "light",
    "lime",      "linen",     "magenta",    "maroon",     "medium",
    "metallic",  "midnight",  "mint",       "misty",      "moccasin",
    "navajo",    "navy",      "olive",      "orange",     "orchid",
    "pale",      "papaya",    "peach",      "peru",       "pink",
    "plum",      "powder",    "puff",       "purple",     "red",
    "rose",      "rosy",      "royal",      "saddle",     "salmon",
    "sandy",     "seashell",  "sienna",     "sky",        "slate",
    "smoke",     "snow",      "spring",     "steel",      "tan",
    "thistle",   "tomato",    "turquoise",  "violet",     "wheat",
    "white"};
constexpr const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                    "MIDDLE EAST"};

}  // namespace

Bindings DrawBindings(Query query, Rng& rng) {
  using vcq::runtime::DateFromString;
  switch (query) {
    case Query::kQ1:
      return {{"shipdate",
               Date(DateFromString("1998-12-01") -
                    static_cast<int32_t>(Uniform(rng, 60, 120)))}};
    case Query::kQ6: {
      const int year = static_cast<int>(Uniform(rng, 1993, 1997));
      const int64_t discount = Uniform(rng, 2, 9);
      return {{"shipdate_lo", std::to_string(year) + "-01-01"},
              {"shipdate_hi", std::to_string(year) + "-12-31"},
              {"discount_lo", discount - 1},
              {"discount_hi", discount + 1},
              {"quantity_max", Uniform(rng, 24, 25) * 100}};
    }
    case Query::kQ3:
      return {{"segment", Pick(rng, kSegments)},
              {"date", Date(DateFromString("1995-03-01") +
                            static_cast<int32_t>(Uniform(rng, 0, 30)))}};
    case Query::kQ9: return {{"color", Pick(rng, kColors)}};
    case Query::kQ18: return {{"quantity_min", Uniform(rng, 312, 315) * 100}};
    case Query::kSsbQ11: {
      const int64_t discount = Uniform(rng, 1, 7);
      return {{"year", Uniform(rng, 1993, 1997)},
              {"discount_lo", discount},
              {"discount_hi", discount + 2},
              {"quantity_max", Uniform(rng, 24, 26)}};
    }
    case Query::kSsbQ21:
      return {{"category", "MFGR#" + std::to_string(Uniform(rng, 1, 5)) +
                               std::to_string(Uniform(rng, 1, 5))},
              {"region", Pick(rng, kRegions)}};
    case Query::kSsbQ31:
      return {{"region", Pick(rng, kRegions)},
              {"year_lo", int64_t{1992}},
              {"year_hi", int64_t{1997}}};
    case Query::kSsbQ41: {
      const int64_t mfgr = Uniform(rng, 1, 4);
      return {{"region", Pick(rng, kRegions)},
              {"mfgr_a", "MFGR#" + std::to_string(mfgr)},
              {"mfgr_b", "MFGR#" + std::to_string(mfgr + 1)}};
    }
  }
  return {};
}

void Apply(const Bindings& bindings, vcq::PreparedQuery& prepared) {
  for (const Binding& b : bindings) {
    if (const int64_t* i = std::get_if<int64_t>(&b.value)) {
      prepared.Set(b.name, *i);
    } else {
      prepared.Set(b.name, std::get<std::string>(b.value));
    }
  }
}

std::string ToString(const Bindings& bindings) {
  std::string out;
  for (const Binding& b : bindings) {
    if (!out.empty()) out += ",";
    out += b.name + "=";
    if (const int64_t* i = std::get_if<int64_t>(&b.value)) {
      out += std::to_string(*i);
    } else {
      out += std::get<std::string>(b.value);
    }
  }
  return out;
}

std::string MetricName(Query query) {
  std::string name = vcq::QueryName(query);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

const std::vector<Query>& AllQueries() {
  static const std::vector<Query> queries = [] {
    std::vector<Query> q = vcq::TpchQueries();
    for (Query s : vcq::SsbQueries()) q.push_back(s);
    return q;
  }();
  return queries;
}

std::string CheckResult(const QueryResult& got, const QueryResult& want) {
  if (!got.ok() || !want.ok()) {
    return std::string("status ") + vcq::runtime::StatusName(got.status) +
           ", reference status " + vcq::runtime::StatusName(want.status);
  }
  if (got.column_names != want.column_names) return "column names differ";
  if (got.rows.size() != want.rows.size()) {
    return std::to_string(got.rows.size()) + " rows, expected " +
           std::to_string(want.rows.size());
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r] == want.rows[r]) continue;
    std::string got_row, want_row;
    for (const std::string& v : got.rows[r]) got_row += v + "|";
    for (const std::string& v : want.rows[r]) want_row += v + "|";
    return "row " + std::to_string(r) + " is " + got_row + " expected " +
           want_row;
  }
  return "";
}

void Tally::Record(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(error);
}

vcq::runtime::QueryOptions ThreadsOpt(size_t threads) {
  vcq::runtime::QueryOptions opt;
  opt.threads = threads;
  return opt;
}

std::unique_ptr<Env> MakeEnv(double scale_factor, Tracer* tracer) {
  auto env = std::make_unique<Env>();
  {
    Tracer::Scope span(tracer, "datagen.GenerateTpch", 0);
    env->tpch = vcq::datagen::GenerateTpch(scale_factor);
  }
  {
    Tracer::Scope span(tracer, "datagen.GenerateSsb", 0);
    env->ssb = vcq::datagen::GenerateSsb(scale_factor);
  }
  env->pool = std::make_unique<vcq::runtime::WorkerPool>();
  env->tpch_session = std::make_unique<vcq::Session>(env->tpch, *env->pool);
  env->ssb_session = std::make_unique<vcq::Session>(env->ssb, *env->pool);
  return env;
}

}  // namespace perfbench
