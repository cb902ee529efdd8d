// Figure 12 (substitution): the paper's Knights Landing
// column shows a SIMD-heavy platform; without that hardware we keep the
// experiment's SIMD dimension by scaling Tectorwise with AVX-512 primitives
// on and off across core counts, next to Typer.

#include <cstdio>
#include <vector>

#include "benchutil/bench.h"
#include "datagen/tpch.h"
#include "tectorwise/primitives_simd.h"

int main() {
  using namespace vcq;
  const double sf = benchutil::EnvSf(1.0);
  const int reps = benchutil::EnvReps(2);
  const size_t hw = benchutil::EnvThreads(0);

  benchutil::PrintHeader(
      "Figure 12: SIMD on/off scaling (Knights Landing substitution)",
      "SF=100, Skylake vs KNL vs KNL+SIMD; queries/s vs % cores",
      "SF=" + benchutil::Fmt(sf, 2) + ", TW scalar vs TW AVX-512 vs Typer" +
          (tectorwise::simd::Available() ? "" :
           " (AVX-512 unavailable: SIMD column = scalar)"));

  runtime::Database db = datagen::GenerateTpch(sf);
  std::vector<size_t> counts;
  for (size_t t = 1; t < hw; t *= 2) counts.push_back(t);
  counts.push_back(hw);
  if (benchutil::Quick()) counts = {1, 2};

  benchutil::Table table({"query", "threads", "Typer q/s", "TW q/s",
                          "TW+SIMD q/s", "SIMD gain"});
  for (Query q : TpchQueries()) {
    for (const size_t t : counts) {
      runtime::QueryOptions opt;
      opt.threads = t;
      const auto typer =
          benchutil::MeasureQuery(db, Engine::kTyper, q, opt, reps);
      const auto tw =
          benchutil::MeasureQuery(db, Engine::kTectorwise, q, opt, reps);
      opt.simd = true;
      const auto tw_simd =
          benchutil::MeasureQuery(db, Engine::kTectorwise, q, opt, reps);
      table.AddRow({QueryName(q), std::to_string(t),
                    benchutil::Fmt(1000.0 / typer.ms, 2),
                    benchutil::Fmt(1000.0 / tw.ms, 2),
                    benchutil::Fmt(1000.0 / tw_simd.ms, 2),
                    benchutil::Fmt(tw.ms / tw_simd.ms, 2)});
    }
  }
  table.Print();
  std::printf(
      "\npaper shape: SIMD helps the selection query (Q6) clearly and the "
      "join/aggregation queries only marginally — memory access, not "
      "computation, bounds them (paper Sec. 5.4).\n");
  return 0;
}
