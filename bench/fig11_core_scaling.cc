// Figure 11 (substitution): the paper compares Skylake
// against AMD Threadripper; cross-CPU comparison is not reproducible on a
// single host, so this bench produces the per-engine queries/second vs
// %-cores-used curves (the plots' axes) on the host CPU, including the
// SMT segment past the physical core count.

#include <cstdio>
#include <thread>
#include <vector>

#include "benchutil/bench.h"
#include "datagen/tpch.h"

int main() {
  using namespace vcq;
  const double sf = benchutil::EnvSf(1.0);
  const int reps = benchutil::EnvReps(2);
  const size_t hw = benchutil::EnvThreads(0);

  benchutil::PrintHeader(
      "Figure 11: queries/second vs cores used (host CPU only)",
      "SF=100, Skylake vs Threadripper; queries/s vs % cores",
      "SF=" + benchutil::Fmt(sf, 2) + ", host threads 1.." +
          std::to_string(hw) +
          " (cross-CPU comparison not reproducible here)");

  runtime::Database db = datagen::GenerateTpch(sf);

  std::vector<size_t> counts;
  for (size_t t = 1; t < hw; t *= 2) counts.push_back(t);
  counts.push_back(hw);
  if (benchutil::Quick()) counts = {1, 2};

  benchutil::Table table({"query", "threads", "%cores", "Typer q/s",
                          "TW q/s"});
  for (Query q : TpchQueries()) {
    for (const size_t t : counts) {
      runtime::QueryOptions opt;
      opt.threads = t;
      const auto typer =
          benchutil::MeasureQuery(db, Engine::kTyper, q, opt, reps);
      const auto tw =
          benchutil::MeasureQuery(db, Engine::kTectorwise, q, opt, reps);
      table.AddRow({QueryName(q), std::to_string(t),
                    benchutil::Fmt(100.0 * t / hw, 0),
                    benchutil::Fmt(1000.0 / typer.ms, 2),
                    benchutil::Fmt(1000.0 / tw.ms, 2)});
    }
  }
  table.Print();
  std::printf(
      "\npaper shape: throughput rises with cores for both engines; the "
      "engines' relative order per query (TW ahead on joins, Typer on Q1) "
      "is preserved at every core count.\n");
  return 0;
}
