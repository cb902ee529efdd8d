// Figure 4: cycles per tuple split into memory-stall and other cycles as
// the scale factor grows. Paper: SF 1..100; the join queries' Typer bars
// grow mostly in stall cycles, while Tectorwise hides more miss latency
// (simple probe loops -> more outstanding loads).

#include <cstdio>
#include <vector>

#include "benchutil/bench.h"
#include "common/env_util.h"
#include "datagen/tpch.h"

int main() {
  using namespace vcq;
  const int reps = benchutil::EnvReps(2);
  std::vector<double> sfs = {1.0, 3.0};
  if (benchutil::Quick()) sfs = {0.05};
  const double extra = EnvDouble("VCQ_SF", 0);
  if (extra > 0) sfs.push_back(extra);

  benchutil::PrintHeader(
      "Figure 4: memory stalls vs data size (TPC-H, 1 thread)",
      "SF 1..100 (paper axis); memory-stall vs other cycles per tuple",
      "SF 1 and 3 (+VCQ_SF): one host's RAM caps the paper's SF 100");

  runtime::QueryOptions opt;
  opt.threads = 1;
  benchutil::Table table({"SF", "query", "engine", "ms", "cyc/tuple",
                          "stall/tuple", "stall %"});
  for (const double sf : sfs) {
    runtime::Database db = datagen::GenerateTpch(sf);
    for (Query q : TpchQueries()) {
      for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
        const auto m = benchutil::MeasureQuery(db, e, q, opt, reps);
        const double t = static_cast<double>(m.tuples);
        const double stall_share =
            m.counters.memory_stall_cycles / m.counters.cycles * 100.0;
        table.AddRow({benchutil::Fmt(sf, 2), QueryName(q), EngineName(e),
                      benchutil::Fmt(m.ms, 1),
                      benchutil::FmtCounter(m.counters.cycles / t, 1),
                      benchutil::FmtCounter(
                          m.counters.memory_stall_cycles / t, 1),
                      benchutil::FmtCounter(stall_share, 0)});
      }
    }
  }
  table.Print();
  std::printf(
      "\npaper shape: growing SF inflates stall cycles, most strongly for "
      "Typer on Q3/Q9/Q18; TW's probe loops overlap misses better.\n");
  return 0;
}
