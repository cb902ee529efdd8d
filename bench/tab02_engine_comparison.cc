// Table 2 (substitution): the paper compares its prototypes
// against HyPer and Actian Vector; both are closed source and not
// installable here. We keep the table's purpose — locating the two
// paradigms relative to each other — with Typer (push+compilation) vs
// Tectorwise (pull+vectorization) per query. The Volcano interpreter no
// longer appears here: its job is correctness, not speed — it is the
// single-threaded differential oracle the SQL front door (src/sql/)
// checks Tectorwise against, and benchmarking an intentionally naive
// interpreter next to the prototypes only restated §1's motivation.

#include <cstdio>

#include "benchutil/bench.h"
#include "datagen/tpch.h"

int main() {
  using namespace vcq;
  const double sf = benchutil::EnvSf(0.5);
  const int reps = benchutil::EnvReps(2);
  benchutil::PrintHeader(
      "Table 2: engine comparison (HyPer ~ Typer, VectorWise ~ Tectorwise)",
      "SF=1, 1 thread: the two paradigms within small factors of each other",
      "SF=" + benchutil::Fmt(sf, 2) + ", 1 thread");

  runtime::Database db = datagen::GenerateTpch(sf);
  runtime::QueryOptions opt;
  opt.threads = 1;

  benchutil::Table table({"query", "Typer ms", "Ty build", "Ty probe",
                          "TW ms", "TW build", "TW probe", "TW/Typer"});
  for (Query q : TpchQueries()) {
    const auto typer =
        benchutil::MeasureQuery(db, Engine::kTyper, q, opt, reps);
    const auto tw =
        benchutil::MeasureQuery(db, Engine::kTectorwise, q, opt, reps);
    table.AddRow({QueryName(q), benchutil::Fmt(typer.ms, 1),
                  benchutil::Fmt(typer.build_ms, 1),
                  benchutil::Fmt(typer.probe_ms, 1), benchutil::Fmt(tw.ms, 1),
                  benchutil::Fmt(tw.build_ms, 1),
                  benchutil::Fmt(tw.probe_ms, 1),
                  benchutil::Fmt(tw.ms / typer.ms, 2)});
  }
  table.Print();
  std::printf(
      "\npaper shape: the two state-of-the-art paradigms are within small "
      "factors of each other (Table 2's headline); Volcano now serves as "
      "the SQL differential oracle instead of a bench contender.\n");
  return 0;
}
