// Differential SQL fuzzer: generates seeded random queries inside the
// supported subset (sql/fuzz.h), runs each on Tectorwise and on the
// Volcano oracle, and exits nonzero on the first mismatch — CI runs this
// as a smoke test; longer sweeps are a command-line flag away. The oracle
// compiles its own plan with join ordering (and with it eager
// aggregation) off, so an optimizer rewrite is checked against a plan
// that does not contain it.
//
//   ./sql_fuzz [--seed 1] [--n 200] [--sf 0.01] [--ssb] [--threads 4] [-v]
//
// Seeds [seed, seed+n) are deterministic for a fixed schema: a failure
// report's seed reproduces the exact query text.

#include <cstdio>
#include <cstring>
#include <string>

#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/options.h"
#include "runtime/params.h"
#include "sql/fuzz.h"
#include "sql/sql.h"

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int n = 200;
  double sf = 0.01;
  bool ssb = false;
  unsigned threads = 4;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    if (!std::strcmp(argv[i], "--n") && i + 1 < argc) n = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--sf") && i + 1 < argc) sf = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--ssb")) ssb = true;
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    if (!std::strcmp(argv[i], "-v")) verbose = true;
  }

  std::printf("sql_fuzz: %s SF=%.2f, seeds [%llu, %llu), tectorwise x%u vs "
              "volcano\n",
              ssb ? "SSB" : "TPC-H", sf, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + n), threads);
  const vcq::runtime::Database db = ssb ? vcq::datagen::GenerateSsb(sf)
                                        : vcq::datagen::GenerateTpch(sf);
  const auto catalog = vcq::sql::MakeCatalog(db);
  vcq::sql::OptimizerOptions unordered;
  unordered.join_order = false;

  vcq::runtime::QueryOptions tw_opt;
  tw_opt.threads = threads;
  const vcq::runtime::QueryOptions volcano_opt;
  const vcq::runtime::QueryParams no_params;

  int mismatches = 0;
  for (uint64_t s = seed; s < seed + static_cast<uint64_t>(n); ++s) {
    const std::string text = vcq::sql::GenerateFuzzQuery(*catalog, s);
    if (verbose) std::printf("-- seed %llu\n%s\n",
                             static_cast<unsigned long long>(s), text.c_str());
    const vcq::sql::CompileResult compiled = vcq::sql::Compile(catalog, text);
    if (!compiled.ok()) {
      // Generated queries compile by construction — a reject is a bug.
      std::fprintf(stderr, "seed %llu FAILED to compile:\n%s\n%s\n",
                   static_cast<unsigned long long>(s), text.c_str(),
                   compiled.error->Format().c_str());
      ++mismatches;
      continue;
    }
    const vcq::runtime::QueryResult tw =
        compiled.query->LowerTectorwise().Run(tw_opt, no_params);
    const vcq::runtime::QueryResult volcano =
        vcq::sql::Compile(catalog, text, unordered)
            .query->RunVolcano(volcano_opt, no_params);
    if (tw != volcano) {
      std::fprintf(stderr,
                   "seed %llu MISMATCH:\n%s\n-- tectorwise --\n%s"
                   "-- volcano --\n%s",
                   static_cast<unsigned long long>(s), text.c_str(),
                   tw.ToString(10).c_str(), volcano.ToString(10).c_str());
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "sql_fuzz: %d/%d seeds disagreed\n", mismatches, n);
    return 1;
  }
  std::printf("sql_fuzz: %d seeds, zero mismatches\n", n);
  return 0;
}
