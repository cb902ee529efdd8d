// Figure 10 (substitution): compiler auto-vectorization.
// The paper rebuilds Tectorwise's primitives with ICC 18's auto-vectorizer;
// ICC is unavailable, so the same scalar kernel bodies are compiled twice
// with GCC (-fno-tree-vectorize vs -O3 + AVX-512) and compared against the
// hand-written AVX-512 primitives on TPC-H-shaped data. Metrics match the
// paper: reduction of instructions and of time.

#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "benchutil/bench.h"
#include "common/cpu_info.h"
#include "runtime/perf_counters.h"
#include "tectorwise/autovec.h"
#include "tectorwise/primitives.h"
#include "tectorwise/primitives_simd.h"

namespace {

using namespace vcq;
using tectorwise::pos_t;

struct KernelStats {
  double ns_per_elem = 0;
  double instr_per_elem = 0;
};

template <typename Fn>
KernelStats MeasureKernel(size_t n, int reps, Fn&& fn) {
  // Warm up, then time and count.
  fn();
  runtime::PerfCounters counters;
  const auto start = std::chrono::steady_clock::now();
  counters.Start();
  for (int r = 0; r < reps; ++r) fn();
  const auto values = counters.Stop();
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  KernelStats s;
  s.ns_per_elem = ns / static_cast<double>(n) / reps;
  s.instr_per_elem =
      values.instructions / static_cast<double>(n) / reps;
  return s;
}

std::string Reduction(double base, double v) {
  if (base != base || v != v) return "n/a";  // NaN counters
  return benchutil::Fmt((1.0 - v / base) * 100.0, 0) + "%";
}

}  // namespace

int main() {
  using tectorwise::autovec_off::HashI64Dense;
  const size_t n = benchutil::Quick() ? (1 << 18) : (1 << 22);
  const int reps = 20;
  const bool avx512 = CpuInfo::HasAvx512();

  benchutil::PrintHeader(
      "Figure 10: compiler auto-vectorization of TW primitives",
      "ICC 18 auto-vec: 20-60% fewer instructions, ~no runtime gain",
      std::string("GCC -fno-tree-vectorize vs -O3+AVX-512 vs manual ") +
          (avx512 ? "(AVX-512 on)" : "(AVX-512 OFF: autovec/manual skipped)"));

  std::mt19937_64 rng(23);
  std::vector<int32_t> dates(n);
  std::vector<int64_t> a(n), b(n);
  std::vector<int64_t> out64(n);
  std::vector<uint64_t> hashes(n);
  std::vector<pos_t> sel, out(n);
  for (size_t i = 0; i < n; ++i) {
    dates[i] = static_cast<int32_t>(rng() % 2557);
    a[i] = static_cast<int64_t>(rng() % 10000);
    b[i] = static_cast<int64_t>(rng() % 100);
    if (i % 5 != 0) sel.push_back(static_cast<pos_t>(i));
  }

  benchutil::Table table({"kernel", "variant", "ns/elem", "instr/elem",
                          "instr. reduction", "time reduction"});
  auto report = [&](const char* kernel, const KernelStats& base,
                    const char* variant, const KernelStats& s) {
    table.AddRow({kernel, variant, benchutil::Fmt(s.ns_per_elem, 3),
                  benchutil::FmtCounter(s.instr_per_elem, 2),
                  Reduction(base.instr_per_elem, s.instr_per_elem),
                  Reduction(base.ns_per_elem, s.ns_per_elem)});
  };

  // --- selection (between, dense) -----------------------------------------
  {
    const auto base = MeasureKernel(n, reps, [&] {
      tectorwise::autovec_off::SelBetweenI32Dense(n, dates.data(), 500, 1500,
                                                  out.data());
    });
    report("sel_between_i32", base, "scalar", base);
    if (avx512) {
      report("sel_between_i32", base, "autovec",
             MeasureKernel(n, reps, [&] {
               tectorwise::autovec_on::SelBetweenI32Dense(
                   n, dates.data(), 500, 1500, out.data());
             }));
      report("sel_between_i32", base, "manual",
             MeasureKernel(n, reps, [&] {
               tectorwise::simd::SelBetweenI32Dense(n, dates.data(), 500,
                                                    1500, out.data());
             }));
    }
  }

  // --- selection (sparse) ---------------------------------------------------
  {
    const auto base = MeasureKernel(sel.size(), reps, [&] {
      tectorwise::autovec_off::SelLessI64Sparse(sel.size(), sel.data(),
                                                b.data(), 40, out.data());
    });
    report("sel_less_i64_sparse", base, "scalar", base);
    if (avx512) {
      report("sel_less_i64_sparse", base, "autovec",
             MeasureKernel(sel.size(), reps, [&] {
               tectorwise::autovec_on::SelLessI64Sparse(
                   sel.size(), sel.data(), b.data(), 40, out.data());
             }));
      report("sel_less_i64_sparse", base, "manual",
             MeasureKernel(sel.size(), reps, [&] {
               tectorwise::simd::SelLessI64Sparse(sel.size(), sel.data(),
                                                  b.data(), 40, out.data());
             }));
    }
  }

  // --- hashing ---------------------------------------------------------------
  {
    const auto base = MeasureKernel(n, reps, [&] {
      tectorwise::autovec_off::HashI64Dense(n, a.data(), hashes.data());
    });
    report("hash_murmur2_i64", base, "scalar", base);
    if (avx512) {
      report("hash_murmur2_i64", base, "autovec",
             MeasureKernel(n, reps, [&] {
               tectorwise::autovec_on::HashI64Dense(n, a.data(),
                                                    hashes.data());
             }));
      std::vector<pos_t> pos(n);
      report("hash_murmur2_i64", base, "manual",
             MeasureKernel(n, reps, [&] {
               tectorwise::simd::HashI64Compact(n, nullptr, a.data(),
                                                hashes.data(), pos.data());
             }));
    }
  }

  // --- projection -------------------------------------------------------------
  {
    const auto base = MeasureKernel(n, reps, [&] {
      tectorwise::autovec_off::MapMulI64(n, a.data(), b.data(), out64.data());
    });
    report("map_mul_i64", base, "scalar", base);
    if (avx512) {
      report("map_mul_i64", base, "autovec", MeasureKernel(n, reps, [&] {
               tectorwise::autovec_on::MapMulI64(n, a.data(), b.data(),
                                                 out64.data());
             }));
    }
  }

  // --- aggregation -----------------------------------------------------------
  {
    volatile int64_t sink = 0;
    const auto base = MeasureKernel(n, reps, [&] {
      sink = sink + tectorwise::autovec_off::SumI64(n, a.data());
    });
    report("agg_sum_i64", base, "scalar", base);
    if (avx512) {
      report("agg_sum_i64", base, "autovec", MeasureKernel(n, reps, [&] {
               sink = sink + tectorwise::autovec_on::SumI64(n, a.data());
             }));
    }
    (void)sink;
  }

  table.Print();
  std::printf(
      "\npaper shape: auto-vectorization removes 20-60%% of instructions on "
      "vectorizable kernels yet barely moves runtime; compress-store "
      "selection patterns resist GCC's vectorizer entirely (ICC with "
      "AVX-512 handled them) — auto-vec is not a fire-and-forget "
      "replacement for manual SIMD.\n");
  return 0;
}
