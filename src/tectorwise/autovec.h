#ifndef VCQ_TECTORWISE_AUTOVEC_H_
#define VCQ_TECTORWISE_AUTOVEC_H_

#include <cstddef>
#include <cstdint>

#include "tectorwise/core.h"

// Two builds of the same scalar primitive kernels for the compiler
// auto-vectorization study (paper Fig. 10, which measured ICC 18's
// auto-vectorizer; ICC is unavailable here, so GCC stands in for it).
// autovec_on is compiled with -O3 and AVX-512 enabled for
// the vectorizer; autovec_off with -O3 -fno-tree-vectorize. The bench
// fig10_autovec compares instructions/element and time/element between the
// two and against the hand-written AVX-512 primitives.
//
// Callers must check CpuInfo::HasAvx512() before using autovec_on (that TU
// is compiled with AVX-512 code generation enabled).

#define VCQ_AUTOVEC_DECLARE(ns)                                            \
  namespace ns {                                                           \
  size_t SelBetweenI32Dense(size_t n, const int32_t* col, int32_t lo,      \
                            int32_t hi, pos_t* out);                       \
  size_t SelLessI64Sparse(size_t n, const pos_t* sel, const int64_t* col,  \
                          int64_t k, pos_t* out);                          \
  void HashI64Dense(size_t n, const int64_t* col, uint64_t* hashes);       \
  void MapMulI64(size_t n, const int64_t* a, const int64_t* b,             \
                 int64_t* out);                                            \
  int64_t SumI64(size_t n, const int64_t* col);                            \
  }

namespace vcq::tectorwise {
VCQ_AUTOVEC_DECLARE(autovec_off)
VCQ_AUTOVEC_DECLARE(autovec_on)
}  // namespace vcq::tectorwise

#undef VCQ_AUTOVEC_DECLARE

#endif  // VCQ_TECTORWISE_AUTOVEC_H_
