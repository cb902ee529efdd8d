#ifndef VCQ_DATAGEN_TPCH_H_
#define VCQ_DATAGEN_TPCH_H_

#include <cstdint>

#include "runtime/relation.h"

// From-scratch TPC-H data generator (paper §3.3 workload). Spec-faithful for
// every column the studied queries (Q1, Q6, Q3, Q9, Q18) read — cardinality
// formulas, date windows, value distributions, the partsupp supplier-key
// formula, p_name color words, return-flag/line-status rules — and
// deliberately omits the free-text columns (addresses, comments, phones)
// that no studied query touches. The paper runs on standard TPC-H data;
// the omission changes no studied query's result, only generation time
// and memory.
//
// Decimals are 64-bit fixed-point (scale 2 unless noted), dates are day
// numbers; see runtime/types.h.

namespace vcq::datagen {

/// TPC-H schema constants shared with query implementations.
struct TpchDates {
  static int32_t Start();       // 1992-01-01
  static int32_t Current();     // 1995-06-17 (returnflag rule)
  static int32_t OrdersEnd();   // 1998-08-02 (ENDDATE - 151 days)
};

/// Number of orders/customers/parts/suppliers at a given scale factor.
/// Fractional scale factors scale all cardinalities proportionally
/// (minimum 1), which keeps test databases tiny but structurally faithful.
struct TpchCardinalities {
  int64_t customers;
  int64_t orders;
  int64_t parts;
  int64_t suppliers;

  static TpchCardinalities For(double scale_factor);
};

/// partsupp/lineitem supplier assignment, TPC-H spec clause 4.2.3:
/// supplier i (0..3) for part `partkey` among `supplier_count` suppliers.
int32_t PartSuppSupplier(int64_t partkey, int64_t i, int64_t supplier_count);

/// p_retailprice(partkey), scale 2 (spec formula).
int64_t PartRetailPrice(int64_t partkey);

/// Generates lineitem, orders, customer, part, partsupp, supplier, nation,
/// region at `scale_factor`, using `threads` workers. Deterministic:
/// identical output for identical (scale_factor) regardless of threads.
runtime::Database GenerateTpch(double scale_factor, int threads = 0);

}  // namespace vcq::datagen

#endif  // VCQ_DATAGEN_TPCH_H_
