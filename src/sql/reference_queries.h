#ifndef VCQ_SQL_REFERENCE_QUERIES_H_
#define VCQ_SQL_REFERENCE_QUERIES_H_

#include <string_view>

// Hand-written SQL for every query in the studied workload
// (api/query_catalog.h), phrased so that Session::PrepareSql produces
// byte-identical results to the catalog's hand-built Typer and Tectorwise
// plans: same column aliases (the result headers), same $parameter names
// (the catalog's ParamSpecs bind directly), same fixed-point scales, same
// ORDER BY. These texts are also the only Volcano implementation of the
// catalog: Session::Prepare(kVolcano, q) compiles and runs them. The SQL
// differential test (tests/sql_differential_test.cc) holds this file to
// that contract on both lowering targets.

namespace vcq::sql {

/// The SQL text for the catalog query named `name` ("Q1", "SSB-Q4.1", ...);
/// nullptr when the name is unknown.
const char* SqlTextFor(std::string_view name);

}  // namespace vcq::sql

#endif  // VCQ_SQL_REFERENCE_QUERIES_H_
