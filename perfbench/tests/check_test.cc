// The benchmark's result check must report a corrupted row, a missing row
// and a failed status as failures, and accept an untouched copy.
#include <cstdio>

#include "bench.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FAILED: %s\n", what);
  ++failures;
}

}  // namespace

int main() {
  using perfbench::CheckResult;
  using vcq::runtime::QueryResult;

  const std::unique_ptr<perfbench::Env> env = perfbench::MakeEnv(0.01, nullptr);
  const QueryResult reference =
      env->tpch_session->Prepare(vcq::Engine::kTectorwise, vcq::Query::kQ1)
          .Execute();
  Expect(reference.ok() && reference.rows.size() > 1, "Q1 runs at SF 0.01");

  perfbench::Tally tally;
  QueryResult same = reference;
  tally.Record(CheckResult(same, reference));
  Expect(tally.failed == 0, "an identical result passes");

  QueryResult corrupted = reference;
  corrupted.rows[1].back() += "1";
  const std::string error = CheckResult(corrupted, reference);
  tally.Record(error);
  Expect(error.find("row 1") != std::string::npos,
         "a corrupted value is reported with its row");
  Expect(tally.attempted == 2 && tally.failed == 1,
         "the corrupted row counts as one failed operation");

  QueryResult missing = reference;
  missing.rows.pop_back();
  Expect(!CheckResult(missing, reference).empty(), "a missing row fails");

  const QueryResult rejected =
      QueryResult::Failed(vcq::runtime::ExecStatus::kRejected);
  Expect(!CheckResult(rejected, reference).empty(),
         "a non-ok status fails");

  if (failures == 0) std::printf("check_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
