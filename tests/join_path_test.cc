#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"

// The join build/probe memory path (ISSUE 3), audited end to end:
//
//  * Probe-output accumulation under multi-threaded collectors: HashJoin
//    gathers every chain-walk round of a probe batch into one output batch
//    and carries a sparse drained batch into the next probe batch, which
//    changes the batch boundaries every collector sees; with several
//    workers the collector interleaving changes too. The matrix pins
//    byte-identity with Typer at threads {1, 8} x vector sizes {64, 1024}
//    across all nine queries.
//
//  * Spill x prefetch equivalence: in-memory (CAS) builds vs builds forced
//    to spill and be replayed by the partitioned protocol, and {staged,
//    unstaged} probes, must be unobservable in results for both engines at
//    threads {1, 8}.

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.02));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.02));
  return *db;
}

const Database& DbFor(Query q) { return IsSsbQuery(q) ? SsbDb() : TpchDb(); }

std::vector<Query> AllQueries() {
  std::vector<Query> all = TpchQueries();
  for (Query q : SsbQueries()) all.push_back(q);
  return all;
}

/// Single-threaded in-memory Typer: the anchor every configuration must
/// reproduce byte-identically.
const QueryResult& Expected(Query q) {
  static std::map<Query, QueryResult>* cache =
      new std::map<Query, QueryResult>();
  auto it = cache->find(q);
  if (it == cache->end()) {
    QueryOptions opt;
    opt.threads = 1;
    it = cache->emplace(q, RunQuery(DbFor(q), Engine::kTyper, q, opt)).first;
  }
  return it->second;
}

class JoinPathTest : public ::testing::TestWithParam<Query> {};

TEST_P(JoinPathTest, ProbeAccumulationMultiThreadedCollectors) {
  const Query q = GetParam();
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    for (const size_t vecsize : {size_t{64}, size_t{1024}}) {
      QueryOptions opt;
      opt.threads = threads;
      opt.vector_size = vecsize;
      EXPECT_EQ(RunQuery(DbFor(q), Engine::kTectorwise, q, opt), Expected(q))
          << "threads=" << threads << " vecsize=" << vecsize;
    }
  }
}

TEST_P(JoinPathTest, SpillAndPrefetchAreResultInvariant) {
  const Query q = GetParam();
  // Join queries must really spill under the forced budget, so that the
  // replay protocol builds their tables. SSB Q1.1 cannot: its only build
  // (the 365 dates of one year, contiguous in the date table) fits one
  // materialize chunk, and workers spill only completed chunks.
  const bool must_spill =
      q != Query::kQ1 && q != Query::kQ6 && q != Query::kSsbQ11;
  Session session(DbFor(q));
  for (const Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
    // The in-memory peak sets the forced-spill budget: a sixteenth of it
    // puts the spill-mode ledger under pressure early in every build.
    QueryOptions measure;
    measure.threads = 1;
    PreparedQuery measured = session.Prepare(engine, q, measure);
    ASSERT_TRUE(measured.Execute().ok());
    const size_t peak = measured.measured_peak_bytes();
    for (const bool spill : {false, true}) {
      for (const bool rof : {false, true}) {
        for (const size_t threads : {size_t{1}, size_t{8}}) {
          // simd additionally routes staged probes through the AVX-512
          // JoinCandidatesStaged variant (no-op where unsupported).
          for (const bool simd : {false, true}) {
            if (simd && engine != Engine::kTectorwise) continue;
            QueryOptions opt;
            opt.threads = threads;
            opt.rof = rof;
            opt.simd = simd;
            if (spill) {
              opt.spill = true;
              opt.memory_budget = std::max<size_t>(1, peak / 16);
            }
            const QueryResult got = session.Prepare(engine, q, opt).Execute();
            const std::string config =
                std::string(EngineName(engine)) + " spill=" +
                std::to_string(spill) + " rof=" + std::to_string(rof) +
                " threads=" + std::to_string(threads) +
                " simd=" + std::to_string(simd);
            EXPECT_EQ(got, Expected(q)) << config;
            if (spill && must_spill) {
              EXPECT_GT(got.spilled_bytes, 0u) << config;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, JoinPathTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<Query>& info) {
                           std::string name;
                           for (const char c : std::string(
                                    QueryName(info.param))) {
                             if (std::isalnum(static_cast<unsigned char>(c)))
                               name += c;
                           }
                           return name;
                         });

}  // namespace
}  // namespace vcq
