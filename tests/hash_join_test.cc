#include "tectorwise/hash_join.h"

#include <gtest/gtest.h>

#include <map>

#include "api/session.h"
#include "datagen/tpch.h"
#include "runtime/trace.h"
#include "runtime/worker_pool.h"
#include "tectorwise/queries.h"
#include "tectorwise/steps.h"

namespace vcq::tectorwise {
namespace {

using runtime::Relation;

struct JoinConfig {
  size_t vector_size;
  size_t threads;
  bool simd;
};

class HashJoinTest : public ::testing::TestWithParam<JoinConfig> {};

// build(key, payload) x probe(fk) with a known match pattern.
TEST_P(HashJoinTest, SingleKeyJoinMatchesReference) {
  const auto [vecsize, threads, use_simd] = GetParam();
  constexpr size_t kBuild = 1000;
  constexpr size_t kProbe = 20000;
  Relation build;
  {
    auto key = build.AddColumn<int32_t>("key", kBuild);
    auto val = build.AddColumn<int64_t>("val", kBuild);
    for (size_t i = 0; i < kBuild; ++i) {
      key[i] = static_cast<int32_t>(i * 2);  // even keys only
      val[i] = static_cast<int64_t>(i) * 100;
    }
  }
  Relation probe;
  {
    auto fk = probe.AddColumn<int32_t>("fk", kProbe);
    auto w = probe.AddColumn<int64_t>("w", kProbe);
    for (size_t i = 0; i < kProbe; ++i) {
      fk[i] = static_cast<int32_t>(i % 3000);  // 1/2 hit rate on evens
      w[i] = static_cast<int64_t>(i);
    }
  }

  ExecContext ctx;
  ctx.vector_size = vecsize;
  ctx.use_simd = use_simd;
  Scan::Shared sb(kBuild, 257);
  Scan::Shared sp(kProbe, 509);
  HashJoin::Shared js(threads);

  std::atomic<int64_t> sum_val{0}, sum_w{0}, matches{0};
  std::vector<std::unique_ptr<Operator>> roots(threads);
  runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
    auto bscan = std::make_unique<Scan>(&sb, &build, vecsize);
    Slot* key = bscan->AddColumn<int32_t>("key");
    Slot* val = bscan->AddColumn<int64_t>("val");
    auto pscan = std::make_unique<Scan>(&sp, &probe, vecsize);
    Slot* fk = pscan->AddColumn<int32_t>("fk");
    Slot* w = pscan->AddColumn<int64_t>("w");

    auto hj = std::make_unique<HashJoin>(&js, std::move(bscan),
                                         std::move(pscan), ctx);
    const size_t f_key = hj->AddBuildField<int32_t>(key);
    const size_t f_val = hj->AddBuildField<int64_t>(val);
    hj->SetBuildHash(MakeHash<int32_t>(ctx, key));
    hj->SetProbeHash(MakeHash<int32_t>(ctx, fk));
    hj->AddKeyCompare<int32_t>(fk, f_key);
    Slot* o_val = hj->AddBuildOutput<int64_t>(f_val);
    Slot* o_w = hj->AddProbeOutput<int64_t>(w);

    int64_t lv = 0, lw = 0, lm = 0;
    size_t n;
    while ((n = hj->Next()) != kEndOfStream) {
      for (size_t i = 0; i < n; ++i) {
        lv += Get<int64_t>(o_val)[i];
        lw += Get<int64_t>(o_w)[i];
      }
      lm += static_cast<int64_t>(n);
    }
    sum_val += lv;
    sum_w += lw;
    matches += lm;
    roots[wid] = std::move(hj);
  });

  // Reference.
  std::map<int32_t, int64_t> ref;
  for (size_t i = 0; i < kBuild; ++i)
    ref[static_cast<int32_t>(i * 2)] = static_cast<int64_t>(i) * 100;
  int64_t ev = 0, ew = 0, em = 0;
  for (size_t i = 0; i < kProbe; ++i) {
    const auto it = ref.find(static_cast<int32_t>(i % 3000));
    if (it == ref.end()) continue;
    ev += it->second;
    ew += static_cast<int64_t>(i);
    ++em;
  }
  EXPECT_EQ(matches.load(), em);
  EXPECT_EQ(sum_val.load(), ev);
  EXPECT_EQ(sum_w.load(), ew);
}

TEST_P(HashJoinTest, CompositeKeyJoin) {
  const auto [vecsize, threads, use_simd] = GetParam();
  constexpr size_t kBuild = 500;
  constexpr size_t kProbe = 10000;
  Relation build;
  {
    auto k1 = build.AddColumn<int32_t>("k1", kBuild);
    auto k2 = build.AddColumn<int32_t>("k2", kBuild);
    auto val = build.AddColumn<int64_t>("val", kBuild);
    for (size_t i = 0; i < kBuild; ++i) {
      k1[i] = static_cast<int32_t>(i % 50);
      k2[i] = static_cast<int32_t>(i / 50);
      val[i] = static_cast<int64_t>(i);
    }
  }
  Relation probe;
  {
    auto k1 = probe.AddColumn<int32_t>("k1", kProbe);
    auto k2 = probe.AddColumn<int32_t>("k2", kProbe);
    for (size_t i = 0; i < kProbe; ++i) {
      k1[i] = static_cast<int32_t>(i % 60);     // some miss on k1
      k2[i] = static_cast<int32_t>((i / 7) % 15);  // some miss on k2
    }
  }

  ExecContext ctx;
  ctx.vector_size = vecsize;
  ctx.use_simd = use_simd;
  Scan::Shared sb(kBuild, 128);
  Scan::Shared sp(kProbe, 1024);
  HashJoin::Shared js(threads);
  std::atomic<int64_t> sum{0}, matches{0};
  std::vector<std::unique_ptr<Operator>> roots(threads);

  runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
    auto bscan = std::make_unique<Scan>(&sb, &build, vecsize);
    Slot* bk1 = bscan->AddColumn<int32_t>("k1");
    Slot* bk2 = bscan->AddColumn<int32_t>("k2");
    Slot* val = bscan->AddColumn<int64_t>("val");
    auto pscan = std::make_unique<Scan>(&sp, &probe, vecsize);
    Slot* pk1 = pscan->AddColumn<int32_t>("k1");
    Slot* pk2 = pscan->AddColumn<int32_t>("k2");

    auto hj = std::make_unique<HashJoin>(&js, std::move(bscan),
                                         std::move(pscan), ctx);
    const size_t f_k1 = hj->AddBuildField<int32_t>(bk1);
    const size_t f_k2 = hj->AddBuildField<int32_t>(bk2);
    const size_t f_val = hj->AddBuildField<int64_t>(val);
    hj->SetBuildHash(MakeHash<int32_t>(ctx, bk1));
    hj->AddBuildRehash(MakeRehash<int32_t>(ctx, bk2));
    hj->SetProbeHash(MakeHash<int32_t>(ctx, pk1));
    hj->AddProbeRehash(MakeRehash<int32_t>(ctx, pk2));
    hj->AddKeyCompare<int32_t>(pk1, f_k1);
    hj->AddKeyCompare<int32_t>(pk2, f_k2);
    Slot* o_val = hj->AddBuildOutput<int64_t>(f_val);

    int64_t lv = 0, lm = 0;
    size_t n;
    while ((n = hj->Next()) != kEndOfStream) {
      for (size_t i = 0; i < n; ++i) lv += Get<int64_t>(o_val)[i];
      lm += static_cast<int64_t>(n);
    }
    sum += lv;
    matches += lm;
    roots[wid] = std::move(hj);
  });

  std::map<std::pair<int32_t, int32_t>, int64_t> ref;
  for (size_t i = 0; i < kBuild; ++i)
    ref[{static_cast<int32_t>(i % 50), static_cast<int32_t>(i / 50)}] =
        static_cast<int64_t>(i);
  int64_t ev = 0, em = 0;
  for (size_t i = 0; i < kProbe; ++i) {
    const auto it = ref.find({static_cast<int32_t>(i % 60),
                              static_cast<int32_t>((i / 7) % 15)});
    if (it == ref.end()) continue;
    ev += it->second;
    ++em;
  }
  EXPECT_EQ(matches.load(), em);
  EXPECT_EQ(sum.load(), ev);
}

// Every build key appears kDup times, so each probe vector walks kDup
// chain rounds and produces up to kDup * vector_size rows: the join must
// still emit dense batches of at most vector_size rows.
TEST_P(HashJoinTest, DuplicateBuildKeysEmitAtMostVectorSize) {
  const auto [vecsize, threads, use_simd] = GetParam();
  constexpr size_t kKeys = 300;
  constexpr size_t kDup = 7;
  constexpr size_t kProbe = 10000;
  Relation build;
  {
    auto key = build.AddColumn<int32_t>("key", kKeys * kDup);
    auto val = build.AddColumn<int64_t>("val", kKeys * kDup);
    for (size_t i = 0; i < kKeys * kDup; ++i) {
      key[i] = static_cast<int32_t>(i % kKeys);
      val[i] = static_cast<int64_t>(i);
    }
  }
  Relation probe;
  {
    auto fk = probe.AddColumn<int32_t>("fk", kProbe);
    for (size_t i = 0; i < kProbe; ++i)
      fk[i] = static_cast<int32_t>(i % (2 * kKeys));  // 1/2 hit rate
  }

  ExecContext ctx;
  ctx.vector_size = vecsize;
  ctx.use_simd = use_simd;
  Scan::Shared sb(kKeys * kDup, 257);
  Scan::Shared sp(kProbe, 509);
  HashJoin::Shared js(threads);

  std::atomic<int64_t> sum_val{0}, matches{0};
  std::atomic<size_t> max_batch{0}, sparse_sel{0};
  std::vector<std::unique_ptr<Operator>> roots(threads);
  runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
    auto bscan = std::make_unique<Scan>(&sb, &build, vecsize);
    Slot* key = bscan->AddColumn<int32_t>("key");
    Slot* val = bscan->AddColumn<int64_t>("val");
    auto pscan = std::make_unique<Scan>(&sp, &probe, vecsize);
    Slot* fk = pscan->AddColumn<int32_t>("fk");
    auto hj = std::make_unique<HashJoin>(&js, std::move(bscan),
                                         std::move(pscan), ctx);
    const size_t f_key = hj->AddBuildField<int32_t>(key);
    const size_t f_val = hj->AddBuildField<int64_t>(val);
    hj->SetBuildHash(MakeHash<int32_t>(ctx, key));
    hj->SetProbeHash(MakeHash<int32_t>(ctx, fk));
    hj->AddKeyCompare<int32_t>(fk, f_key);
    Slot* o_val = hj->AddBuildOutput<int64_t>(f_val);

    int64_t lv = 0, lm = 0;
    size_t lmax = 0;
    size_t n;
    while ((n = hj->Next()) != kEndOfStream) {
      if (hj->sel() != nullptr) sparse_sel.fetch_add(1);
      lmax = std::max(lmax, n);
      for (size_t i = 0; i < n; ++i) lv += Get<int64_t>(o_val)[i];
      lm += static_cast<int64_t>(n);
    }
    sum_val += lv;
    matches += lm;
    size_t seen = max_batch.load();
    while (lmax > seen && !max_batch.compare_exchange_weak(seen, lmax)) {
    }
    roots[wid] = std::move(hj);
  });

  int64_t ev = 0, em = 0;
  for (size_t i = 0; i < kProbe; ++i) {
    const size_t k = i % (2 * kKeys);
    if (k >= kKeys) continue;
    for (size_t d = 0; d < kDup; ++d) {
      ev += static_cast<int64_t>(d * kKeys + k);
      ++em;
    }
  }
  EXPECT_EQ(matches.load(), em);
  EXPECT_EQ(sum_val.load(), ev);
  EXPECT_LE(max_batch.load(), vecsize);
  EXPECT_GT(max_batch.load(), 0u);
  EXPECT_EQ(sparse_sel.load(), 0u);
}

TEST_P(HashJoinTest, EmptyBuildSideYieldsNoMatches) {
  const auto [vecsize, threads, use_simd] = GetParam();
  Relation build;
  build.AddColumn<int32_t>("key", 0);
  Relation probe;
  {
    auto fk = probe.AddColumn<int32_t>("fk", 1000);
    for (size_t i = 0; i < 1000; ++i) fk[i] = static_cast<int32_t>(i);
  }
  ExecContext ctx;
  ctx.vector_size = vecsize;
  ctx.use_simd = use_simd;
  Scan::Shared sb(0, 128);
  Scan::Shared sp(1000, 128);
  HashJoin::Shared js(threads);
  std::atomic<int64_t> matches{0};
  std::vector<std::unique_ptr<Operator>> roots(threads);
  runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
    auto bscan = std::make_unique<Scan>(&sb, &build, vecsize);
    Slot* key = bscan->AddColumn<int32_t>("key");
    auto pscan = std::make_unique<Scan>(&sp, &probe, vecsize);
    Slot* fk = pscan->AddColumn<int32_t>("fk");
    auto hj = std::make_unique<HashJoin>(&js, std::move(bscan),
                                         std::move(pscan), ctx);
    const size_t f_key = hj->AddBuildField<int32_t>(key);
    hj->SetBuildHash(MakeHash<int32_t>(ctx, key));
    hj->SetProbeHash(MakeHash<int32_t>(ctx, fk));
    hj->AddKeyCompare<int32_t>(fk, f_key);
    size_t n;
    while ((n = hj->Next()) != kEndOfStream) matches += n;
    roots[wid] = std::move(hj);
  });
  EXPECT_EQ(matches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HashJoinTest,
    ::testing::Values(JoinConfig{1024, 1, false}, JoinConfig{1024, 1, true},
                      JoinConfig{16, 1, false}, JoinConfig{1024, 4, false},
                      JoinConfig{1024, 4, true}, JoinConfig{333, 2, false}));

// A probe vector's chain-walk rounds leave as one output batch, and a
// drained vector that is still sparse rides along with the next one, so
// no join whose build keys are unique may emit more batches than its
// probe child. Both Q3 joins are such joins (customer and order keys).
TEST(HashJoinBatchTest, Q3JoinsEmitNoMoreBatchesThanTheirProbeChild) {
  const runtime::Database db = datagen::GenerateTpch(0.05);
  Session session(db);
  runtime::QueryOptions opt;
  opt.threads = 1;
  opt.trace = runtime::TraceLevel::kSpans;
  const runtime::QueryResult result =
      session.Prepare(Engine::kTectorwise, Query::kQ3, opt).Execute();
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.trace, nullptr);
  const std::vector<Plan::NodeInfo> infos = PlanFor(db, "Q3").Describe();
  size_t joins = 0;
  for (uint32_t i = 0; i < infos.size(); ++i) {
    if (infos[i].kind != NodeKind::kHashJoin) continue;
    ++joins;
    ASSERT_EQ(infos[i].children.size(), 2u);
    const uint32_t probe = infos[i].children[1];
    const auto join_stats = result.trace->OperatorAt(i);
    const auto probe_stats = result.trace->OperatorAt(probe);
    EXPECT_GT(join_stats.batches, 0u) << "join #" << i;
    EXPECT_LE(join_stats.batches, probe_stats.batches)
        << "join #" << i << " probe child #" << probe;
  }
  EXPECT_EQ(joins, 2u);
}

}  // namespace
}  // namespace vcq::tectorwise
