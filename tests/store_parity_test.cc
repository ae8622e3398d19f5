// Parity tests of the SnapshotStore-backed execution paths: for every
// algorithm (CMC, CuTS, CuTS+, CuTS*, MC2) the store-backed result must be
// *identical* — not merely equivalent — to the legacy row-oriented path,
// across seeded random databases (dense and taxi-like gappy sampling) and
// 1/2/8 worker threads. This is the contract that lets the engine switch
// every query onto the store without a behavior flag.

#include <gtest/gtest.h>

#include <thread>

#include "core/cmc.h"
#include "core/cuts.h"
#include "core/engine.h"
#include "core/mc2.h"
#include "tests/test_util.h"
#include "traj/snapshot_store.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;
using testutil::RunQuery;

constexpr size_t kThreadCounts[] = {1, 2, 8};

TrajectoryDatabase MakeDb(uint64_t seed, double keep_prob = 1.0) {
  Rng rng(seed);
  return RandomClumpyDb(rng, /*num_objects=*/24, /*ticks=*/40,
                        /*world=*/60.0, /*step=*/1.0, keep_prob);
}

TEST(StoreParityTest, CmcMatchesLegacyExactly) {
  for (const uint64_t seed : {11u, 22u, 33u}) {
    // keep_prob 0.4 approximates the taxi workload: most ticks between
    // samples exist only as interpolated virtual points.
    for (const double keep_prob : {1.0, 0.8, 0.4}) {
      const TrajectoryDatabase db = MakeDb(seed, keep_prob);
      const SnapshotStore store = SnapshotStore::Build(db);
      ConvoyQuery query{3, 4, 5.0};
      const auto legacy = Cmc(db, query);
      EXPECT_EQ(Cmc(store, query), legacy)
          << "seed " << seed << " keep_prob " << keep_prob;
      for (const size_t threads : kThreadCounts) {
        query.num_threads = threads;
        EXPECT_EQ(Cmc(store, query), legacy)
            << "seed " << seed << " keep_prob " << keep_prob << ", "
            << threads << " thread(s)";
      }
    }
  }
}

TEST(StoreParityTest, CmcRangeMatchesLegacy) {
  const TrajectoryDatabase db = MakeDb(5, 0.8);
  const SnapshotStore store = SnapshotStore::Build(db);
  ConvoyQuery query{2, 3, 5.0};
  const Tick begin = db.BeginTick() + 5;
  const Tick end = db.EndTick() - 5;
  const auto legacy = CmcRange(db, query, begin, end);
  EXPECT_EQ(CmcRange(store, query, begin, end), legacy);
  for (const size_t threads : kThreadCounts) {
    query.num_threads = threads;
    EXPECT_EQ(CmcRange(store, query, begin, end), legacy);
  }
}

TEST(StoreParityTest, CmcStatsCountEveryClustering) {
  const TrajectoryDatabase db = MakeDb(9);
  const SnapshotStore store = SnapshotStore::Build(db);
  const ConvoyQuery query{3, 4, 5.0};
  DiscoveryStats legacy_stats;
  (void)Cmc(db, query, {}, &legacy_stats);
  DiscoveryStats store_stats;
  (void)Cmc(store, query, {}, &store_stats);
  EXPECT_EQ(store_stats.num_clusterings, legacy_stats.num_clusterings);
  EXPECT_EQ(store_stats.num_convoys, legacy_stats.num_convoys);
}

TEST(StoreParityTest, Mc2MatchesLegacyExactly) {
  for (const uint64_t seed : {7u, 19u}) {
    for (const double keep_prob : {1.0, 0.4}) {
      const TrajectoryDatabase db = MakeDb(seed, keep_prob);
      const SnapshotStore store = SnapshotStore::Build(db);
      const ConvoyQuery query{3, 4, 5.0};
      Mc2Options options;
      options.theta = 0.6;
      EXPECT_EQ(Mc2(store, query, options), Mc2(db, query, options))
          << "seed " << seed << " keep_prob " << keep_prob;
    }
  }
}

// The engine executes every plan store-backed; the free functions gather
// from the rows. Equality across all CuTS variants and thread
// counts proves the store changes nothing but the derivation cost.
TEST(StoreParityTest, EngineCutsVariantsMatchLegacyExactly) {
  for (const uint64_t seed : {3u, 23u}) {
    const TrajectoryDatabase db = MakeDb(seed, /*keep_prob=*/0.8);
    const ConvoyEngine engine(db);
    for (const auto& [variant, choice] :
         {std::pair{CutsVariant::kCuts, AlgorithmChoice::kCuts},
          std::pair{CutsVariant::kCutsPlus, AlgorithmChoice::kCutsPlus},
          std::pair{CutsVariant::kCutsStar, AlgorithmChoice::kCutsStar}}) {
      for (const size_t threads : kThreadCounts) {
        ConvoyQuery query{3, 4, 5.0};
        query.num_threads = threads;
        const auto legacy = Cuts(db, query, variant);
        EXPECT_EQ(RunQuery(engine, query, choice).convoys(), legacy)
            << ToString(variant) << " seed " << seed << ", " << threads
            << " thread(s)";
      }
    }
  }
}

TEST(StoreParityTest, EngineCmcAndMc2MatchLegacyExactly) {
  const TrajectoryDatabase db = MakeDb(41, 0.7);
  const ConvoyEngine engine(db);
  for (const size_t threads : kThreadCounts) {
    ConvoyQuery query{3, 4, 5.0};
    query.num_threads = threads;
    EXPECT_EQ(RunQuery(engine, query, AlgorithmChoice::kCmc).convoys(),
              Cmc(db, query))
        << threads << " thread(s)";
    const auto plan = engine.Prepare(query, AlgorithmChoice::kMc2);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(engine.Execute(*plan).value().convoys(), Mc2(db, query))
        << threads << " thread(s)";
  }
}

TEST(StoreParityTest, PrepareReportsStoreBuildThenReuse) {
  const TrajectoryDatabase db = MakeDb(55);
  const ConvoyEngine engine(db);
  const ConvoyQuery query{3, 4, 5.0};

  const auto first = engine.Prepare(query, AlgorithmChoice::kCmc);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->store_cache, PlanCacheStatus::kMiss);  // built here
  EXPECT_EQ(first->store_ticks, SnapshotStore::Build(db).NumTicks());
  EXPECT_GT(first->store_points, 0u);

  const auto second = engine.Prepare(query, AlgorithmChoice::kCutsStar);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->store_cache, PlanCacheStatus::kHit);  // reused
  EXPECT_EQ(second->store_build_seconds, 0.0);

  // EXPLAIN surfaces the provenance.
  EXPECT_NE(first->Explain().find("snapshot store: built"),
            std::string::npos);
  EXPECT_NE(second->Explain().find("snapshot store: reused"),
            std::string::npos);
}

TEST(StoreParityTest, CutsOnlyWorkloadNeverBuildsTheStore) {
  // The CuTS family clusters simplified polylines, not snapshots: a
  // workload that never runs CMC/MC2 must never pay the columnar build.
  const TrajectoryDatabase db = MakeDb(63);
  const ConvoyEngine engine(db);
  const auto plan = engine.Prepare(ConvoyQuery{3, 4, 5.0},
                                   AlgorithmChoice::kCutsStar);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->store_cache, PlanCacheStatus::kNotApplicable);
  const auto result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(engine.PeekStore(), nullptr);  // still not built

  // Once a snapshot-consuming plan builds it, CuTS plans borrow it.
  (void)engine.Prepare(ConvoyQuery{3, 4, 5.0}, AlgorithmChoice::kCmc);
  const auto borrowing = engine.Prepare(ConvoyQuery{3, 4, 5.0},
                                        AlgorithmChoice::kCutsStar);
  ASSERT_TRUE(borrowing.ok());
  EXPECT_EQ(borrowing->store_cache, PlanCacheStatus::kHit);
  EXPECT_EQ(engine.Execute(*borrowing).value().convoys(),
            Cuts(db, ConvoyQuery{3, 4, 5.0}, CutsVariant::kCutsStar));
}

TEST(StoreParityTest, OverBudgetDatabaseDeclinesStore) {
  // A sparse feed whose ticks look like epoch seconds: two samples per
  // object, lifetimes spanning ~2^26 ticks. Materializing the store would
  // need tens of millions of interpolated points; the engine must decline
  // and plan the row-oriented path instead of OOM-ing.
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 3; ++id) {
    Trajectory traj(id);
    traj.Append(0.0, id, 0);
    traj.Append(1.0, id, Tick{1} << 26);
    db.Add(std::move(traj));
  }
  ASSERT_GT(SnapshotStore::EstimateColumnarSlots(db),
            kSnapshotStoreSlotBudget);
  const ConvoyEngine engine(db);
  EXPECT_EQ(engine.Store(1), nullptr);
  EXPECT_EQ(engine.Store(1), nullptr);  // the decline is memoized
  const auto plan = engine.Prepare(ConvoyQuery{2, 2, 5.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->store_cache, PlanCacheStatus::kNotApplicable);
  EXPECT_NE(plan->Explain().find("snapshot store: n/a"), std::string::npos);
}

TEST(StoreParityTest, EmptyDatabaseThroughEngine) {
  const ConvoyEngine engine{TrajectoryDatabase{}};
  const ConvoyQuery query{3, 4, 5.0};
  const auto plan = engine.Prepare(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->store_ticks, 0u);
  const auto result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Count(), 0u);
}

// Concurrent engine queries share one store build and one grid cache.
TEST(StoreParityTest, ConcurrentStoreAccessIsSafeAndIdentical) {
  const TrajectoryDatabase db = MakeDb(71);
  const ConvoyEngine engine(db);
  const ConvoyQuery query{3, 4, 5.0};
  const auto expected = Cmc(db, query);

  constexpr size_t kCallers = 4;
  std::vector<std::vector<Convoy>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&engine, &results, &query, i] {
      results[i] = RunQuery(engine, query, AlgorithmChoice::kCmc).convoys();
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& result : results) EXPECT_EQ(result, expected);
}

}  // namespace
}  // namespace convoy
