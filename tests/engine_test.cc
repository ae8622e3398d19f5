#include "core/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/cmc.h"
#include "core/params.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;
using testutil::RunQuery;

ConvoyEngine MakeEngine(uint64_t seed) {
  Rng rng(seed);
  return ConvoyEngine(RandomClumpyDb(rng, 20, 60, 50.0, 0.8));
}

TEST(EngineTest, ExecuteCutsStarMatchesFreestandingCuts) {
  ConvoyEngine engine = MakeEngine(1);
  const ConvoyQuery query{3, 6, 4.0};
  const auto via_engine =
      RunQuery(engine, query, AlgorithmChoice::kCutsStar).convoys();
  const auto direct = Cuts(engine.db(), query, CutsVariant::kCutsStar);
  EXPECT_TRUE(SameResultSet(via_engine, direct));
}

TEST(EngineTest, ExecuteCmcMatchesCmc) {
  ConvoyEngine engine = MakeEngine(2);
  const ConvoyQuery query{3, 6, 4.0};
  EXPECT_TRUE(
      SameResultSet(RunQuery(engine, query, AlgorithmChoice::kCmc).convoys(),
                    Cmc(engine.db(), query)));
}

TEST(EngineTest, CacheReusedAcrossQueriesWithSameDelta) {
  ConvoyEngine engine = MakeEngine(3);
  CutsFilterOptions options;
  options.delta = 1.5;
  (void)RunQuery(engine, ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCutsStar,
                 options);
  EXPECT_EQ(engine.CacheSize(), 1u);
  // Different m/k/e, same simplifier+delta: no new cache entry.
  (void)RunQuery(engine, ConvoyQuery{2, 10, 3.0}, AlgorithmChoice::kCutsStar,
                 options);
  EXPECT_EQ(engine.CacheSize(), 1u);
  // Different variant -> different simplifier -> new entry.
  (void)RunQuery(engine, ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCuts,
                 options);
  EXPECT_EQ(engine.CacheSize(), 2u);
  // Different delta -> new entry.
  options.delta = 2.5;
  (void)RunQuery(engine, ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCuts,
                 options);
  EXPECT_EQ(engine.CacheSize(), 3u);
}

TEST(EngineTest, CacheKeySeparatesDeltasWithinOneMicroUnit) {
  // Regression: the cache key used to truncate delta to integer micro-units
  // (llround(delta * 1e6)), so two distinct deltas within 1e-6 of each
  // other — or any two below 1e-6 — aliased to one entry and the second
  // query silently reused the first query's simplification. The key is now
  // the exact bit pattern of delta.
  ConvoyEngine engine = MakeEngine(6);
  const ConvoyQuery query{3, 6, 4.0};
  CutsFilterOptions options;

  options.delta = 0.5;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  options.delta = 0.5000004;  // same micro-unit bucket as 0.5
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  EXPECT_EQ(engine.CacheSize(), 2u);

  // Sub-micro-unit deltas used to collapse onto bucket 0 too.
  options.delta = 1e-7;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  options.delta = 2e-7;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  EXPECT_EQ(engine.CacheSize(), 4u);
}

TEST(EngineTest, SnapshotStoreBuiltOnceAndShared) {
  ConvoyEngine engine = MakeEngine(8);
  bool reused = true;
  const auto first = engine.Store(1, &reused);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(reused);  // first call pays the build

  const auto second = engine.Store(1, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(first.get(), second.get());  // same instance, not a rebuild

  // Every query path attaches the same store: a Prepare after the manual
  // Store() call reports a cache hit.
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->store_cache, PlanCacheStatus::kHit);
}

TEST(EngineTest, CachedRunSkipsSimplifyTime) {
  ConvoyEngine engine = MakeEngine(4);
  CutsFilterOptions options;
  options.delta = 1.5;
  const ConvoyQuery query{3, 6, 4.0};
  const ConvoyResultSet first =
      RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  const ConvoyResultSet second =
      RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  EXPECT_EQ(first.plan().cache, PlanCacheStatus::kMiss);
  EXPECT_EQ(second.plan().cache, PlanCacheStatus::kHit);
  EXPECT_EQ(second.stats().simplify_seconds, 0.0);
  EXPECT_GT(first.stats().total_seconds, 0.0);
}

TEST(EngineTest, CachedResultsStayCorrect) {
  ConvoyEngine engine = MakeEngine(5);
  CutsFilterOptions options;
  options.delta = 1.2;
  for (const double e : {3.0, 4.0, 5.0}) {
    const ConvoyQuery query{2, 5, e};
    const auto got =
        RunQuery(engine, query, AlgorithmChoice::kCutsStar, options).convoys();
    EXPECT_TRUE(SameResultSet(got, Cmc(engine.db(), query))) << "e=" << e;
  }
}

// ComputeDelta runs once per e for the engine's lifetime: a second Prepare
// at the same e — here with other m and k, as in an m/k sweep — reads the
// memo and plans with the bit-identical delta. Every Prepare records into
// one trace, so the delta counters read as running totals.
TEST(EngineTest, DerivedDeltaIsMemoizedPerE) {
  const ConvoyEngine engine = MakeEngine(6);
  const ConvoyQuery query{3, 6, 4.0};
  TraceSession trace;
  const auto misses = [&trace] {
    return trace.counter(TraceCounter::kDeltaCacheMisses);
  };
  const auto hits = [&trace] {
    return trace.counter(TraceCounter::kDeltaCacheHits);
  };
  const StatusOr<QueryPlan> first =
      engine.Prepare(query, AlgorithmChoice::kCutsStar, {}, {}, &trace);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->delta_derived);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);
  EXPECT_EQ(std::bit_cast<uint64_t>(first->delta),
            std::bit_cast<uint64_t>(ComputeDelta(engine.db(), query.e)));

  const StatusOr<QueryPlan> second = engine.Prepare(
      ConvoyQuery{2, 9, 4.0}, AlgorithmChoice::kCuts, {}, {}, &trace);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(second->delta),
            std::bit_cast<uint64_t>(first->delta));

  // Another e is another key; a given delta bypasses the memo.
  ASSERT_TRUE(engine
                  .Prepare(ConvoyQuery{3, 6, 5.0}, AlgorithmChoice::kCutsStar,
                           {}, {}, &trace)
                  .ok());
  EXPECT_EQ(misses(), 2u);
  CutsFilterOptions given;
  given.delta = 1.5;
  ASSERT_TRUE(
      engine.Prepare(query, AlgorithmChoice::kCutsStar, given, {}, &trace)
          .ok());
  EXPECT_EQ(misses(), 2u);
  EXPECT_EQ(hits(), 1u);
}

}  // namespace
}  // namespace convoy
