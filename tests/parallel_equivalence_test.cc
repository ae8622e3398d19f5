// Property tests of the parallel execution subsystem: every parallel runner
// must produce output *identical* (not merely equivalent) to its serial
// counterpart, across seeded random databases and 1/2/8 worker threads.

#include <gtest/gtest.h>

#include <thread>

#include "core/cmc.h"
#include "core/cuts.h"
#include "core/engine.h"
#include "parallel/parallel_runner.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

constexpr size_t kThreadCounts[] = {1, 2, 8};

TrajectoryDatabase MakeDb(uint64_t seed, double keep_prob = 1.0) {
  Rng rng(seed);
  return RandomClumpyDb(rng, /*num_objects=*/24, /*ticks=*/40,
                        /*world=*/60.0, /*step=*/1.0, keep_prob);
}

TEST(ParallelEquivalenceTest, ParallelCmcMatchesSerialExactly) {
  for (const uint64_t seed : {11u, 22u, 33u, 44u}) {
    const TrajectoryDatabase db = MakeDb(seed);
    const ConvoyQuery query{3, 4, 5.0};
    const auto serial = Cmc(db, query);
    for (const size_t threads : kThreadCounts) {
      const auto parallel =
          ParallelCmc(db, query, {}, nullptr, threads);
      EXPECT_EQ(parallel, serial)
          << "seed " << seed << ", " << threads << " thread(s)";
    }
  }
}

TEST(ParallelEquivalenceTest, ParallelCmcMatchesWithRawCandidates) {
  // remove_dominated = false exercises the other finalization branch.
  const TrajectoryDatabase db = MakeDb(7);
  const ConvoyQuery query{2, 3, 5.0};
  CmcOptions options;
  options.remove_dominated = false;
  const auto serial = Cmc(db, query, options);
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(ParallelCmc(db, query, options, nullptr, threads), serial);
  }
}

TEST(ParallelEquivalenceTest, ParallelCmcRangeMatchesSerial) {
  const TrajectoryDatabase db = MakeDb(5);
  const ConvoyQuery query{2, 3, 5.0};
  const Tick begin = db.BeginTick() + 5;
  const Tick end = db.EndTick() - 5;
  const auto serial = CmcRange(db, query, begin, end);
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(ParallelCmcRange(db, query, begin, end, {}, nullptr, threads),
              serial);
  }
}

TEST(ParallelEquivalenceTest, ParallelCmcStatsCountEveryClustering) {
  const TrajectoryDatabase db = MakeDb(9);
  const ConvoyQuery query{3, 4, 5.0};
  DiscoveryStats serial_stats;
  (void)Cmc(db, query, {}, &serial_stats);
  for (const size_t threads : kThreadCounts) {
    DiscoveryStats stats;
    (void)ParallelCmc(db, query, {}, &stats, threads);
    EXPECT_EQ(stats.num_clusterings, serial_stats.num_clusterings);
    EXPECT_EQ(stats.num_convoys, serial_stats.num_convoys);
  }
}

// CuTS counts the filter's partition clusterings plus refinement's
// snapshot clusterings; refinement counts per window and sums in window
// order, so the total does not depend on the refinement thread count.
TEST(ParallelEquivalenceTest, ParallelCutsStatsCountEveryClustering) {
  const TrajectoryDatabase db = MakeDb(9, /*keep_prob=*/0.8);
  const ConvoyQuery query{3, 4, 5.0};
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    CutsFilterOptions options;
    options.lambda = 3;  // short partitions: several refinement windows
    DiscoveryStats serial_stats;
    options.refine_threads = 1;
    const auto serial = Cuts(db, query, variant, options, &serial_stats);
    DiscoveryStats filter_stats;
    (void)CutsFilter(db, query, MakeFilterOptions(variant, options),
                     &filter_stats);
    // Refinement clustered something, so a dropped count would show.
    EXPECT_GT(serial_stats.num_clusterings, filter_stats.num_clusterings);
    for (const size_t threads : kThreadCounts) {
      options.refine_threads = threads;
      DiscoveryStats stats;
      EXPECT_EQ(Cuts(db, query, variant, options, &stats), serial);
      EXPECT_EQ(stats.num_clusterings, serial_stats.num_clusterings)
          << ToString(variant) << ", " << threads << " refine thread(s)";
      EXPECT_EQ(stats.num_convoys, serial_stats.num_convoys);
    }
  }
}

TEST(ParallelEquivalenceTest, ParallelCutsFilterMatchesSerialExactly) {
  for (const uint64_t seed : {3u, 13u, 23u}) {
    // keep_prob < 1 produces irregular sampling, the harder filter input.
    const TrajectoryDatabase db = MakeDb(seed, /*keep_prob=*/0.8);
    const ConvoyQuery query{3, 4, 5.0};
    for (const auto variant :
         {CutsVariant::kCuts, CutsVariant::kCutsStar}) {
      const CutsFilterOptions options = MakeFilterOptions(variant);
      const CutsFilterResult serial = CutsFilter(db, query, options);
      for (const size_t threads : kThreadCounts) {
        const CutsFilterResult parallel =
            ParallelCutsFilter(db, query, options, nullptr, threads);
        EXPECT_EQ(parallel.delta_used, serial.delta_used);
        EXPECT_EQ(parallel.lambda_used, serial.lambda_used);
        ASSERT_EQ(parallel.candidates.size(), serial.candidates.size())
            << ToString(variant) << " seed " << seed << ", " << threads
            << " thread(s)";
        for (size_t i = 0; i < serial.candidates.size(); ++i) {
          EXPECT_EQ(parallel.candidates[i].objects,
                    serial.candidates[i].objects);
          EXPECT_EQ(parallel.candidates[i].start_tick,
                    serial.candidates[i].start_tick);
          EXPECT_EQ(parallel.candidates[i].end_tick,
                    serial.candidates[i].end_tick);
          EXPECT_EQ(parallel.candidates[i].lifetime,
                    serial.candidates[i].lifetime);
        }
        EXPECT_EQ(parallel.members.begin, serial.members.begin);
        EXPECT_EQ(parallel.members.length, serial.members.length);
        EXPECT_EQ(parallel.members.offsets, serial.members.offsets);
        EXPECT_EQ(parallel.members.ids, serial.members.ids);
        ASSERT_EQ(parallel.simplified.size(), serial.simplified.size());
        for (size_t i = 0; i < serial.simplified.size(); ++i) {
          EXPECT_EQ(parallel.simplified[i].NumVertices(),
                    serial.simplified[i].NumVertices());
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, ParallelCutsMatchesSerialAndCmc) {
  for (const uint64_t seed : {17u, 29u}) {
    const TrajectoryDatabase db = MakeDb(seed);
    const ConvoyQuery query{3, 4, 5.0};
    const auto exact = Cmc(db, query);
    const auto serial = Cuts(db, query, CutsVariant::kCutsStar);
    EXPECT_TRUE(SameResultSet(serial, exact)) << "seed " << seed;
    for (const size_t threads : kThreadCounts) {
      const auto parallel = ParallelCuts(db, query, CutsVariant::kCutsStar,
                                         {}, nullptr, threads);
      EXPECT_EQ(parallel, serial)
          << "seed " << seed << ", " << threads << " thread(s)";
    }
  }
}

TEST(ParallelEquivalenceTest, QueryNumThreadsKnobIsResultInvariant) {
  const TrajectoryDatabase db = MakeDb(41);
  ConvoyQuery query{3, 4, 5.0};
  const auto baseline = Cuts(db, query, CutsVariant::kCutsPlus);
  for (const size_t threads : kThreadCounts) {
    query.num_threads = threads;
    EXPECT_EQ(Cuts(db, query, CutsVariant::kCutsPlus), baseline);
    EXPECT_EQ(ParallelCmc(db, query), Cmc(db, query));
  }
}

TEST(ParallelEquivalenceTest, EngineConcurrentDiscoverIsSafeAndIdentical) {
  const TrajectoryDatabase db = MakeDb(55);
  const ConvoyQuery query{3, 4, 5.0};
  ConvoyEngine engine(db);
  const auto expected = Cuts(db, query, CutsVariant::kCutsStar);

  constexpr size_t kCallers = 4;
  std::vector<std::vector<Convoy>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&engine, &results, &query, i] {
      results[i] = engine.Discover(query, CutsVariant::kCutsStar);
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& result : results) EXPECT_EQ(result, expected);
  // All callers used the same (simplifier, delta) key.
  EXPECT_EQ(engine.CacheSize(), 1u);
}

}  // namespace
}  // namespace convoy
