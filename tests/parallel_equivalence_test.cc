// Property tests of the parallel execution subsystem: every algorithm must
// produce output *identical* (not merely equivalent) at every
// ConvoyQuery::num_threads, across seeded random databases and 1/2/8
// worker threads.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cmc.h"
#include "core/cuts.h"
#include "core/engine.h"
#include "core/mc2.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "traj/snapshot_store.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;
using testutil::RunQuery;
using testutil::SimplifyAndFilter;

constexpr size_t kThreadCounts[] = {1, 2, 8};

TrajectoryDatabase MakeDb(uint64_t seed, double keep_prob = 1.0) {
  Rng rng(seed);
  return RandomClumpyDb(rng, /*num_objects=*/24, /*ticks=*/40,
                        /*world=*/60.0, /*step=*/1.0, keep_prob);
}

TEST(ParallelEquivalenceTest, CmcMatchesSerialExactly) {
  for (const uint64_t seed : {11u, 22u, 33u, 44u}) {
    const TrajectoryDatabase db = MakeDb(seed);
    ConvoyQuery query{3, 4, 5.0};
    const auto serial = Cmc(db, query);
    for (const size_t threads : kThreadCounts) {
      query.num_threads = threads;
      EXPECT_EQ(Cmc(db, query), serial)
          << "seed " << seed << ", " << threads << " thread(s)";
    }
  }
}

TEST(ParallelEquivalenceTest, CmcMatchesWithRawCandidates) {
  // remove_dominated = false exercises the other finalization branch.
  const TrajectoryDatabase db = MakeDb(7);
  ConvoyQuery query{2, 3, 5.0};
  CmcOptions options;
  options.remove_dominated = false;
  const auto serial = Cmc(db, query, options);
  for (const size_t threads : kThreadCounts) {
    query.num_threads = threads;
    EXPECT_EQ(Cmc(db, query, options), serial);
  }
}

TEST(ParallelEquivalenceTest, CmcRangeMatchesSerial) {
  const TrajectoryDatabase db = MakeDb(5);
  ConvoyQuery query{2, 3, 5.0};
  const Tick begin = db.BeginTick() + 5;
  const Tick end = db.EndTick() - 5;
  const auto serial = CmcRange(db, query, begin, end);
  for (const size_t threads : kThreadCounts) {
    query.num_threads = threads;
    EXPECT_EQ(CmcRange(db, query, begin, end), serial);
  }
}

TEST(ParallelEquivalenceTest, CmcStatsCountEveryClustering) {
  const TrajectoryDatabase db = MakeDb(9);
  ConvoyQuery query{3, 4, 5.0};
  DiscoveryStats serial_stats;
  (void)Cmc(db, query, {}, &serial_stats);
  for (const size_t threads : kThreadCounts) {
    query.num_threads = threads;
    DiscoveryStats stats;
    (void)Cmc(db, query, {}, &stats);
    EXPECT_EQ(stats.num_clusterings, serial_stats.num_clusterings);
    EXPECT_EQ(stats.num_convoys, serial_stats.num_convoys);
  }
}

// Everything a CMC run hands its caller, compared across thread counts.
struct ObservedCmc {
  std::vector<Convoy> convoys;
  size_t clusterings = 0;
  std::vector<uint64_t> counters;
};

// Runs `run(&stats, &hooks)` with a trace attached, and records what it
// returned and counted.
template <typename RunFn>
ObservedCmc ObserveCmc(RunFn&& run) {
  ObservedCmc out;
  TraceSession trace;
  ExecHooks hooks;
  hooks.trace = &trace;
  DiscoveryStats stats;
  out.convoys = run(&stats, &hooks);
  out.clusterings = stats.num_clusterings;
  for (size_t c = 0; c < kNumTraceCounters; ++c) {
    out.counters.push_back(trace.counter(static_cast<TraceCounter>(c)));
  }
  return out;
}

void ExpectSameObservation(const ObservedCmc& got, const ObservedCmc& want,
                           const std::string& what) {
  EXPECT_EQ(got.convoys, want.convoys) << what;
  EXPECT_EQ(got.clusterings, want.clusterings) << what;
  for (size_t c = 0; c < kNumTraceCounters; ++c) {
    EXPECT_EQ(got.counters[c], want.counters[c])
        << what << ", counter " << ToString(static_cast<TraceCounter>(c));
  }
}

// The threaded loop clusters blocks of 256 ticks, each worker chunk
// restarting the row cursors at its first tick. A gappy database of 700
// ticks crosses two block boundaries, and the range below begins inside a
// sampling gap. Over the rows and over the store, every thread count must
// hand the caller exactly what one thread does: convoys, clusterings and
// every traced counter.
TEST(ParallelEquivalenceTest, CmcAcrossBlocksAndGapsIsIdentical) {
  Rng rng(606);
  const TrajectoryDatabase db =
      RandomClumpyDb(rng, /*num_objects=*/24, /*ticks=*/700, /*world=*/40.0,
                     /*step=*/0.5, /*keep_prob=*/0.3);
  std::optional<Tick> gap_tick;
  for (const Trajectory& traj : db.trajectories()) {
    const std::vector<TimedPoint>& samples = traj.samples();
    for (size_t i = 0; i + 1 < samples.size() && !gap_tick; ++i) {
      if (samples[i].t >= db.BeginTick() + 50 &&
          samples[i + 1].t > samples[i].t + 1) {
        gap_tick = samples[i].t + 1;
      }
    }
    if (gap_tick) break;
  }
  ASSERT_TRUE(gap_tick.has_value());
  const Tick range_begin = *gap_tick;
  const Tick range_end = db.EndTick() - 5;
  ASSERT_GT(range_end - range_begin, 2 * 256);

  ConvoyQuery query{3, 4, 4.0};
  const auto observe_all = [&](bool use_store) {
    return std::pair{
        ObserveCmc([&](DiscoveryStats* stats, const ExecHooks* hooks) {
          if (use_store) {
            return Cmc(SnapshotStore::Build(db), query, {}, stats, hooks);
          }
          return Cmc(db, query, {}, stats, hooks);
        }),
        ObserveCmc([&](DiscoveryStats* stats, const ExecHooks* hooks) {
          if (use_store) {
            return CmcRange(SnapshotStore::Build(db), query, range_begin,
                            range_end, {}, stats, hooks);
          }
          return CmcRange(db, query, range_begin, range_end, {}, stats,
                          hooks);
        })};
  };
  for (const bool use_store : {false, true}) {
    query.num_threads = 1;
    const auto [full, range] = observe_all(use_store);
    EXPECT_FALSE(full.convoys.empty());
    EXPECT_FALSE(range.convoys.empty());
    for (const size_t threads : kThreadCounts) {
      query.num_threads = threads;
      const auto [got_full, got_range] = observe_all(use_store);
      const std::string where = std::string(use_store ? "store" : "rows") +
                                ", " + std::to_string(threads) + " thread(s)";
      ExpectSameObservation(got_full, full, "Cmc over " + where);
      ExpectSameObservation(got_range, range, "CmcRange over " + where);
    }
  }
}

// MC2 clusters through CMC's sweep at query.num_threads and chains the
// clusters on the calling thread in tick order, so its reports are the
// same at every thread count, over the rows and over the store — across
// block boundaries and sampling gaps too.
TEST(ParallelEquivalenceTest, Mc2MatchesSerialOverRowsAndStore) {
  std::vector<TrajectoryDatabase> dbs;
  for (const uint64_t seed : {11u, 22u}) dbs.push_back(MakeDb(seed));
  Rng rng(606);
  dbs.push_back(RandomClumpyDb(rng, /*num_objects=*/24, /*ticks=*/700,
                               /*world=*/40.0, /*step=*/0.5,
                               /*keep_prob=*/0.3));
  for (size_t d = 0; d < dbs.size(); ++d) {
    const TrajectoryDatabase& db = dbs[d];
    ConvoyQuery query{3, 4, 4.0};
    const std::vector<Convoy> serial = Mc2(db, query);
    EXPECT_FALSE(serial.empty()) << "database " << d;
    const SnapshotStore store = SnapshotStore::Build(db);
    for (const size_t threads : kThreadCounts) {
      query.num_threads = threads;
      EXPECT_EQ(Mc2(db, query), serial)
          << "rows, database " << d << ", " << threads << " thread(s)";
      EXPECT_EQ(Mc2(store, query), serial)
          << "store, database " << d << ", " << threads << " thread(s)";
    }
  }
}

// CuTS counts the filter's partition clusterings plus refinement's
// snapshot clusterings; refinement counts per window and sums in window
// order, so the total does not depend on the thread count.
TEST(ParallelEquivalenceTest, ParallelCutsStatsCountEveryClustering) {
  const TrajectoryDatabase db = MakeDb(9, /*keep_prob=*/0.8);
  const ConvoyQuery query{3, 4, 5.0};
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    CutsFilterOptions options;
    options.lambda = 3;  // short partitions: several refinement windows
    DiscoveryStats serial_stats;
    const auto serial = Cuts(db, query, variant, options, &serial_stats);
    DiscoveryStats filter_stats;
    (void)SimplifyAndFilter(db, query, MakeFilterOptions(variant, options),
                            &filter_stats);
    // Refinement clustered something, so a dropped count would show.
    EXPECT_GT(serial_stats.num_clusterings, filter_stats.num_clusterings);
    for (const size_t threads : kThreadCounts) {
      ConvoyQuery threaded = query;
      threaded.num_threads = threads;
      DiscoveryStats stats;
      EXPECT_EQ(Cuts(db, threaded, variant, options, &stats), serial);
      EXPECT_EQ(stats.num_clusterings, serial_stats.num_clusterings)
          << ToString(variant) << ", " << threads << " thread(s)";
      EXPECT_EQ(stats.num_convoys, serial_stats.num_convoys);
    }
  }
}

TEST(ParallelEquivalenceTest, CutsFilterMatchesSerialExactly) {
  for (const uint64_t seed : {3u, 13u, 23u}) {
    // keep_prob < 1 produces irregular sampling, the harder filter input.
    const TrajectoryDatabase db = MakeDb(seed, /*keep_prob=*/0.8);
    ConvoyQuery query{3, 4, 5.0};
    for (const auto variant :
         {CutsVariant::kCuts, CutsVariant::kCutsStar}) {
      const CutsFilterOptions options = MakeFilterOptions(variant);
      query.num_threads = 1;
      const CutsFilterResult serial = SimplifyAndFilter(db, query, options);
      const std::vector<SimplifiedTrajectory> serial_simplified =
          SimplifyDatabase(db, serial.delta_used, options.simplifier, 1);
      for (const size_t threads : kThreadCounts) {
        query.num_threads = threads;
        const CutsFilterResult parallel =
            SimplifyAndFilter(db, query, options);
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
        // The simplification the filter runs on, at this thread count.
        const std::vector<SimplifiedTrajectory> simplified = SimplifyDatabase(
            db, serial.delta_used, options.simplifier, threads);
        ASSERT_EQ(simplified.size(), serial_simplified.size());
        for (size_t i = 0; i < serial_simplified.size(); ++i) {
          EXPECT_EQ(simplified[i].id(), serial_simplified[i].id());
          EXPECT_EQ(simplified[i].vertices(), serial_simplified[i].vertices())
              << ToString(variant) << " seed " << seed << ", object " << i
              << ", " << threads << " thread(s)";
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, CutsMatchesSerialAndCmc) {
  for (const uint64_t seed : {17u, 29u}) {
    const TrajectoryDatabase db = MakeDb(seed);
    ConvoyQuery query{3, 4, 5.0};
    const auto exact = Cmc(db, query);
    const auto serial = Cuts(db, query, CutsVariant::kCutsStar);
    EXPECT_TRUE(SameResultSet(serial, exact)) << "seed " << seed;
    for (const size_t threads : kThreadCounts) {
      query.num_threads = threads;
      const auto parallel = Cuts(db, query, CutsVariant::kCutsStar);
      EXPECT_EQ(parallel, serial)
          << "seed " << seed << ", " << threads << " thread(s)";
    }
  }
}

TEST(ParallelEquivalenceTest, QueryNumThreadsKnobIsResultInvariant) {
  const TrajectoryDatabase db = MakeDb(41);
  ConvoyQuery query{3, 4, 5.0};
  const auto baseline = Cuts(db, query, CutsVariant::kCutsPlus);
  const auto exact = Cmc(db, query);
  for (const size_t threads : kThreadCounts) {
    query.num_threads = threads;
    EXPECT_EQ(Cuts(db, query, CutsVariant::kCutsPlus), baseline);
    EXPECT_EQ(Cmc(db, query), exact);
  }
}

TEST(ParallelEquivalenceTest, EngineConcurrentExecuteIsSafeAndIdentical) {
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
      results[i] =
          RunQuery(engine, query, AlgorithmChoice::kCutsStar).convoys();
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& result : results) EXPECT_EQ(result, expected);
  // All callers used the same (simplifier, delta) key.
  EXPECT_EQ(engine.CacheSize(), 1u);
}

}  // namespace
}  // namespace convoy
