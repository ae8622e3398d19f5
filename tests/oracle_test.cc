// Differential test of the exact convoy algorithms against the brute-force
// Definition 3 oracle (tests/oracle.h): on small seeded databases, CMC over
// the rows, CMC over the SnapshotStore and an engine CuTS* plan must each
// return exactly the oracle's convoys, at 1 and 2 threads. One engine per
// database answers the whole (m, k, e) grid, so most of its CuTS* answers
// are served by the clustering memo and are checked against the oracle
// too.

#include "tests/oracle.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cmc.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "traj/snapshot_store.h"
#include "util/random.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

constexpr Tick kTicks = 24;
constexpr uint64_t kSeedsPerSetting = 40;

std::string Describe(uint64_t seed, size_t objects, double keep_prob,
                     const ConvoyQuery& query) {
  return "seed " + std::to_string(seed) + ", N=" + std::to_string(objects) +
         ", keep=" + std::to_string(keep_prob) +
         ", m=" + std::to_string(query.m) + ", k=" + std::to_string(query.k) +
         ", e=" + std::to_string(query.e) +
         ", threads=" + std::to_string(query.num_threads);
}

TEST(OracleTest, ExactAlgorithmsMatchBruteForceDefinition3) {
  size_t cases = 0;
  size_t non_empty = 0;
  size_t convoys = 0;
  uint64_t memo_hits = 0;
  uint64_t seed = 1;
  for (size_t objects = 5; objects <= 9; ++objects) {
    for (const double keep_prob : {1.0, 0.7}) {
      for (uint64_t s = 0; s < kSeedsPerSetting; ++s, ++seed) {
        Rng rng(seed);
        const TrajectoryDatabase db =
            RandomClumpyDb(rng, objects, kTicks, /*world=*/20.0,
                           /*step=*/1.0, keep_prob);
        const ConvoyEngine engine(db);
        const SnapshotStore store = SnapshotStore::Build(db);
        for (const size_t m : {2u, 3u}) {
          for (const Tick k : {Tick{2}, Tick{4}}) {
            for (const double e : {3.0, 5.0}) {
              ConvoyQuery query{m, k, e};
              const std::vector<Convoy> want =
                  oracle::BruteForceConvoys(db, query);
              ++cases;
              if (!want.empty()) ++non_empty;
              convoys += want.size();
              for (const size_t threads : {1u, 2u}) {
                query.num_threads = threads;
                const std::string what =
                    Describe(seed, objects, keep_prob, query);
                ASSERT_EQ(Cmc(db, query), want) << "Cmc(db), " << what;
                ASSERT_EQ(Cmc(store, query), want) << "Cmc(store), " << what;
                TraceSession trace;
                const QueryPlan plan =
                    engine.Prepare(query, AlgorithmChoice::kCutsStar).value();
                ExecHooks hooks;
                hooks.trace = &trace;
                ASSERT_EQ(engine.Execute(plan, hooks).value().convoys(), want)
                    << "CuTS* plan, " << what;
                memo_hits += trace.counter(TraceCounter::kClusterMemoHits);
              }
            }
          }
        }
      }
    }
  }
  // A generator change that empties the inputs must fail here rather than
  // let the comparisons above pass vacuously.
  EXPECT_EQ(cases, 5 * 2 * kSeedsPerSetting * 8);
  EXPECT_GE(3 * non_empty, cases)
      << non_empty << " of " << cases << " cases have a convoy";
  EXPECT_GT(memo_hits, cases) << "CuTS* answers served by the memo";
  RecordProperty("cases", static_cast<int>(cases));
  RecordProperty("non_empty", static_cast<int>(non_empty));
  RecordProperty("convoys", static_cast<int>(convoys));
}

}  // namespace
}  // namespace convoy
