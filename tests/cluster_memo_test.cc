// The engine's CuTS clustering memo (core/cluster_memo.h): a sweep over m
// and k on one engine hits the memo and still answers exactly what CMC and
// a fresh engine answer, at every thread count; hits cluster nothing;
// eviction keeps the memo within its budget and the answers exact; and the
// memo keeps each key's windows disjoint.

#include "core/cluster_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cmc.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

TrajectoryDatabase SweepDb() {
  Rng rng(4242);
  return RandomClumpyDb(rng, 24, 90, 40.0, 0.8, 0.85);
}

// Sixteen objects moving right one unit per tick, each 50 apart from every
// other except while its group travels together (e = 4):
//  - objects 0-3, 0.5 apart, over ticks [0, 39];
//  - objects 4-7, 0.5 apart, over [40, 45]: their filter candidate
//    (three partitions of lambda 4, the boundary segments included)
//    overlaps the first group's, so the two share one window at k <= 12,
//    while at k = 16 the first group's window ends at tick 39;
//  - objects 8-11, 0.5 apart, over [80, 99];
//  - objects 12-15, a chain 3 apart, over [100, 115]: one DBSCAN cluster
//    at m = 2, none at m = 4 (no object has four neighbours).
TrajectoryDatabase GroupsDb() {
  struct Group {
    ObjectId first;
    Tick begin;
    Tick end;
    double spacing;
  };
  const Group groups[] = {
      {0, 0, 39, 0.5}, {4, 40, 45, 0.5}, {8, 80, 99, 0.5}, {12, 100, 115, 3.0}};
  TrajectoryDatabase db;
  for (const Group& group : groups) {
    for (ObjectId i = group.first; i < group.first + 4; ++i) {
      Trajectory traj(i);
      for (Tick t = 0; t < 120; ++t) {
        const bool together = group.begin <= t && t <= group.end;
        const double y =
            together ? 10.0 * group.first + group.spacing * (i - group.first)
                     : 1000.0 + 50.0 * i;
        traj.Append(static_cast<double>(t), y, t);
      }
      db.Add(std::move(traj));
    }
  }
  return db;
}

// Prepare + Execute of a CuTS* plan with lambda given (a derived lambda
// follows k, and with it the key), traced into `trace`.
ConvoyResultSet RunCutsStar(const ConvoyEngine& engine,
                            const ConvoyQuery& query, TraceSession* trace) {
  CutsFilterOptions options;
  options.lambda = 4;
  const QueryPlan plan =
      engine.Prepare(query, AlgorithmChoice::kCutsStar, options).value();
  ExecHooks hooks;
  hooks.trace = trace;
  return engine.Execute(plan, hooks).value();
}

std::string Describe(const ConvoyQuery& query) {
  return "m=" + std::to_string(query.m) + " k=" + std::to_string(query.k) +
         " threads=" + std::to_string(query.num_threads);
}

// One engine answers a shuffled (m, k) grid in which k both rises (windows
// shrink: hits) and falls (windows grow: misses that read the held windows
// inside them), over GroupsDb and a random clumpy database. Every answer
// equals Cmc() and a fresh engine's; the memo counters, the clusterings
// and the memo's contents are the same at 1, 2 and 8 threads. m is 2 or
// 4: DBSCAN clusters at m = 2 and 3 differ only in clusters of two
// objects, which no m = 3 candidate can use. With `windows_grow`, some
// miss must have read a held window inside it.
void SweepOnOneEngine(const TrajectoryDatabase& db, bool windows_grow) {
  const std::vector<std::pair<size_t, Tick>> grid = {
      {2, 16}, {4, 16}, {2, 2}, {4, 5}, {2, 8}, {4, 2},
      {2, 16}, {4, 8},  {2, 3}, {4, 3}, {2, 5}, {4, 16}};
  struct Tally {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t clustered = 0;
    size_t bytes = 0;
  };
  std::vector<Tally> tallies;
  size_t convoys = 0;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const ConvoyEngine engine(db);
    Tally tally;
    uint64_t fresh_clustered = 0;
    bool read_inside = false;
    for (const auto& [m, k] : grid) {
      ConvoyQuery query{m, k, 4.0};
      query.num_threads = threads;
      TraceSession trace;
      const ConvoyResultSet got = RunCutsStar(engine, query, &trace);
      EXPECT_EQ(got.convoys(), Cmc(db, query)) << Describe(query);
      if (m == 4) convoys += got.Count();
      const ConvoyEngine fresh(db);
      TraceSession fresh_trace;
      EXPECT_EQ(got.convoys(),
                RunCutsStar(fresh, query, &fresh_trace).convoys())
          << Describe(query);
      const uint64_t clustered =
          trace.counter(TraceCounter::kSnapshotsClustered);
      const uint64_t fresh_ticks =
          fresh_trace.counter(TraceCounter::kSnapshotsClustered);
      read_inside |= clustered > 0 && clustered < fresh_ticks;
      tally.hits += trace.counter(TraceCounter::kClusterMemoHits);
      tally.misses += trace.counter(TraceCounter::kClusterMemoMisses);
      tally.clustered += clustered;
      fresh_clustered += fresh_ticks;
    }
    tally.bytes = engine.cluster_memo().Bytes();
    EXPECT_GT(tally.hits, 0u) << threads;
    EXPECT_GT(tally.misses, 0u) << threads;
    EXPECT_LT(tally.clustered, fresh_clustered) << threads;
    tallies.push_back(tally);
    if (windows_grow) {
      EXPECT_TRUE(read_inside) << threads;
    }
  }
  EXPECT_GT(convoys, 0u) << "no convoy of four objects";
  for (size_t i = 1; i < tallies.size(); ++i) {
    EXPECT_EQ(tallies[i].hits, tallies[0].hits);
    EXPECT_EQ(tallies[i].misses, tallies[0].misses);
    EXPECT_EQ(tallies[i].clustered, tallies[0].clustered);
    EXPECT_EQ(tallies[i].bytes, tallies[0].bytes);
  }
}

TEST(ClusterMemoTest, SweepMatchesCmcAndFreshEngineAtEveryThreadCount) {
  {
    SCOPED_TRACE("GroupsDb");
    SweepOnOneEngine(GroupsDb(), /*windows_grow=*/true);
  }
  {
    SCOPED_TRACE("SweepDb");
    SweepOnOneEngine(SweepDb(), /*windows_grow=*/false);
  }
}

// A repeated query finds every clustering in the memo: the filter lookup
// and every refinement window hit, and nothing is clustered or counted as
// clustered — in the trace or in DiscoveryStats.
TEST(ClusterMemoTest, RepeatedQueryClustersNothing) {
  const ConvoyEngine engine(SweepDb());
  const ConvoyQuery query{3, 4, 4.0};
  TraceSession first_trace;
  const ConvoyResultSet first = RunCutsStar(engine, query, &first_trace);
  ASSERT_FALSE(first.convoys().empty());
  EXPECT_EQ(first_trace.counter(TraceCounter::kClusterMemoHits), 0u);
  EXPECT_GT(first.stats().num_clusterings, 0u);

  TraceSession trace;
  const ConvoyResultSet again = RunCutsStar(engine, query, &trace);
  EXPECT_EQ(again.convoys(), first.convoys());
  EXPECT_EQ(trace.counter(TraceCounter::kClusterMemoMisses), 0u);
  // One filter lookup plus one per refinement window.
  EXPECT_EQ(trace.counter(TraceCounter::kClusterMemoHits),
            1 + trace.counter(TraceCounter::kRefineUnits));
  EXPECT_EQ(trace.counter(TraceCounter::kSnapshotsClustered), 0u);
  EXPECT_EQ(trace.counter(TraceCounter::kFilterSegmentTests), 0u);
  EXPECT_EQ(again.stats().num_clusterings, 0u);
  EXPECT_GT(trace.counter(TraceCounter::kTrackerSteps), 0u);

  CutsFilterOptions options;
  options.lambda = 4;
  const QueryPlan plan =
      engine.Prepare(query, AlgorithmChoice::kCutsStar, options).value();
  EXPECT_EQ(plan.cluster_memo, PlanCacheStatus::kHit);
  EXPECT_NE(plan.Explain().find("clustering memo: hit (filter + "),
            std::string::npos)
      << plan.Explain();
}

// More keys than the budget holds: least recently used keys are evicted,
// the memo never exceeds its budget, and answers stay exact — also when an
// evicted key is queried again.
TEST(ClusterMemoTest, EvictionKeepsBudgetAndAnswers) {
  const TrajectoryDatabase db = SweepDb();
  const ConvoyEngine engine(db);
  const size_t budget = engine.cluster_memo().budget();
  ASSERT_GT(budget, 0u);
  std::vector<ConvoyQuery> queries;
  for (const size_t m : {size_t{2}, size_t{3}}) {
    for (int i = 0; i < 12; ++i) {
      queries.push_back(ConvoyQuery{m, 4, 2.5 + 0.25 * i});
    }
  }
  size_t most_keys = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const ConvoyQuery& query : queries) {
      EXPECT_EQ(RunCutsStar(engine, query, nullptr).convoys(),
                Cmc(db, query))
          << "e=" << query.e << " m=" << query.m << " pass " << pass;
      EXPECT_LE(engine.cluster_memo().Bytes(), budget);
      most_keys = std::max(most_keys, engine.cluster_memo().NumKeys());
    }
  }
  EXPECT_GT(most_keys, 1u);
  EXPECT_LT(engine.cluster_memo().NumKeys(), queries.size());
}

std::shared_ptr<const WindowClusters> Window(Tick begin, size_t ticks) {
  auto window = std::make_shared<WindowClusters>();
  window->begin = begin;
  const std::vector<std::vector<ObjectId>> clusters = {{1, 2}, {4, 5, 6}};
  for (size_t i = 0; i < ticks; ++i) window->ticks.AddStep(clusters);
  return window;
}

// A published window replaces every held window it overlaps, so a key's
// windows stay disjoint and ascending; the key's bytes follow.
TEST(ClusterMemoTest, PublishedWindowReplacesOverlappedWindows) {
  ClusterMemo memo(1 << 20);
  ClusterMemoKey key;
  key.m = 2;
  memo.PublishWindow(key, Window(10, 5));   // [10, 14]
  memo.PublishWindow(key, Window(20, 3));   // [20, 22]
  memo.PublishWindow(key, Window(30, 2));   // [30, 31]
  ASSERT_EQ(memo.Windows(key).size(), 3u);
  memo.PublishWindow(key, Window(8, 16));   // [8, 23] contains two
  const auto windows = memo.Windows(key);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0]->begin, 8);
  EXPECT_EQ(windows[0]->end(), 23);
  EXPECT_EQ(windows[1]->begin, 30);
  EXPECT_EQ(memo.Bytes(), windows[0]->ticks.Bytes() +
                              windows[1]->ticks.Bytes());
  EXPECT_TRUE(windows[0]->Contains(10, 14));
  EXPECT_FALSE(windows[0]->Contains(20, 24));
  EXPECT_EQ(windows[0]->At(9).size(), 2u);
  EXPECT_EQ(windows[0]->At(9)[1].size(), 3u);

  // A window that would not fit the budget even alone is not kept.
  ClusterMemo tiny(64);
  tiny.PublishWindow(key, Window(0, 100));
  EXPECT_EQ(tiny.Bytes(), 0u);
  EXPECT_TRUE(tiny.Windows(key).empty());
}

}  // namespace
}  // namespace convoy
