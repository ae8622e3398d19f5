#include "core/cmc.h"

#include <gtest/gtest.h>

#include "core/verify.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::FromXRows;

// Paper Figure 4 / Section 3 example: o2 and o3 travel together from t1 to
// t3 while o1 drifts away; query m=2, k=3 returns <o2,o3,[t1,t3]>.
TEST(CmcTest, PaperFigure4Example) {
  TrajectoryDatabase db;
  Trajectory o1(1);
  o1.Append(0, 0, 1);
  o1.Append(5, 5, 2);
  o1.Append(12, 10, 3);
  o1.Append(20, 15, 4);
  Trajectory o2(2);
  o2.Append(0.5, 0, 1);
  o2.Append(1.0, 1.0, 2);
  o2.Append(1.5, 2.0, 3);
  o2.Append(10.0, 2.0, 4);  // leaves at t4
  Trajectory o3(3);
  o3.Append(1.0, 0, 1);
  o3.Append(1.5, 1.0, 2);
  o3.Append(2.0, 2.0, 3);
  o3.Append(2.5, 3.0, 4);
  db.Add(std::move(o1));
  db.Add(std::move(o2));
  db.Add(std::move(o3));

  const auto result = Cmc(db, ConvoyQuery{2, 3, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].objects, (std::vector<ObjectId>{2, 3}));
  EXPECT_EQ(result[0].start_tick, 1);
  EXPECT_EQ(result[0].end_tick, 3);
}

TEST(CmcTest, EmptyDatabase) {
  EXPECT_TRUE(Cmc(TrajectoryDatabase(), ConvoyQuery{2, 2, 1.0}).empty());
}

TEST(CmcTest, NoConvoyWhenObjectsApart) {
  const auto db = FromXRows({{0, 1, 2, 3}, {100, 101, 102, 103}});
  EXPECT_TRUE(Cmc(db, ConvoyQuery{2, 2, 1.0}).empty());
}

TEST(CmcTest, ConvoySpansWholeLifetime) {
  // Two objects 0.5 apart for 5 ticks.
  const auto db = FromXRows({{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}}, 0.5);
  const auto result = Cmc(db, ConvoyQuery{2, 5, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].start_tick, 0);
  EXPECT_EQ(result[0].end_tick, 4);
}

TEST(CmcTest, LifetimeRequirementFiltersShortMeetings) {
  // Together for exactly 3 ticks (2..4), then split.
  const auto db = FromXRows({{0, 1, 2, 3, 4, 5, 6},
                             {50, 20, 2.2, 3.2, 4.2, 30, 60}});
  EXPECT_EQ(Cmc(db, ConvoyQuery{2, 3, 1.0}).size(), 1u);
  EXPECT_TRUE(Cmc(db, ConvoyQuery{2, 4, 1.0}).empty());
}

TEST(CmcTest, GapBreaksConsecutiveness) {
  // Near at ticks 0-2, far at 3, near again 4-6: two 3-tick convoys with
  // k=3, none with k=4.
  const auto db = FromXRows(
      {{0, 1, 2, 3, 4, 5, 6}, {0.2, 1.2, 2.2, 50, 4.2, 5.2, 6.2}});
  const auto k3 = Cmc(db, ConvoyQuery{2, 3, 1.0});
  ASSERT_EQ(k3.size(), 2u);
  EXPECT_EQ(k3[0].start_tick, 0);
  EXPECT_EQ(k3[0].end_tick, 2);
  EXPECT_EQ(k3[1].start_tick, 4);
  EXPECT_EQ(k3[1].end_tick, 6);
  EXPECT_TRUE(Cmc(db, ConvoyQuery{2, 4, 1.0}).empty());
}

TEST(CmcTest, VirtualPointsBridgeMissingSamples) {
  // Object 1 misses ticks 1 and 2 but interpolates along the same line as
  // object 0, so the convoy is unbroken (the Section 4 motivation).
  TrajectoryDatabase db;
  Trajectory a(0);
  for (Tick t = 0; t <= 4; ++t) a.Append(static_cast<double>(t), 0.0, t);
  Trajectory b(1);
  b.Append(0, 0.5, 0);
  b.Append(3, 0.5, 3);
  b.Append(4, 0.5, 4);
  db.Add(std::move(a));
  db.Add(std::move(b));

  const auto result = Cmc(db, ConvoyQuery{2, 5, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].start_tick, 0);
  EXPECT_EQ(result[0].end_tick, 4);
}

TEST(CmcTest, ObjectLeavingEndsConvoyInterval) {
  // Third object joins only ticks 1..3 of a 5-tick pair convoy: both the
  // longer pair convoy and the shorter triple convoy are maximal.
  const auto db = FromXRows({{0, 1, 2, 3, 4},
                             {0, 1, 2, 3, 4},
                             {90, 1, 2, 3, 80}},
                            0.4);
  const auto result = Cmc(db, ConvoyQuery{2, 3, 1.5});
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].objects.size(), 2u);
  EXPECT_EQ(result[0].Lifetime(), 5);
  EXPECT_EQ(result[1].objects.size(), 3u);
  EXPECT_EQ(result[1].start_tick, 1);
  EXPECT_EQ(result[1].end_tick, 3);
}

TEST(CmcTest, DensityConnectionCapturesNonCircularShapes) {
  // The lossy-flock scenario (Figure 1): four objects in a line, each 1.0
  // from the next. No disc of radius ~1.2 holds all four, but they are
  // density-connected with e=1.2 and m=3 (interior objects have three
  // neighbors counting themselves), so the convoy query finds the whole
  // line as one group.
  const auto db = FromXRows({{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}},
                            1.0);
  const auto result = Cmc(db, ConvoyQuery{3, 3, 1.2});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].objects.size(), 4u);
}

TEST(CmcTest, MinPtsAboveGroupSizeFindsNothing) {
  const auto db = FromXRows({{0, 1, 2}, {0, 1, 2}}, 0.5);
  EXPECT_TRUE(Cmc(db, ConvoyQuery{3, 2, 1.0}).empty());
}

TEST(CmcTest, FewerThanMObjectsAliveKillsTick) {
  // Pair convoy ticks 0..2; object 1 ends at tick 2; at ticks 3+ only one
  // object is alive.
  TrajectoryDatabase db;
  Trajectory a(0);
  for (Tick t = 0; t <= 5; ++t) a.Append(static_cast<double>(t), 0.0, t);
  Trajectory b(1);
  for (Tick t = 0; t <= 2; ++t) b.Append(static_cast<double>(t), 0.4, t);
  db.Add(std::move(a));
  db.Add(std::move(b));
  const auto result = Cmc(db, ConvoyQuery{2, 3, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].end_tick, 2);
}

TEST(CmcRangeTest, RestrictsDiscoveryWindow) {
  const auto db = FromXRows({{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}}, 0.5);
  const auto result = CmcRange(db, ConvoyQuery{2, 3, 1.0}, 2, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].start_tick, 2);
  EXPECT_EQ(result[0].end_tick, 5);
}

// SweepRows with a row selection: dropping an object that is noise at
// every tick (and within e of no core point) leaves the result unchanged
// and skips its gather; selecting fewer than m objects clusters nothing;
// the empty selector is CmcRange itself.
TEST(CmcRangeTest, RowSelectionDroppingNoiseKeepsResult) {
  // Rows 0-2 move together 0.4 apart (0 and 2 only density-connected
  // through 1); row 3 passes far away and is noise at every tick.
  const auto db = FromXRows({{0, 1, 2, 3, 4, 5, 6, 7},
                             {0, 1, 2, 3, 4, 5, 6, 7},
                             {0, 1, 2, 3, 4, 5, 6, 7},
                             {50, 40, 30, 20, 10, 0, -10, -20}},
                            0.4);
  const ConvoyQuery query{2, 4, 0.45};
  DiscoveryStats full_stats;
  const auto full = CmcRange(db, query, 0, 7, {}, &full_stats);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full.front().objects, (std::vector<ObjectId>{0, 1, 2}));

  const auto sweep_rows = [&](const RowSelector& rows_at,
                              DiscoveryStats* stats) {
    CmcSweep sweep(query.m, query.k);
    SweepRows(db, query, 0, 7, rows_at, &sweep, stats);
    return FinishSweep(&sweep, {}, stats);
  };

  const std::vector<uint32_t> kept = {0, 1, 2};
  DiscoveryStats pruned_stats;
  EXPECT_EQ(sweep_rows([&kept](Tick) { return &kept; }, &pruned_stats), full);
  EXPECT_EQ(pruned_stats.num_clusterings, full_stats.num_clusterings);

  EXPECT_EQ(sweep_rows(RowSelector{}, nullptr), full);

  const std::vector<uint32_t> one = {0};
  DiscoveryStats one_stats;
  EXPECT_TRUE(sweep_rows([&one](Tick) { return &one; }, &one_stats).empty());
  EXPECT_EQ(one_stats.num_clusterings, 0u);
}

// The per-tick loop split at any tick — SweepRows over [begin, c - 1],
// then over [c, end] with fresh forward cursors, then FinishSweep — is
// CmcRange itself.
TEST(CmcRangeTest, SweepSplitAtAnyTickEqualsOneRun) {
  Rng rng(20261017);
  const TrajectoryDatabase db =
      testutil::RandomClumpyDb(rng, 24, 40, 60.0, 0.8, 0.9);
  const ConvoyQuery query{3, 6, 4.0};
  const auto whole = CmcRange(db, query, db.BeginTick(), db.EndTick());
  ASSERT_FALSE(whole.empty());
  for (Tick split = db.BeginTick(); split <= db.EndTick() + 1; ++split) {
    CmcSweep sweep(query.m, query.k);
    SweepRows(db, query, db.BeginTick(), split - 1, RowSelector{}, &sweep);
    SweepRows(db, query, split, db.EndTick(), RowSelector{}, &sweep);
    EXPECT_EQ(FinishSweep(&sweep, {}), whole) << split;
  }
}

TEST(CmcTest, ResultsPassIndependentVerification) {
  const auto db = FromXRows({{0, 1, 2, 3, 4},
                             {0, 1, 2, 3, 4},
                             {0, 1, 2, 3, 4},
                             {9, 9, 9, 9, 9}},
                            0.4);
  const ConvoyQuery query{3, 3, 1.5};
  for (const Convoy& c : Cmc(db, query)) {
    EXPECT_TRUE(VerifyConvoy(db, query, c)) << ToString(c);
  }
}

TEST(CmcTest, StatsCountClusterings) {
  const auto db = FromXRows({{0, 1, 2}, {0, 1, 2}}, 0.5);
  DiscoveryStats stats;
  Cmc(db, ConvoyQuery{2, 2, 1.0}, {}, &stats);
  EXPECT_EQ(stats.num_clusterings, 3u);  // one per tick
  EXPECT_EQ(stats.num_convoys, 1u);
}

TEST(CmcTest, DominatedResultsPrunedByDefault) {
  // Raw candidate algebra reports both {0,1,2}@[1,3] and its fragments;
  // the default output must be dominance-free.
  const auto db = FromXRows({{0, 1, 2, 3, 4},
                             {0, 1, 2, 3, 4},
                             {90, 1, 2, 3, 80}},
                            0.4);
  const auto result = Cmc(db, ConvoyQuery{2, 3, 1.5});
  for (size_t i = 0; i < result.size(); ++i) {
    for (size_t j = 0; j < result.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(Covers(result[j], result[i]));
      }
    }
  }
}

}  // namespace
}  // namespace convoy
