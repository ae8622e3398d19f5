#include "core/flock.h"

#include <gtest/gtest.h>

#include "core/cmc.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::FromXRows;

// FlockSnapshotGroups' step, read back as object-id lists.
std::vector<std::vector<ObjectId>> Groups(const std::vector<Point>& pts,
                                          const std::vector<ObjectId>& ids,
                                          double radius, size_t m) {
  FlatClusters flat;
  FlockSnapshotGroups(pts, ids, radius, m, &flat);
  const ClusterSpans step = flat.Step(0);
  std::vector<std::vector<ObjectId>> groups;
  for (size_t g = 0; g < step.size(); ++g) {
    groups.emplace_back(step[g].begin(), step[g].end());
  }
  return groups;
}

TEST(FlockSnapshotTest, CompactGroupFound) {
  const std::vector<Point> pts = {Point(0, 0), Point(1, 0), Point(0.5, 0.8)};
  const std::vector<ObjectId> ids = {1, 2, 3};
  const auto groups = Groups(pts, ids, 1.0, 3);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<ObjectId>{1, 2, 3}));
}

TEST(FlockSnapshotTest, LineLongerThanDiameterSplits) {
  // Four collinear points spaced 1.0; disc radius 1.0 covers any 3
  // consecutive (span 2.0 = diameter) but never all 4 (span 3.0).
  std::vector<Point> pts;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 4; ++i) {
    pts.emplace_back(static_cast<double>(i), 0.0);
    ids.push_back(static_cast<ObjectId>(i));
  }
  const auto groups = Groups(pts, ids, 1.0, 3);
  for (const auto& g : groups) {
    EXPECT_LT(g.size(), 4u) << "a radius-1 disc cannot hold a 3-long line";
  }
  // The 3-consecutive subsets are found.
  bool found_prefix = false;
  for (const auto& g : groups) {
    if (g == std::vector<ObjectId>{0, 1, 2}) found_prefix = true;
  }
  EXPECT_TRUE(found_prefix);
}

TEST(FlockSnapshotTest, TooFewPoints) {
  EXPECT_TRUE(Groups({Point(0, 0)}, {1}, 1.0, 2).empty());
}

TEST(FlockSnapshotTest, DiscNeedNotBeCenteredOnObject) {
  // Two points 1.9 apart with radius 1: no disc centered on either point
  // covers both, but a disc centered between them does.
  const auto groups = Groups({Point(0, 0), Point(1.9, 0)},
                                          {5, 6}, 1.0, 2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<ObjectId>{5, 6}));
}

TEST(FlockSnapshotTest, GroupsAreMaximal) {
  // A tight pair plus a third point coverable together with either.
  const auto groups = Groups(
      {Point(0, 0), Point(0.2, 0), Point(0.4, 0)}, {1, 2, 3}, 1.0, 2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 3u);
}

TEST(FlockDiscoveryTest, StableFlockAcrossTicks) {
  const auto db = FromXRows({{0, 1, 2, 3}, {0, 1, 2, 3}}, 0.5);
  const auto flocks = FlockDiscovery(db, FlockQuery{2, 4, 1.0});
  ASSERT_EQ(flocks.size(), 1u);
  EXPECT_EQ(flocks[0].Lifetime(), 4);
}

TEST(FlockDiscoveryTest, LifetimeConstraintEnforced) {
  const auto db = FromXRows({{0, 1, 50}, {0.4, 1.4, 90}});
  EXPECT_TRUE(FlockDiscovery(db, FlockQuery{2, 3, 1.0}).empty());
  EXPECT_EQ(FlockDiscovery(db, FlockQuery{2, 2, 1.0}).size(), 1u);
}

// The paper's Figure 1, as a test: an elongated formation is one convoy
// under density connection but no flock under any same-scale disc.
TEST(FlockDiscoveryTest, LossyFlockProblem) {
  // Five objects in a moving line, consecutive gaps 1.0 => total extent 4.
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 5; ++id) {
    Trajectory traj(id);
    for (Tick t = 0; t < 5; ++t) {
      traj.Append(static_cast<double>(t) * 2.0, static_cast<double>(id), t);
    }
    db.Add(std::move(traj));
  }
  // Convoy query: e = 1.2 chains the line; all 5 objects form one convoy.
  const auto convoys = Cmc(db, ConvoyQuery{3, 5, 1.2});
  ASSERT_EQ(convoys.size(), 1u);
  EXPECT_EQ(convoys[0].objects.size(), 5u);

  // Flock query with the corresponding disc (radius = e): a disc of
  // radius 1.2 has diameter 2.4 < 4, so no flock of all 5 exists — only
  // fragments are reported. This is the lossy-flock problem.
  const auto flocks = FlockDiscovery(db, FlockQuery{3, 5, 1.2});
  for (const Convoy& f : flocks) {
    EXPECT_LT(f.objects.size(), 5u);
  }
  EXPECT_FALSE(flocks.empty());  // fragments are found
}

TEST(FlockDiscoveryTest, CompactGroupsAgreeWithConvoys) {
  // When the group diameter is well under the disc diameter, flock and
  // convoy queries see the same group.
  const auto db = FromXRows({{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}},
                            0.3);
  const auto convoys = Cmc(db, ConvoyQuery{3, 4, 1.0});
  const auto flocks = FlockDiscovery(db, FlockQuery{3, 4, 1.0});
  ASSERT_EQ(convoys.size(), 1u);
  ASSERT_EQ(flocks.size(), 1u);
  EXPECT_EQ(convoys[0].objects, flocks[0].objects);
}

TEST(FlockDiscoveryTest, EmptyDatabase) {
  EXPECT_TRUE(FlockDiscovery(TrajectoryDatabase(), FlockQuery{}).empty());
}

}  // namespace
}  // namespace convoy
