// SnapshotStore construction tests: the columnar per-tick views must
// reproduce the legacy row-oriented snapshot gather bit for bit, at every
// build thread count, including the gappy (taxi-like) sampling patterns
// where most stored points are interpolated virtual points.

#include "traj/snapshot_store.h"

#include <gtest/gtest.h>

#include "cluster/grid_index.h"
#include "traj/interpolate.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

// The reference: the row-oriented per-tick gather through InterpolateAt,
// which the cursor gather (RowSnapshots) reproduces bit for bit.
void LegacyGather(const TrajectoryDatabase& db, Tick t,
                  std::vector<Point>* points, std::vector<ObjectId>* ids) {
  points->clear();
  ids->clear();
  for (const Trajectory& traj : db.trajectories()) {
    const auto pos = InterpolateAt(traj, t);
    if (!pos.has_value()) continue;
    points->push_back(*pos);
    ids->push_back(traj.id());
  }
}

void ExpectStoreMatchesLegacy(const TrajectoryDatabase& db,
                              const SnapshotStore& store) {
  EXPECT_EQ(store.begin_tick(), db.BeginTick());
  EXPECT_EQ(store.end_tick(), db.EndTick());
  std::vector<Point> points;
  std::vector<ObjectId> ids;
  size_t total = 0;
  for (Tick t = db.BeginTick(); t <= db.EndTick(); ++t) {
    LegacyGather(db, t, &points, &ids);
    const SnapshotView view = store.At(t);
    ASSERT_EQ(view.size, points.size()) << "tick " << t;
    total += view.size;
    for (size_t i = 0; i < view.size; ++i) {
      // Bitwise equality: Point::operator== is exact double comparison.
      EXPECT_EQ(view.At(i), points[i]) << "tick " << t << " slot " << i;
      EXPECT_EQ(view.ids[i], ids[i]) << "tick " << t << " slot " << i;
    }
  }
  EXPECT_EQ(store.TotalPoints(), total);
}

TEST(SnapshotStoreTest, EmptyDatabase) {
  const SnapshotStore store = SnapshotStore::Build(TrajectoryDatabase{});
  EXPECT_TRUE(store.Empty());
  EXPECT_EQ(store.NumTicks(), 0u);
  EXPECT_EQ(store.TotalPoints(), 0u);
  EXPECT_EQ(store.At(0).size, 0u);
  EXPECT_EQ(store.At(-5).size, 0u);
}

TEST(SnapshotStoreTest, DatabaseOfEmptyTrajectoriesIsEmpty) {
  TrajectoryDatabase db;
  db.Add(Trajectory(0));
  db.Add(Trajectory(1));
  const SnapshotStore store = SnapshotStore::Build(db);
  EXPECT_TRUE(store.Empty());
  EXPECT_EQ(store.TotalPoints(), 0u);
}

TEST(SnapshotStoreTest, SingleTickDatabase) {
  TrajectoryDatabase db;
  Trajectory a(7);
  a.Append(1.5, 2.5, 42);
  db.Add(std::move(a));
  const SnapshotStore store = SnapshotStore::Build(db);
  EXPECT_EQ(store.NumTicks(), 1u);
  EXPECT_EQ(store.begin_tick(), 42);
  EXPECT_EQ(store.end_tick(), 42);
  const SnapshotView view = store.At(42);
  ASSERT_EQ(view.size, 1u);
  EXPECT_EQ(view.At(0), Point(1.5, 2.5));
  EXPECT_EQ(view.ids[0], 7u);
}

TEST(SnapshotStoreTest, AllInteriorTicksMissingAreVirtual) {
  // Two samples 10 ticks apart: every interior tick exists only as a
  // virtual (interpolated) point — the extreme of irregular sampling.
  TrajectoryDatabase db;
  Trajectory a(3);
  a.Append(0.0, 0.0, 0);
  a.Append(10.0, 20.0, 10);
  db.Add(std::move(a));
  const SnapshotStore store = SnapshotStore::Build(db);
  EXPECT_EQ(store.TotalPoints(), 11u);
  for (Tick t = 0; t <= 10; ++t) {
    const SnapshotView view = store.At(t);
    ASSERT_EQ(view.size, 1u);
    EXPECT_EQ(view.At(0), *InterpolateAt(db[0], t)) << "tick " << t;
  }
}

TEST(SnapshotStoreTest, DisjointLifetimesLeaveEmptyMiddleTicks) {
  // Object 0 lives [0, 3], object 1 lives [8, 10]: ticks 4..7 are covered
  // by the domain but hold no alive object at all.
  TrajectoryDatabase db;
  Trajectory a(0);
  a.Append(0, 0, 0);
  a.Append(3, 0, 3);
  Trajectory b(1);
  b.Append(0, 1, 8);
  b.Append(2, 1, 10);
  db.Add(std::move(a));
  db.Add(std::move(b));
  const SnapshotStore store = SnapshotStore::Build(db);
  EXPECT_EQ(store.NumTicks(), 11u);
  for (Tick t = 4; t <= 7; ++t) EXPECT_EQ(store.At(t).size, 0u);
  EXPECT_EQ(store.At(2).size, 1u);
  EXPECT_EQ(store.At(9).size, 1u);
  ExpectStoreMatchesLegacy(db, store);
}

TEST(SnapshotStoreTest, ViewsMatchLegacyGatherOnSeededDatabases) {
  for (const uint64_t seed : {11u, 29u, 47u}) {
    // keep_prob sweeps from dense to taxi-like gappy sampling.
    for (const double keep_prob : {1.0, 0.7, 0.35}) {
      Rng rng(seed);
      const TrajectoryDatabase db =
          RandomClumpyDb(rng, 24, 50, 60.0, 1.0, keep_prob);
      ExpectStoreMatchesLegacy(db, SnapshotStore::Build(db));
    }
  }
}

TEST(SnapshotStoreTest, BuildThreadCountDoesNotChangeContents) {
  Rng rng(5);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 24, 60, 60.0, 1.0, 0.6);
  const SnapshotStore serial = SnapshotStore::Build(db, 1);
  for (const size_t threads : {2u, 8u}) {
    const SnapshotStore parallel = SnapshotStore::Build(db, threads);
    ASSERT_EQ(parallel.TotalPoints(), serial.TotalPoints());
    for (Tick t = db.BeginTick(); t <= db.EndTick(); ++t) {
      const SnapshotView a = serial.At(t);
      const SnapshotView b = parallel.At(t);
      ASSERT_EQ(a.size, b.size);
      for (size_t i = 0; i < a.size; ++i) {
        EXPECT_EQ(a.At(i), b.At(i));
        EXPECT_EQ(a.ids[i], b.ids[i]);
      }
    }
  }
}

TEST(SnapshotStoreTest, BuildAcrossFillBlocksMatchesLegacyGather) {
  // 700 ticks span several of the build's fill blocks, so threaded builds
  // fill blocks concurrently; every one must still match the gather.
  Rng rng(13);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 8, 700, 60.0, 1.0, 0.5);
  for (const size_t threads : {1u, 2u, 8u}) {
    ExpectStoreMatchesLegacy(db, SnapshotStore::Build(db, threads));
  }
}

// A grid assigned from a tick's columnar view (SnapshotClusters' arena
// build) answers exactly like a fresh index over the same snapshot.
TEST(SnapshotStoreTest, ColumnarGridAnswersLikePointGrid) {
  Rng rng(9);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 12, 20, 40.0, 1.0);
  const SnapshotStore store = SnapshotStore::Build(db);
  const SnapshotView view = store.At(3);
  ASSERT_GT(view.size, 0u);
  GridIndex columnar;
  columnar.Assign(view.xs, view.ys, view.size, 2.0);
  std::vector<Point> points;
  for (size_t i = 0; i < view.size; ++i) points.push_back(view.At(i));
  const GridIndex fresh(points, 2.0);
  for (size_t i = 0; i < view.size; ++i) {
    EXPECT_EQ(columnar.WithinRadius(view.At(i), 2.0),
              fresh.WithinRadius(points[i], 2.0));
  }
}

TEST(SnapshotStoreTest, EstimateColumnarSlotsMatchesBuild) {
  Rng rng(17);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 16, 30, 40.0, 1.0, 0.5);
  const SnapshotStore store = SnapshotStore::Build(db);
  EXPECT_EQ(SnapshotStore::EstimateColumnarSlots(db),
            store.NumTicks() + store.TotalPoints());
  EXPECT_EQ(SnapshotStore::EstimateColumnarSlots(TrajectoryDatabase{}), 0u);
}

}  // namespace
}  // namespace convoy
