#include "traj/database.h"

#include <gtest/gtest.h>

namespace convoy {
namespace {

TrajectoryDatabase MakeDb() {
  TrajectoryDatabase db;
  Trajectory a(0);
  a.Append(0, 0, 0);
  a.Append(1, 0, 9);  // lifetime 10, 2 samples
  Trajectory b(1);
  for (Tick t = 5; t <= 14; ++t) b.Append(0, static_cast<double>(t), t);
  db.Add(std::move(a));
  db.Add(std::move(b));
  return db;
}

TEST(DatabaseTest, EmptyDatabase) {
  TrajectoryDatabase db;
  EXPECT_TRUE(db.Empty());
  EXPECT_EQ(db.BeginTick(), 0);
  EXPECT_EQ(db.EndTick(), -1);  // makes begin..end loops empty
  const DatabaseStats stats = db.Stats();
  EXPECT_EQ(stats.num_objects, 0u);
  EXPECT_EQ(stats.total_points, 0u);
}

TEST(DatabaseTest, TickBounds) {
  const TrajectoryDatabase db = MakeDb();
  EXPECT_EQ(db.BeginTick(), 0);
  EXPECT_EQ(db.EndTick(), 14);
}

TEST(DatabaseTest, StatsMatchPaperTable3Shape) {
  const TrajectoryDatabase db = MakeDb();
  const DatabaseStats stats = db.Stats();
  EXPECT_EQ(stats.num_objects, 2u);
  EXPECT_EQ(stats.time_domain_length, 15);
  EXPECT_EQ(stats.total_points, 12u);
  EXPECT_DOUBLE_EQ(stats.avg_trajectory_length, 6.0);
  // Object 0 misses 8 of its 10 lifetime ticks; object 1 misses none.
  EXPECT_DOUBLE_EQ(stats.avg_missing_ratio, 0.4);
}

TEST(DatabaseTest, ConstructFromVector) {
  std::vector<Trajectory> trajs;
  trajs.emplace_back(5);
  const TrajectoryDatabase db(std::move(trajs));
  EXPECT_EQ(db.Size(), 1u);
  EXPECT_EQ(db[0].id(), 5u);
}

TEST(DatabaseTest, StatsSkipEmptyTrajectoriesForAverages) {
  TrajectoryDatabase db;
  db.Add(Trajectory(0));
  Trajectory b(1);
  b.Append(0, 0, 0);
  b.Append(1, 1, 1);
  db.Add(std::move(b));
  const DatabaseStats stats = db.Stats();
  EXPECT_EQ(stats.num_objects, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_trajectory_length, 2.0);
}

TEST(DatabaseTest, IndexOfAndFindResolveById) {
  const TrajectoryDatabase db = MakeDb();
  EXPECT_EQ(db.IndexOf(0), std::optional<size_t>(0));
  EXPECT_EQ(db.IndexOf(1), std::optional<size_t>(1));
  EXPECT_EQ(db.IndexOf(99), std::nullopt);
  ASSERT_NE(db.Find(1), nullptr);
  EXPECT_EQ(db.Find(1)->id(), 1u);
  EXPECT_EQ(db.Find(99), nullptr);
}

}  // namespace
}  // namespace convoy
