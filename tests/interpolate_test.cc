#include "traj/interpolate.h"

#include <bit>
#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

#include "util/random.h"

namespace convoy {
namespace {

// The forward cursor must reproduce InterpolateAt bit for bit — outside
// the lifetime, on samples, between them — for every tick stride a caller
// may take, including long jumps that skip many samples.
TEST(InterpolateTest, ForwardCursorMatchesInterpolateAtBitForBit) {
  Rng rng(77);
  Trajectory traj(1);
  Tick t = 5;
  for (int i = 0; i < 200; ++i) {
    traj.Append(rng.Uniform(-1e3, 1e3), rng.Uniform(-1e3, 1e3), t);
    t += rng.UniformInt(1, 9);
  }
  for (const Tick stride : {Tick{1}, Tick{2}, Tick{7}, Tick{60}}) {
    size_t cursor = 0;
    for (Tick q = traj.BeginTick() - 3; q <= traj.EndTick() + 3; q += stride) {
      const std::optional<Point> want = InterpolateAt(traj, q);
      const std::optional<Point> got = InterpolateForward(traj, q, &cursor);
      ASSERT_EQ(got.has_value(), want.has_value()) << "tick " << q;
      if (!want.has_value()) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(got->x), std::bit_cast<uint64_t>(want->x))
          << "tick " << q << " stride " << stride;
      EXPECT_EQ(std::bit_cast<uint64_t>(got->y), std::bit_cast<uint64_t>(want->y))
          << "tick " << q << " stride " << stride;
    }
  }
}

TEST(InterpolateTest, ExactSampleReturned) {
  Trajectory traj(0);
  traj.Append(0, 0, 0);
  traj.Append(10, 0, 10);
  EXPECT_EQ(*InterpolateAt(traj, 0), Point(0, 0));
  EXPECT_EQ(*InterpolateAt(traj, 10), Point(10, 0));
}

TEST(InterpolateTest, LinearBetweenSamples) {
  Trajectory traj(0);
  traj.Append(0, 0, 0);
  traj.Append(10, 20, 10);
  EXPECT_EQ(*InterpolateAt(traj, 5), Point(5, 10));
  EXPECT_EQ(*InterpolateAt(traj, 1), Point(1, 2));
  EXPECT_EQ(*InterpolateAt(traj, 9), Point(9, 18));
}

TEST(InterpolateTest, VirtualPointAtMissingTick) {
  // The CMC virtual-point case: o3 sampled at t=1 and t=3, queried at t=2.
  Trajectory traj(3);
  traj.Append(0, 0, 1);
  traj.Append(4, 2, 3);
  EXPECT_EQ(*InterpolateAt(traj, 2), Point(2, 1));
}

TEST(InterpolateTest, NoExtrapolationOutsideLifetime) {
  Trajectory traj(0);
  traj.Append(0, 0, 5);
  traj.Append(10, 0, 10);
  EXPECT_FALSE(InterpolateAt(traj, 4).has_value());
  EXPECT_FALSE(InterpolateAt(traj, 11).has_value());
}

TEST(InterpolateTest, EmptyTrajectory) {
  Trajectory traj(0);
  EXPECT_FALSE(InterpolateAt(traj, 0).has_value());
}

TEST(InterpolateTest, UnevenGaps) {
  Trajectory traj(0);
  traj.Append(0, 0, 0);
  traj.Append(3, 0, 3);
  traj.Append(3, 10, 13);
  EXPECT_EQ(*InterpolateAt(traj, 2), Point(2, 0));
  EXPECT_EQ(*InterpolateAt(traj, 8), Point(3, 5));
}

}  // namespace
}  // namespace convoy
