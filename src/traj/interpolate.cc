#include "traj/interpolate.h"

namespace convoy {

std::optional<Point> InterpolateAt(const Trajectory& traj, Tick t) {
  if (!traj.CoversTick(t)) return std::nullopt;
  const auto idx = traj.IndexAtOrBefore(t);
  const TimedPoint& before = traj[*idx];
  if (before.t == t) return before.pos;
  return InterpolateBetween(before, traj[*idx + 1], t);  // t <= EndTick
}

}  // namespace convoy
