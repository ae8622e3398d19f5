#ifndef CONVOY_TRAJ_INTERPOLATE_H_
#define CONVOY_TRAJ_INTERPOLATE_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "traj/trajectory.h"

namespace convoy {

/// The virtual point at tick t on the straight line between two bracketing
/// samples (before.t < t < after.t). The one place this arithmetic lives:
/// InterpolateAt, InterpolateForward and the SnapshotStore build all call
/// it, which is what keeps their positions bit-identical.
inline Point InterpolateBetween(const TimedPoint& before,
                                const TimedPoint& after, Tick t) {
  const double frac = static_cast<double>(t - before.t) /
                      static_cast<double>(after.t - before.t);
  return before.pos + (after.pos - before.pos) * frac;
}

/// Linear interpolation of an object's position at tick t, the "virtual
/// point" generation CMC performs for ticks where the object's trajectory
/// has no sample (paper Section 4).
///
/// Returns nullopt when t lies outside the trajectory's lifetime o.tau —
/// virtual points are created only *between* existing samples, never by
/// extrapolation. When t hits an exact sample the sample itself is returned.
std::optional<Point> InterpolateAt(const Trajectory& traj, Tick t);

/// InterpolateAt for a caller that visits one trajectory at non-decreasing
/// ticks (a CMC loop over a tick window). `*cursor` — 0 before the first
/// call — keeps the index of the last sample at or before the previous
/// tick, so a visit one tick later costs O(1) instead of a binary search;
/// a longer jump (the first visit, or a tick range the caller skipped)
/// binary-searches the rest of the samples. Returns exactly
/// InterpolateAt(traj, t), bit for bit.
inline std::optional<Point> InterpolateForward(const Trajectory& traj,
                                               Tick t, size_t* cursor) {
  if (!traj.CoversTick(t)) return std::nullopt;
  const std::vector<TimedPoint>& samples = traj.samples();
  size_t idx = *cursor;
  if (idx + 1 < samples.size() && samples[idx + 1].t <= t) {
    ++idx;
    if (idx + 1 < samples.size() && samples[idx + 1].t <= t) {
      const auto it = std::upper_bound(
          samples.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
          samples.end(), t,
          [](Tick tick, const TimedPoint& p) { return tick < p.t; });
      idx = static_cast<size_t>(it - samples.begin()) - 1;
    }
    *cursor = idx;
  }
  const TimedPoint& before = samples[idx];
  if (before.t == t) return before.pos;
  return InterpolateBetween(before, samples[idx + 1], t);
}

}  // namespace convoy

#endif  // CONVOY_TRAJ_INTERPOLATE_H_
