#ifndef CONVOY_CORE_PARAMS_H_
#define CONVOY_CORE_PARAMS_H_

#include <vector>

#include "simplify/simplified_trajectory.h"
#include "traj/database.h"

namespace convoy {

/// The Section 7.4 guideline for the simplification tolerance delta:
/// for a sample of trajectories (default 10% of N, at least 1), run DP with
/// delta = 0, collect the division-step deviations in ascending order, keep
/// those below the query range e, and pick the value just below the largest
/// gap between adjacent deviations; the final delta is the average of the
/// per-trajectory picks. The parameter affects performance only, never
/// correctness.
///
/// Degenerate trajectories (fewer than two recorded deviations under e)
/// contribute e/2, a neutral mid-scale default.
double ComputeDelta(const TrajectoryDatabase& db, double e,
                    double sample_fraction = 0.1, uint64_t seed = 42);

/// The Section 7.4 guideline for the time-partition length lambda:
/// per object, lambda_1 = (|o'|/|o|) * tau with tau = |o.tau| (lifetime in
/// ticks) and |o'|/|o| the simplification survival ratio; objects whose
/// lifetime is a strict subset of the domain are discounted by the paper's
/// endpoint-probability correction lambda = lambda_1 - (lambda_1-2)*tau/T.
/// The result is the average over objects, clamped to [2, max(2, k/4)]
/// (pass k <= 0 to clamp to [2, T] instead) and rounded.
///
/// Deviations from the text as published, and why: the
/// correction is skipped for full-lifetime objects — applied literally it
/// degenerates to lambda = 2 whenever tau = T, contradicting the paper's
/// own Table 3 (lambda = 36 for Cattle, which matches the *uncorrected*
/// formula) — and the k-derived cap realizes the k argument that
/// Algorithm 2 passes to ComputeLambda but the text never uses: partitions
/// longer than the query lifetime make every single-partition cluster a
/// candidate and destroy the filter.
///
/// `simplified` must be the database's simplified trajectories (any of the
/// DP variants; only the vertex counts matter).
Tick ComputeLambda(const TrajectoryDatabase& db,
                   const std::vector<SimplifiedTrajectory>& simplified,
                   Tick k = -1);

/// Per-trajectory delta pick used by ComputeDelta; exposed for tests.
double DeltaPickForTrajectory(const Trajectory& traj, double e);

}  // namespace convoy

#endif  // CONVOY_CORE_PARAMS_H_
