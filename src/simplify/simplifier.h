#ifndef CONVOY_SIMPLIFY_SIMPLIFIER_H_
#define CONVOY_SIMPLIFY_SIMPLIFIER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "simplify/simplified_trajectory.h"
#include "traj/database.h"

namespace convoy {

/// The trajectory-simplification technique used by a CuTS-family filter
/// (paper Section 6 summary table).
enum class SimplifierKind {
  kDp,      ///< classic Douglas-Peucker (CuTS)
  kDpPlus,  ///< middle-split DP+ (CuTS+)
  kDpStar,  ///< time-ratio DP* (CuTS*)
};

/// Human-readable name ("DP", "DP+", "DP*").
std::string ToString(SimplifierKind kind);

/// Dispatches to DouglasPeucker / DpPlus / DpStar.
SimplifiedTrajectory Simplify(const Trajectory& traj, double delta,
                              SimplifierKind kind);

/// Simplifies every trajectory of a database with the same tolerance, in
/// database order, spread over `num_threads` workers (0 = all hardware
/// threads; 1 = a plain loop on the calling thread). Trajectories are
/// independent and come back in database order, so the output is the
/// same at every thread count.
std::vector<SimplifiedTrajectory> SimplifyDatabase(
    const TrajectoryDatabase& db, double delta, SimplifierKind kind,
    size_t num_threads = 1);

/// Vertex reduction ratio in percent, 100 * (1 - |simplified| / |original|),
/// aggregated over a whole database (paper Figure 15(a)'s y-axis).
double VertexReductionPercent(const TrajectoryDatabase& db,
                              const std::vector<SimplifiedTrajectory>& simp);

}  // namespace convoy

#endif  // CONVOY_SIMPLIFY_SIMPLIFIER_H_
