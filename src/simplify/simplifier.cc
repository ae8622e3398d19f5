#include "simplify/simplifier.h"

#include <utility>

#include "parallel/parallel_for.h"
#include "simplify/douglas_peucker.h"
#include "simplify/dp_plus.h"
#include "simplify/dp_star.h"

namespace convoy {

std::string ToString(SimplifierKind kind) {
  switch (kind) {
    case SimplifierKind::kDp:
      return "DP";
    case SimplifierKind::kDpPlus:
      return "DP+";
    case SimplifierKind::kDpStar:
      return "DP*";
  }
  return "?";
}

SimplifiedTrajectory Simplify(const Trajectory& traj, double delta,
                              SimplifierKind kind) {
  switch (kind) {
    case SimplifierKind::kDp:
      return DouglasPeucker(traj, delta);
    case SimplifierKind::kDpPlus:
      return DpPlus(traj, delta);
    case SimplifierKind::kDpStar:
      return DpStar(traj, delta);
  }
  return DouglasPeucker(traj, delta);
}

std::vector<SimplifiedTrajectory> SimplifyDatabase(const TrajectoryDatabase& db,
                                                   double delta,
                                                   SimplifierKind kind,
                                                   size_t num_threads) {
  std::vector<SimplifiedTrajectory> out;
  out.reserve(db.Size());
  OrderedParallelFor(
      db.Size(), num_threads, kSmallUnits,
      [&](size_t i) { return Simplify(db[i], delta, kind); },
      [&out](size_t, SimplifiedTrajectory simplified) {
        out.push_back(std::move(simplified));
      });
  return out;
}

double VertexReductionPercent(const TrajectoryDatabase& db,
                              const std::vector<SimplifiedTrajectory>& simp) {
  size_t original = 0;
  size_t kept = 0;
  for (const Trajectory& traj : db.trajectories()) original += traj.Size();
  for (const SimplifiedTrajectory& s : simp) kept += s.NumVertices();
  if (original == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(kept) /
                            static_cast<double>(original));
}

}  // namespace convoy
