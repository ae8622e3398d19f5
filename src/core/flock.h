#ifndef CONVOY_CORE_FLOCK_H_
#define CONVOY_CORE_FLOCK_H_

#include <vector>

#include "core/candidate.h"
#include "core/convoy_set.h"
#include "geom/point.h"
#include "traj/database.h"

namespace convoy {

/// Parameters of a flock query (Gudmundsson et al.; paper Section 1 and
/// 2.1): at least `m` objects staying together within a *disc of radius
/// `radius`* for at least `k` consecutive ticks. The disc may be placed
/// anywhere — it is not centered on an object.
struct FlockQuery {
  size_t m = 2;
  Tick k = 2;
  double radius = 1.0;
};

/// FlockDiscovery's snapshot clusterer (a SnapshotClusterer, core/cmc.h):
/// appends every maximal group of >= m objects that fits in some
/// radius-`radius` disc to `out` as one step, in lexicographic order.
/// Exact: uses the classic O(N^3) candidate-disc enumeration (every maximal
/// disc group is realized by a disc through two points, or centered on one
/// point). Groups may overlap. Fewer than m positions append an empty step
/// and return false.
bool FlockSnapshotGroups(const std::vector<Point>& positions,
                         const std::vector<ObjectId>& ids, double radius,
                         size_t m, FlatClusters* out);

/// Flock discovery: CMC's tick loop (SweepSnapshots, core/cmc.h) and
/// candidate tracker with disc groups as the clusterer, so the *only*
/// semantic difference from Cmc is disc containment versus density
/// connection.
///
/// This baseline exists to quantify the paper's Figure 1 "lossy flock"
/// motivation: a linear formation whose extent exceeds the disc diameter is
/// found by the convoy query but missed by every flock query with that
/// disc — see tests/flock_test.cc and bench/fig1_lossy_flock.
std::vector<Convoy> FlockDiscovery(const TrajectoryDatabase& db,
                                   const FlockQuery& query);

}  // namespace convoy

#endif  // CONVOY_CORE_FLOCK_H_
