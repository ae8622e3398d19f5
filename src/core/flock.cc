#include "core/flock.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include "core/cmc.h"

namespace convoy {

namespace {

// Members within `radius` of `center`, as sorted object ids.
std::vector<ObjectId> DiscMembers(const std::vector<Point>& positions,
                                  const std::vector<ObjectId>& ids,
                                  const Point& center, double radius) {
  std::vector<ObjectId> members;
  const double r2 = radius * radius * (1.0 + 1e-12);
  for (size_t i = 0; i < positions.size(); ++i) {
    if (D2(positions[i], center) <= r2) members.push_back(ids[i]);
  }
  std::sort(members.begin(), members.end());
  return members;
}

// The two centers of radius-r circles passing through points a and b
// (which must satisfy D(a,b) <= 2r). Degenerate (a == b) yields a itself.
void CircleCenters(const Point& a, const Point& b, double r,
                   std::vector<Point>* out) {
  const Point mid = (a + b) * 0.5;
  const double half = D(a, b) / 2.0;
  if (half < 1e-12) {
    out->push_back(a);
    return;
  }
  const double h2 = r * r - half * half;
  if (h2 < 0.0) return;
  const double h = std::sqrt(h2);
  const Point dir = (b - a) * (1.0 / (2.0 * half));
  const Point normal(-dir.y, dir.x);
  out->push_back(mid + normal * h);
  out->push_back(mid - normal * h);
}

}  // namespace

bool FlockSnapshotGroups(const std::vector<Point>& positions,
                         const std::vector<ObjectId>& ids, double radius,
                         size_t m, FlatClusters* out) {
  const size_t n = positions.size();
  if (n < m) {
    out->AddStep(ClusterSpans());
    return false;
  }

  // Candidate disc centers: every point (disc centered on a lone cluster)
  // and the two radius-r circles through every close-enough pair. Any
  // maximal group realized by *some* disc is realized by one of these
  // (standard flock argument: shrink-translate the disc until two members
  // touch its boundary, or one member coincides with the center).
  std::vector<Point> centers;
  for (size_t i = 0; i < n; ++i) {
    centers.push_back(positions[i]);
    for (size_t j = i + 1; j < n; ++j) {
      if (D(positions[i], positions[j]) <= 2.0 * radius) {
        CircleCenters(positions[i], positions[j], radius, &centers);
      }
    }
  }

  std::set<std::vector<ObjectId>> groups;
  for (const Point& center : centers) {
    std::vector<ObjectId> members = DiscMembers(positions, ids, center,
                                                radius);
    if (members.size() >= m) groups.insert(std::move(members));
  }

  // Keep only maximal groups (a disc group contained in another adds no
  // information to the candidate tracker), in the set's order.
  std::vector<std::span<const ObjectId>> maximal;
  for (const std::vector<ObjectId>& g : groups) {
    const bool contained = std::any_of(
        groups.begin(), groups.end(), [&g](const std::vector<ObjectId>& other) {
          return g.size() < other.size() &&
                 std::includes(other.begin(), other.end(), g.begin(),
                               g.end());
        });
    if (!contained) maximal.emplace_back(g);
  }
  out->AddStep(maximal);
  return true;
}

std::vector<Convoy> FlockDiscovery(const TrajectoryDatabase& db,
                                   const FlockQuery& query) {
  if (db.Empty()) return {};
  CmcSweep sweep(query.m, query.k);
  SweepSnapshots(
      db, db.BeginTick(), db.EndTick(), /*threads=*/1,
      [&query](const std::vector<Point>& points,
               const std::vector<ObjectId>& ids, DbscanScratch*,
               FlatClusters* out) {
        return FlockSnapshotGroups(points, ids, query.radius, query.m, out);
      },
      sweep.Consume());
  return FinishSweep(&sweep, CmcOptions{});
}

}  // namespace convoy
