#include "core/verify.h"

#include <algorithm>
#include <cstdint>

#include "cluster/dbscan.h"
#include "traj/interpolate.h"

namespace convoy {

bool ObjectsConnectedAt(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const std::vector<ObjectId>& objects, Tick t) {
  std::vector<Point> snapshot;
  std::vector<ObjectId> snapshot_ids;
  for (const Trajectory& traj : db.trajectories()) {
    const auto pos = InterpolateAt(traj, t);
    if (!pos.has_value()) continue;
    snapshot.push_back(*pos);
    snapshot_ids.push_back(traj.id());
  }

  // Two sorted vectors replace the per-(convoy, tick) unordered_sets the
  // checker used to rebuild: convoy object lists arrive sorted (candidates
  // are sorted unique — re-sorted here only if a direct caller passed an
  // unsorted list), and the snapshot ids sort once per tick. Membership is
  // then a binary search — no hashing, no node allocations.
  std::vector<ObjectId> wanted = objects;
  if (!std::is_sorted(wanted.begin(), wanted.end())) {
    std::sort(wanted.begin(), wanted.end());
  }
  // Dedupe to keep the hits == wanted.size() test meaning "all distinct
  // queried objects", exactly as the old set semantics had it.
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  std::vector<ObjectId> alive = snapshot_ids;
  std::sort(alive.begin(), alive.end());

  // Every queried object must be alive at t.
  for (const ObjectId id : wanted) {
    if (!std::binary_search(alive.begin(), alive.end(), id)) return false;
  }

  const Clustering clustering = Dbscan(snapshot, query.e, query.m);
  for (const std::vector<size_t>& cluster : clustering.clusters) {
    size_t hits = 0;
    for (const size_t idx : cluster) {
      if (std::binary_search(wanted.begin(), wanted.end(),
                             snapshot_ids[idx])) {
        ++hits;
      }
    }
    if (hits == wanted.size()) return true;
    if (hits > 0) return false;  // split across clusters (or partly noise)
  }
  return false;
}

bool VerifyConvoy(const TrajectoryDatabase& db, const ConvoyQuery& query,
                  const Convoy& candidate) {
  if (candidate.objects.size() < query.m) return false;
  if (candidate.Lifetime() < query.k) return false;
  if (candidate.end_tick < candidate.start_tick) return true;  // no tick
  // By offset, so a convoy ending at INT64_MAX never steps past it.
  const uint64_t first = static_cast<uint64_t>(candidate.start_tick);
  const uint64_t last = static_cast<uint64_t>(candidate.end_tick) - first;
  for (uint64_t offset = 0; offset <= last; ++offset) {
    const Tick t = static_cast<Tick>(first + offset);
    if (!ObjectsConnectedAt(db, query, candidate.objects, t)) return false;
  }
  return true;
}

}  // namespace convoy
