#ifndef CONVOY_TESTS_ORACLE_H_
#define CONVOY_TESTS_ORACLE_H_

// A brute-force convoy oracle straight from the paper's Definition 3, for
// differential tests of the exact algorithms on small databases. It shares
// only DBSCAN and the interpolation with CMC — no candidate tracking, no
// filter, no store — so a disagreement points at the discovery algebra.
//
// Header-only on purpose: it is test scaffolding, not part of the library.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/dbscan.h"
#include "core/convoy_set.h"
#include "geom/point.h"
#include "traj/database.h"
#include "traj/interpolate.h"

namespace convoy::oracle {

/// The largest database BruteForceConvoys accepts: it enumerates every
/// subset of the objects.
inline constexpr size_t kMaxObjects = 10;

/// Every convoy of `db` under `query`, maximal and canonical, found by
/// exhaustion:
///
///  1. each tick's snapshot — every object alive at the tick, at its
///     (possibly interpolated) position, in database order — is clustered
///     once with Dbscan(e, m);
///  2. for every subset of at least m objects, each maximal run of at
///     least k consecutive ticks in which all its members are alive and
///     share one cluster is a convoy;
///  3. RemoveDominated keeps the maximal ones.
///
/// Precondition: db.Size() <= kMaxObjects (returns nothing otherwise).
inline std::vector<Convoy> BruteForceConvoys(const TrajectoryDatabase& db,
                                             const ConvoyQuery& query) {
  const size_t n = db.Size();
  if (db.Empty() || n > kMaxObjects) return {};
  const Tick begin = db.BeginTick();
  const Tick end = db.EndTick();
  if (end < begin) return {};
  const size_t num_ticks = static_cast<size_t>(end - begin) + 1;

  // cluster_of[s][i]: the cluster of object i at tick begin + s, or nullopt
  // when the object is dead or noise there.
  std::vector<std::vector<std::optional<size_t>>> cluster_of(
      num_ticks, std::vector<std::optional<size_t>>(n));
  for (size_t s = 0; s < num_ticks; ++s) {
    const Tick t = begin + static_cast<Tick>(s);
    std::vector<Point> points;
    std::vector<size_t> rows;
    for (size_t i = 0; i < n; ++i) {
      if (const std::optional<Point> p = InterpolateAt(db[i], t)) {
        points.push_back(*p);
        rows.push_back(i);
      }
    }
    const Clustering clustering = Dbscan(points, query.e, query.m);
    for (size_t c = 0; c < clustering.clusters.size(); ++c) {
      for (const size_t idx : clustering.clusters[c]) {
        cluster_of[s][rows[idx]] = c;
      }
    }
  }

  const auto together = [&](uint32_t subset, size_t s) {
    std::optional<size_t> shared;
    for (size_t i = 0; i < n; ++i) {
      if ((subset >> i & 1u) == 0) continue;
      const std::optional<size_t> c = cluster_of[s][i];
      if (!c.has_value() || (shared.has_value() && *shared != *c)) {
        return false;
      }
      shared = c;
    }
    return true;
  };

  std::vector<Convoy> found;
  for (uint32_t subset = 1; subset < (uint32_t{1} << n); ++subset) {
    if (static_cast<size_t>(std::popcount(subset)) < query.m) continue;
    std::vector<ObjectId> objects;
    for (size_t i = 0; i < n; ++i) {
      if ((subset >> i & 1u) != 0) objects.push_back(db[i].id());
    }
    std::sort(objects.begin(), objects.end());
    size_t run_start = 0;
    bool in_run = false;
    for (size_t s = 0; s <= num_ticks; ++s) {
      const bool here = s < num_ticks && together(subset, s);
      if (here && !in_run) run_start = s;
      if (!here && in_run &&
          static_cast<Tick>(s - run_start) >= query.k) {
        found.push_back(Convoy{objects, begin + static_cast<Tick>(run_start),
                               begin + static_cast<Tick>(s) - 1});
      }
      in_run = here;
    }
  }
  return RemoveDominated(std::move(found));
}

}  // namespace convoy::oracle

#endif  // CONVOY_TESTS_ORACLE_H_
