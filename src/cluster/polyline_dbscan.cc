#include "cluster/polyline_dbscan.h"

#include <algorithm>
#include <deque>

#include "geom/distance.h"

namespace convoy {

void PartitionPolyline::FinalizeBounds() {
  bbox = Box();
  max_tolerance = 0.0;
  for (const TimedSegment& seg : segments) {
    bbox.Extend(seg.start.pos);
    bbox.Extend(seg.end.pos);
  }
  for (const double tol : tolerances) {
    max_tolerance = std::max(max_tolerance, tol);
  }
}

bool PolylinesAreNeighbors(const PartitionPolyline& q,
                           const PartitionPolyline& i,
                           const PolylineDbscanOptions& opts,
                           PolylineClusterStats* stats) {
  if (stats != nullptr) ++stats->pair_tests;

  // Lemma 2 at the polyline level: if even the closest points of the two
  // bounding boxes are farther than e plus both maximum tolerances, no
  // segment pair can qualify.
  if (opts.use_box_pruning) {
    if (Dmin(q.bbox, i.bbox) > opts.eps + q.max_tolerance + i.max_tolerance) {
      if (stats != nullptr) ++stats->box_pruned;
      return false;
    }
  }

  // Merge-scan the two time-sorted segment lists so only time-overlapping
  // pairs are examined (the omega definition ranges over exactly those).
  size_t a = 0;
  size_t b = 0;
  while (a < q.segments.size() && b < i.segments.size()) {
    const TimedSegment& sq = q.segments[a];
    const TimedSegment& si = i.segments[b];
    const TickOverlap ov = OverlapTicks(sq, si);
    if (ov.valid) {
      if (stats != nullptr) ++stats->segment_tests;
      const double bound = opts.eps + q.tolerances[a] + i.tolerances[b];
      const double dist = opts.distance == SegmentDistanceKind::kDll
                              ? DLL(sq.Spatial(), si.Spatial())
                              : DStar(sq, si);
      if (dist <= bound) return true;
    }
    // Advance the segment that ends earlier; ties advance both.
    if (sq.EndTick() < si.EndTick()) {
      ++a;
    } else if (si.EndTick() < sq.EndTick()) {
      ++b;
    } else {
      ++a;
      ++b;
    }
  }
  return false;
}

Clustering PolylineDbscan(const std::vector<PartitionPolyline>& polylines,
                          const PolylineDbscanOptions& opts,
                          PolylineClusterStats* stats) {
  Clustering result;
  const size_t n = polylines.size();
  if (n == 0) return result;

  // Partitions hold at most one polyline per object (a few hundred), so an
  // explicit adjacency table is affordable and lets the DBSCAN expansion
  // reuse each symmetric omega evaluation.
  std::vector<std::vector<size_t>> adjacency(n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (PolylinesAreNeighbors(polylines[a], polylines[b], opts, stats)) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
      }
    }
  }

  constexpr uint32_t kUnvisited = 0xFFFFFFFF;
  constexpr uint32_t kNoise = 0xFFFFFFFE;
  std::vector<uint32_t> label(n, kUnvisited);
  std::deque<size_t> frontier;

  // |NH(p)| counts p itself, mirroring the point DBSCAN.
  const auto is_core = [&](size_t p) {
    return adjacency[p].size() + 1 >= opts.min_pts;
  };

  for (size_t seed = 0; seed < n; ++seed) {
    if (label[seed] != kUnvisited) continue;
    if (!is_core(seed)) {
      label[seed] = kNoise;
      continue;
    }
    const uint32_t cluster_id = static_cast<uint32_t>(result.clusters.size());
    result.clusters.emplace_back();
    label[seed] = cluster_id;
    result.clusters.back().push_back(seed);

    frontier.assign(adjacency[seed].begin(), adjacency[seed].end());
    while (!frontier.empty()) {
      const size_t p = frontier.front();
      frontier.pop_front();
      if (label[p] == kNoise) {
        label[p] = cluster_id;  // border polyline
        result.clusters.back().push_back(p);
        continue;
      }
      if (label[p] != kUnvisited) continue;
      label[p] = cluster_id;
      result.clusters.back().push_back(p);
      if (is_core(p)) {
        for (const size_t nb : adjacency[p]) {
          if (label[nb] == kUnvisited || label[nb] == kNoise) {
            frontier.push_back(nb);
          }
        }
      }
    }
  }
  return result;
}

}  // namespace convoy
