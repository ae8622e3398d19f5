#ifndef CONVOY_TESTS_REFERENCE_IMPL_H_
#define CONVOY_TESTS_REFERENCE_IMPL_H_

// Retained reference implementations of the hot-path structures the
// library has since rebuilt (flat-CSR GridIndex, arena DBSCAN,
// label-intersection CandidateTracker, the SoA polyline filter): the
// unordered_map-of-buckets grid, the deque-frontier DBSCAN with per-call
// allocations, the set_intersection + std::map candidate step, and the
// per-object PartitionPolyline path of the CuTS filter (merge-scan
// neighbour test and adjacency-table TRAJ-DBSCAN). They are deliberately
// the old code, kept verbatim where possible, so
//
//  * tests/hotpath_parity_test.cc and tests/polyline_parity_test.cc can
//    assert the optimized paths are bit-identical to first-principles
//    implementations on adversarial inputs, and
//  * bench/micro_components.cc and the BENCH_hotpath.json section of
//    bench/scalability can report old-vs-new shape speedups from inside
//    one binary.
//
// Header-only on purpose: it is test/bench scaffolding, not part of the
// library.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/dbscan.h"
#include "cluster/polyline_dbscan.h"
#include "core/candidate.h"
#include "geom/box.h"
#include "geom/distance.h"
#include "geom/point.h"
#include "geom/segment.h"
#include "simplify/simplified_trajectory.h"

namespace convoy::reference {

/// The pre-PR-5 uniform-grid index: unordered_map from packed cell key to
/// a bucket of point indices, 3x3 / multi-ring block probing with one hash
/// lookup per cell.
class ReferenceGridIndex {
 public:
  ReferenceGridIndex(const std::vector<Point>& points, double cell_size)
      : points_(points), cell_size_(cell_size) {
    if (!std::isfinite(cell_size_) || cell_size_ <= 0.0) cell_size_ = 1.0;
    cells_.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); ++i) {
      cells_[KeyFor(points_[i].x, points_[i].y)].push_back(
          static_cast<uint32_t>(i));
    }
  }

  std::vector<size_t> WithinRadius(const Point& probe, double radius) const {
    std::vector<size_t> out;
    WithinRadiusInto(probe, radius, &out);
    return out;
  }

  void WithinRadiusInto(const Point& probe, double radius,
                        std::vector<size_t>* out) const {
    out->clear();
    if (cells_.empty() || !(radius >= 0.0)) return;
    const double r2 = radius * radius;
    const double rings = std::max(1.0, std::ceil(radius / cell_size_));
    const double block_cells = (2.0 * rings + 1.0) * (2.0 * rings + 1.0);
    if (!(block_cells < static_cast<double>(cells_.size()))) {
      for (const auto& [key, bucket] : cells_) {
        for (const uint32_t idx : bucket) {
          if (D2(points_[idx], probe) <= r2) out->push_back(idx);
        }
      }
      return;
    }
    const int64_t reach = static_cast<int64_t>(rings);
    const int32_t cx = CellCoord(probe.x);
    const int32_t cy = CellCoord(probe.y);
    for (int64_t dx = -reach; dx <= reach; ++dx) {
      for (int64_t dy = -reach; dy <= reach; ++dy) {
        const auto it = cells_.find(PackCell(static_cast<int32_t>(cx + dx),
                                             static_cast<int32_t>(cy + dy)));
        if (it == cells_.end()) continue;
        for (const uint32_t idx : it->second) {
          if (D2(points_[idx], probe) <= r2) out->push_back(idx);
        }
      }
    }
  }

  size_t NumPoints() const { return points_.size(); }

 private:
  static uint64_t PackCell(int32_t cx, int32_t cy) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(cy));
  }
  int32_t CellCoord(double v) const {
    const double c = std::floor(v / cell_size_);
    if (!(c >= static_cast<double>(INT32_MIN))) return INT32_MIN;
    if (c >= static_cast<double>(INT32_MAX)) return INT32_MAX;
    return static_cast<int32_t>(c);
  }
  uint64_t KeyFor(double x, double y) const {
    return PackCell(CellCoord(x), CellCoord(y));
  }

  std::vector<Point> points_;
  double cell_size_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells_;
};

/// The pre-PR-5 DBSCAN: fresh label array and deque frontier per call,
/// neighborhoods from the reference grid. Same expansion order as the
/// production DbscanImpl, so over the same grid answers the Clustering is
/// identical.
inline Clustering ReferenceDbscan(const std::vector<Point>& points,
                                  double eps, size_t min_pts) {
  Clustering result;
  const size_t n = points.size();
  if (n == 0) return result;
  const ReferenceGridIndex index(points, eps);

  constexpr uint32_t kUnvisited = 0xFFFFFFFF;
  constexpr uint32_t kNoise = 0xFFFFFFFE;
  std::vector<uint32_t> label(n, kUnvisited);

  std::vector<size_t> neighbors;
  std::deque<size_t> frontier;

  for (size_t seed = 0; seed < n; ++seed) {
    if (label[seed] != kUnvisited) continue;
    index.WithinRadiusInto(points[seed], eps, &neighbors);
    if (neighbors.size() < min_pts) {
      label[seed] = kNoise;
      continue;
    }
    const uint32_t cluster_id = static_cast<uint32_t>(result.clusters.size());
    result.clusters.emplace_back();
    label[seed] = cluster_id;
    result.clusters.back().push_back(seed);

    frontier.assign(neighbors.begin(), neighbors.end());
    while (!frontier.empty()) {
      const size_t p = frontier.front();
      frontier.pop_front();
      if (label[p] == kNoise) {
        label[p] = cluster_id;
        result.clusters.back().push_back(p);
        continue;
      }
      if (label[p] != kUnvisited) continue;
      label[p] = cluster_id;
      result.clusters.back().push_back(p);
      index.WithinRadiusInto(points[p], eps, &neighbors);
      if (neighbors.size() >= min_pts) {
        for (const size_t q : neighbors) {
          if (label[q] == kUnvisited || label[q] == kNoise) {
            frontier.push_back(q);
          }
        }
      }
    }
  }
  return result;
}

/// The pre-PR-5 candidate step: one set_intersection per (candidate,
/// cluster) pair, successors deduped through an ordered map keyed on the
/// object vector. Drop-in shape-compatible with CandidateTracker.
class ReferenceCandidateTracker {
 public:
  ReferenceCandidateTracker(size_t m, Tick k) : m_(m), k_(k) {}

  void Advance(const std::vector<std::vector<ObjectId>>& clusters,
               Tick step_start, Tick step_end, Tick step_weight,
               std::vector<Candidate>* completed) {
    std::map<std::vector<ObjectId>, Candidate> next;
    const auto offer = [&next](Candidate cand) {
      auto [it, inserted] = next.try_emplace(cand.objects, cand);
      if (!inserted && cand.lifetime > it->second.lifetime) it->second = cand;
    };

    for (const Candidate& v : live_) {
      bool continued_intact = false;
      for (const std::vector<ObjectId>& c : clusters) {
        std::vector<ObjectId> common = IntersectSorted(v.objects, c);
        if (common.size() < m_) continue;
        continued_intact |= common.size() == v.objects.size();
        Candidate successor;
        successor.objects = std::move(common);
        successor.start_tick = v.start_tick;
        successor.end_tick = step_end;
        successor.lifetime = v.lifetime + step_weight;
        offer(std::move(successor));
      }
      if (!continued_intact && v.lifetime >= k_) completed->push_back(v);
    }

    for (const std::vector<ObjectId>& c : clusters) {
      if (c.size() < m_) continue;
      Candidate fresh;
      fresh.objects = c;
      fresh.start_tick = step_start;
      fresh.end_tick = step_end;
      fresh.lifetime = step_weight;
      offer(std::move(fresh));
    }

    live_.clear();
    live_.reserve(next.size());
    for (auto& [objects, cand] : next) live_.push_back(std::move(cand));
  }

  void Flush(std::vector<Candidate>* completed) {
    for (Candidate& v : live_) {
      if (v.lifetime >= k_) completed->push_back(std::move(v));
    }
    live_.clear();
  }

  size_t LiveCount() const { return live_.size(); }
  const std::vector<Candidate>& live() const { return live_; }

 private:
  size_t m_;
  Tick k_;
  std::vector<Candidate> live_;
};

/// One object's sub-polyline inside a time partition: the line segments of
/// its simplified trajectory whose time intervals intersect the partition,
/// each with the tolerance the filter should account for (the per-segment
/// *actual* tolerance, or the global delta when the actual-tolerance
/// optimization is disabled — paper Figure 14 compares the two). The
/// library builds the same data in SoA form (BuildPolylineSoa).
struct PartitionPolyline {
  ObjectId object = 0;
  std::vector<TimedSegment> segments;  ///< ascending, contiguous in time
  std::vector<double> tolerances;      ///< one per segment
  Box bbox;                            ///< spatial bound of all segments
  double max_tolerance = 0.0;          ///< delta_max over `tolerances`

  /// Recomputes bbox and max_tolerance from the segment lists.
  void FinalizeBounds() {
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
};

/// The e-neighborhood test for two partition polylines: true if
/// omega(q, i) <= e, i.e. some pair of time-overlapping segments satisfies
///   dist(l'_q, l'_i) <= e + tol(l'_q) + tol(l'_i)
/// (Lemma 1 for DLL, Lemma 3 for D*). This is the condition under which the
/// original trajectories can possibly come within distance e of each other
/// at some shared tick, so keeping such pairs guarantees no false dismissal.
inline bool PolylinesAreNeighbors(const PartitionPolyline& q,
                                  const PartitionPolyline& i,
                                  const PolylineDbscanOptions& opts,
                                  PolylineClusterStats* stats = nullptr) {
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

/// TRAJ-DBSCAN (paper Section 5.2/5.3): density-connected clustering of the
/// sub-polylines of one time partition under the neighborhood test above.
/// Returns clusters of input indices; unclustered polylines are noise.
inline Clustering PolylineDbscan(
    const std::vector<PartitionPolyline>& polylines,
    const PolylineDbscanOptions& opts, PolylineClusterStats* stats = nullptr) {
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

/// Gathers each object's sub-polyline for the partition
/// [part_start, part_end]: the simplified segments whose time intervals
/// intersect the partition (a segment spanning a boundary goes into both
/// partitions, as in paper Figure 9(b)). The reference form of the
/// filter's per-partition input; BuildPolylineSoa builds the same data.
inline std::vector<PartitionPolyline> BuildPartitionPolylines(
    const std::vector<SimplifiedTrajectory>& simplified, Tick part_start,
    Tick part_end, bool use_actual_tolerance, double delta_used) {
  std::vector<PartitionPolyline> polylines;
  for (const SimplifiedTrajectory& simp : simplified) {
    PartitionPolyline poly;
    poly.object = simp.id();
    if (simp.NumSegments() == 0) {
      // Single-sample trajectory: represent it as a degenerate zero-
      // length segment so the filter can still see the object (a
      // one-tick convoy through it must not be dismissed).
      if (simp.NumVertices() != 1) continue;
      const TimedPoint& v = simp.vertices().front();
      if (v.t < part_start || v.t > part_end) continue;
      poly.segments.push_back(TimedSegment(v, v));
      poly.tolerances.push_back(0.0);
    } else {
      const auto range = simp.SegmentsIntersecting(part_start, part_end);
      if (!range.has_value()) continue;
      for (size_t s = range->first; s <= range->second; ++s) {
        poly.segments.push_back(simp.GetSegment(s));
        poly.tolerances.push_back(use_actual_tolerance
                                      ? simp.SegmentTolerance(s)
                                      : delta_used);
      }
    }
    poly.FinalizeBounds();
    polylines.push_back(std::move(poly));
  }
  return polylines;
}

}  // namespace convoy::reference

#endif  // CONVOY_TESTS_REFERENCE_IMPL_H_
