#ifndef CONVOY_CLUSTER_POLYLINE_DBSCAN_H_
#define CONVOY_CLUSTER_POLYLINE_DBSCAN_H_

#include <cstddef>
#include <vector>

#include "cluster/dbscan.h"
#include "geom/box.h"
#include "geom/segment.h"
#include "traj/trajectory.h"

namespace convoy {

/// One object's sub-polyline inside a time partition: the line segments of
/// its simplified trajectory whose time intervals intersect the partition,
/// each with the tolerance the filter should account for (the per-segment
/// *actual* tolerance, or the global delta when the actual-tolerance
/// optimization is disabled — paper Figure 14 compares the two).
struct PartitionPolyline {
  ObjectId object = 0;
  std::vector<TimedSegment> segments;  ///< ascending, contiguous in time
  std::vector<double> tolerances;      ///< one per segment
  Box bbox;                            ///< spatial bound of all segments
  double max_tolerance = 0.0;          ///< delta_max over `tolerances`

  /// Recomputes bbox and max_tolerance from the segment lists.
  void FinalizeBounds();
};

/// Which segment-pair distance the neighborhood test uses.
enum class SegmentDistanceKind {
  kDll,    ///< spatial shortest distance DLL (CuTS, CuTS+; Lemma 1)
  kDStar,  ///< time-aware CPA distance D* (CuTS*; Lemma 3)
};

/// Statistics of one TRAJ-DBSCAN invocation, used by the pruning-ablation
/// benchmark: how often the Lemma 2 bounding-box test rejected a polyline
/// pair before any segment pair was inspected.
struct PolylineClusterStats {
  size_t pair_tests = 0;      ///< polyline pairs examined
  size_t box_pruned = 0;      ///< pairs rejected by the Lemma 2 box bound
  size_t segment_tests = 0;   ///< segment pairs whose distance was computed
  size_t mbr_rejects = 0;     ///< segment pairs rejected by the MBR bound
                              ///< (SoA path only; the reference scan has no
                              ///< segment-level prune and leaves this 0)
};

/// Options for TRAJ-DBSCAN.
struct PolylineDbscanOptions {
  double eps = 0.0;                 ///< the convoy query's e
  size_t min_pts = 1;               ///< the convoy query's m
  SegmentDistanceKind distance = SegmentDistanceKind::kDll;
  bool use_box_pruning = true;      ///< apply Lemma 2 before segment pairs
};

/// The e-neighborhood test for two partition polylines: true if
/// omega(q, i) <= e, i.e. some pair of time-overlapping segments satisfies
///   dist(l'_q, l'_i) <= e + tol(l'_q) + tol(l'_i)
/// (Lemma 1 for DLL, Lemma 3 for D*). This is the condition under which the
/// original trajectories can possibly come within distance e of each other
/// at some shared tick, so keeping such pairs guarantees no false dismissal.
bool PolylinesAreNeighbors(const PartitionPolyline& q,
                           const PartitionPolyline& i,
                           const PolylineDbscanOptions& opts,
                           PolylineClusterStats* stats = nullptr);

/// TRAJ-DBSCAN (paper Section 5.2/5.3): density-connected clustering of the
/// sub-polylines of one time partition under the neighborhood test above.
/// Returns clusters of input indices; unclustered polylines are noise.
Clustering PolylineDbscan(const std::vector<PartitionPolyline>& polylines,
                          const PolylineDbscanOptions& opts,
                          PolylineClusterStats* stats = nullptr);

}  // namespace convoy

#endif  // CONVOY_CLUSTER_POLYLINE_DBSCAN_H_
