#ifndef CONVOY_CLUSTER_POLYLINE_DBSCAN_H_
#define CONVOY_CLUSTER_POLYLINE_DBSCAN_H_

#include <cstddef>

namespace convoy {

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
                              ///< (SoA path only; the reference scan in
                              ///< tests/reference_impl.h has no
                              ///< segment-level prune and leaves this 0)
};

/// Options for TRAJ-DBSCAN (PolylineDbscanSoa, cluster/polyline_soa.h).
struct PolylineDbscanOptions {
  double eps = 0.0;                 ///< the convoy query's e
  size_t min_pts = 1;               ///< the convoy query's m
  SegmentDistanceKind distance = SegmentDistanceKind::kDll;
  bool use_box_pruning = true;      ///< apply Lemma 2 before segment pairs
};

}  // namespace convoy

#endif  // CONVOY_CLUSTER_POLYLINE_DBSCAN_H_
