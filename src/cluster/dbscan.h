#ifndef CONVOY_CLUSTER_DBSCAN_H_
#define CONVOY_CLUSTER_DBSCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/grid_index.h"
#include "geom/point.h"

namespace convoy {

/// Result of a snapshot clustering: each cluster is a list of input indices;
/// points in no cluster are DBSCAN noise.
struct Clustering {
  std::vector<std::vector<size_t>> clusters;

  /// True if index i belongs to some cluster (computed on demand in tests).
  size_t NumClusteredPoints() const {
    size_t n = 0;
    for (const auto& c : clusters) n += c.size();
    return n;
  }
};

/// Work tallies of the most recent Dbscan run through a scratch arena —
/// the raw material for the observability layer's deterministic counters
/// (obs/trace.h). Derived purely from the input and the expansion order,
/// so for a given snapshot the tally is identical at every thread count.
/// Maintained as plain local accumulators inside the scan (two integer
/// adds per neighborhood query — far below measurement noise) and stored
/// once per run, so no per-point branch on any trace state is ever paid.
struct DbscanTally {
  uint64_t points_scanned = 0;    ///< n — points labeled this run
  uint64_t neighbor_queries = 0;  ///< grid neighborhood lookups issued
  uint64_t neighbors_visited = 0; ///< neighbor list entries returned
  uint64_t clusters_formed = 0;   ///< clusters in the result
};

/// Reusable working set for Dbscan: the label array, the neighbor buffer,
/// and the BFS frontier (a vector drained front-to-back — FIFO order, same
/// expansion as the historical deque, without its per-node allocation).
/// Also carries a GridIndex arena for callers that build a fresh index per
/// snapshot (ClusterSnapshot). A default-constructed instance is ready to
/// use; contents carry no information between calls — every run fully
/// resets what it reads — so reuse can never change results, only spare
/// the per-snapshot allocations that dominate small-snapshot ticks.
struct DbscanScratch {
  std::vector<uint32_t> labels;
  std::vector<size_t> neighbors;
  std::vector<size_t> frontier;
  GridIndex grid;
  /// Overwritten by every run through this scratch; callers that trace
  /// read it right after the call (core/cmc.cc, core/streaming.cc).
  DbscanTally tally;
};

/// DBSCAN (Ester et al. 1996), the snapshot clustering the paper's density
/// connection is defined through (Definition 2).
///
/// A point is a *core* point when its e-neighborhood (which includes the
/// point itself) holds at least `min_pts` points. Clusters are the maximal
/// density-connected sets: connected components of core points under the
/// "within e" relation, plus every border point reachable from a core point.
/// Border points equidistant to several clusters join the first cluster that
/// reaches them (the classic DBSCAN tie-break); noise points appear in no
/// cluster.
///
/// Runs on a uniform-grid index: expected O(N) neighborhood cost for the
/// near-uniform snapshots the datasets produce, O(N^2) worst case.
Clustering Dbscan(const std::vector<Point>& points, double eps,
                  size_t min_pts);

/// Variant taking a prebuilt GridIndex over the same `points` (built with a
/// cell size >= eps). ClusterSnapshot — CMC's per-tick unit of work on the
/// rows — builds the index itself and feeds it in, so in a threaded CMC
/// run the index builds run concurrently across snapshots; results are
/// identical to the index-less overload. `scratch` (optional) supplies the reusable working
/// set; without one, a call-local arena is used.
Clustering Dbscan(const std::vector<Point>& points, const GridIndex& index,
                  double eps, size_t min_pts,
                  DbscanScratch* scratch = nullptr);

/// Columnar overload over parallel coordinate arrays — the SnapshotStore's
/// per-tick structure-of-arrays layout — with a prebuilt index over the
/// same coordinates in the same order (SnapshotClusters, core/cmc.h).
/// Results are identical to the Point-vector overloads: the probe points
/// are bitwise the same and expansion order depends only on index order.
Clustering Dbscan(const double* xs, const double* ys, size_t n,
                  const GridIndex& index, double eps, size_t min_pts,
                  DbscanScratch* scratch = nullptr);

}  // namespace convoy

#endif  // CONVOY_CLUSTER_DBSCAN_H_
