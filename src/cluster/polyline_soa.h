#ifndef CONVOY_CLUSTER_POLYLINE_SOA_H_
#define CONVOY_CLUSTER_POLYLINE_SOA_H_

#include <cstdint>
#include <vector>

#include "cluster/dbscan.h"
#include "cluster/polyline_dbscan.h"
#include "simd/dist_kernels.h"
#include "simplify/simplified_trajectory.h"

namespace convoy {

/// The partition polylines of one time partition in CSR structure-of-arrays
/// form: all segments of all polylines live in one set of contiguous arrays
/// (scan order — polyline by polyline, ascending in time within each), and
/// `seg_start` delimits each polyline's slice. This is the layout the SIMD
/// distance kernels consume; semantically it carries exactly the same data
/// as the reference path's vector<PartitionPolyline>
/// (tests/reference_impl.h; property-tested bit-for-bit).
struct PolylineSoa {
  // Per polyline (NumPolylines() entries; seg_start has one extra).
  std::vector<ObjectId> object;
  std::vector<uint32_t> seg_start;  ///< CSR offsets into the segment arrays
  std::vector<double> bminx, bmaxx, bminy, bmaxy;  ///< polyline bounding box
  std::vector<double> ptol;                        ///< max segment tolerance

  // Per segment, global scan order.
  std::vector<double> x0, y0, x1, y1;  ///< endpoints
  std::vector<double> t0, t1;          ///< tick interval, exact doubles
  std::vector<double> sminx, smaxx, sminy, smaxy;  ///< per-segment MBR
  std::vector<double> stol;                        ///< per-segment tolerance

  size_t NumPolylines() const { return object.size(); }
  size_t NumSegments() const { return x0.size(); }

  /// Drops all content but keeps every array's capacity (arena discipline:
  /// one PolylineSoa per worker amortizes allocation across partitions).
  void Clear();

  /// Appends one segment to the open (not yet finalized) polyline.
  void PushSegment(double px0, double py0, double px1, double py1, Tick tick0,
                   Tick tick1, double tolerance);

  /// Closes the polyline whose first segment sits at index `first_segment`:
  /// records the object id, the CSR end offset, the bounding box, and the
  /// max tolerance. Requires at least one segment since the previous close.
  void FinalizePolyline(ObjectId id, size_t first_segment);

  /// The kernel-facing borrowed view of the segment arrays.
  simd::SegmentSoa SegmentView() const;
};

/// Builds the partition's polylines directly into SoA form. Selection and
/// values mirror the reference partition gather (tests/reference_impl.h)
/// exactly: same segment ranges, same degenerate single-vertex handling,
/// same tolerance choice, and bit-identical bounds.
void BuildPolylineSoa(const std::vector<SimplifiedTrajectory>& simplified,
                      Tick part_start, Tick part_end,
                      bool use_actual_tolerance, double delta_used,
                      PolylineSoa* out);

/// Reusable working set for PolylineDbscanSoa — the SoA storage itself plus
/// every per-partition buffer the clustering needs, so a worker thread that
/// processes many partitions performs O(1) allocations at steady state
/// (mirroring DbscanScratch for the point DBSCAN).
struct PolylineDbscanScratch {
  PolylineSoa soa;
  std::vector<std::vector<uint32_t>> adjacency;  ///< inner capacity retained
  std::vector<uint32_t> label;
  std::vector<uint32_t> frontier;   ///< vector-backed FIFO (head index)
  std::vector<uint32_t> survivors;  ///< box-prune sweep output buffer
};

/// TRAJ-DBSCAN over the SoA layout, dispatching the neighborhood tests to
/// the SIMD kernels. Produces clusters (of polyline indices) identical to
/// the reference TRAJ-DBSCAN on the equivalent vector<PartitionPolyline>
/// input (tests/reference_impl.h) — the
/// kernels are bit-identical to the reference merge scan, candidate pairs
/// are enumerated in the same ascending order, and the expansion replays
/// the same FIFO walk. `stats` additionally receives `mbr_rejects`, which
/// the reference path (no segment-MBR prune) leaves at zero.
Clustering PolylineDbscanSoa(const PolylineDbscanOptions& opts,
                             PolylineDbscanScratch* scratch,
                             PolylineClusterStats* stats = nullptr);

}  // namespace convoy

#endif  // CONVOY_CLUSTER_POLYLINE_SOA_H_
