#ifndef CONVOY_CLUSTER_GRID_INDEX_H_
#define CONVOY_CLUSTER_GRID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/point.h"

namespace convoy {

/// Uniform-grid spatial index over a fixed set of points, supporting
/// e-neighborhood queries (the core operation of DBSCAN, paper Section 5.2).
///
/// Cell side equals the query radius, so a radius query inspects at most the
/// 3x3 block of cells around the probe. This gives the O(N log N)-style
/// behaviour the paper attributes to "DBSCAN with a spatial index" without
/// pulling in an R-tree; snapshot point sets are rebuilt every timestamp, so
/// build cost matters as much as query cost.
///
/// Layout: a flat CSR over the sorted occupied-cell keys — one contiguous
/// array of point indices grouped by cell (ascending within each cell) with
/// the point coordinates copied into the same order. Building is one sort
/// of (cell key, point index) pairs instead of a hash insert per point. A
/// general radius query probes whole grid rows with one binary search each
/// (the cells of a row are consecutive keys) and then distance-tests
/// coordinates it reads linearly; the DBSCAN query shape (NeighborsOfInto:
/// probe == an indexed point, radius <= cell size) skips even those — each
/// cell's 3x3 block is precomputed at build time as three contiguous CSR
/// intervals. Query answers — including result order — are identical to
/// the historical unordered_map-of-buckets layout on the 3x3/multi-ring
/// path; the huge-radius fallback scan enumerates cells in sorted key
/// order (the hash layout scanned them in unspecified bucket order).
class GridIndex {
 public:
  /// Empty index (no points); Assign to populate. Exists so scratch arenas
  /// can hold a reusable instance.
  GridIndex() = default;

  /// Builds the index over `points` with cell side `cell_size`. A
  /// non-positive or non-finite `cell_size` (e.g. a DBSCAN eps of 0, which
  /// "exact coincidence" queries legitimately use) falls back to a unit
  /// cell — queries stay exhaustive, only their cost changes.
  GridIndex(const std::vector<Point>& points, double cell_size);

  /// Rebuilds the index in place, reusing the CSR arrays' capacity — the
  /// arena path for callers that build one index per snapshot in a hot
  /// loop (ClusterSnapshot, SnapshotClusters). State after Assign is
  /// identical to a freshly constructed index over the same input; the
  /// columnar overload (the SnapshotStore's per-tick layout) builds the
  /// same state as the Point-vector one over the same coordinates in the
  /// same order, so every query answer, result order included, agrees.
  void Assign(const double* xs, const double* ys, size_t n, double cell_size);
  void Assign(const std::vector<Point>& points, double cell_size);

  /// Returns the indices of all points within distance `radius` of `probe`
  /// (inclusive). Radii up to cell_size scan the 3x3 block around the
  /// probe; larger radii automatically widen to the multi-ring block of
  /// ceil(radius / cell_size) cells, so the result is exhaustive for every
  /// radius — a radius > cell_size costs more, it is never silently
  /// incomplete.
  std::vector<size_t> WithinRadius(const Point& probe, double radius) const;

  /// Appends the result of WithinRadius to `out` (no allocation churn in
  /// DBSCAN's inner loop).
  void WithinRadiusInto(const Point& probe, double radius,
                        std::vector<size_t>* out) const;

  /// WithinRadiusInto for a probe that *is* indexed point `i` — DBSCAN's
  /// only query shape. `probe` must be the indexed coordinates of point
  /// `i` (the caller owns the point arrays; passing them back avoids an
  /// indirection here). Output — content and order — is exactly
  /// WithinRadiusInto(probe, radius, out); the speedup is structural: for
  /// radius <= cell_size the point's 3x3 block was precomputed at build
  /// time as three contiguous CSR intervals (cells of one block row are
  /// consecutive keys, and consecutive cells hold consecutive point
  /// ranges), so the query is three linear scans with no cell lookups at
  /// all. Larger radii and degenerate grids fall through to the general
  /// path.
  void NeighborsOfInto(size_t i, const Point& probe, double radius,
                       std::vector<size_t>* out) const;

  size_t NumPoints() const { return n_; }

  /// Number of occupied grid cells (distinct cell keys).
  size_t NumCells() const { return cell_keys_.size(); }

 private:
  using CellKey = uint64_t;
  /// Shared build: applies the degenerate-cell-size fallback and fills the
  /// CSR arrays, generic over how coordinate i is fetched so the
  /// row-oriented and columnar entry points cannot drift apart (their
  /// identical internal state is what the store-vs-rows parity contract
  /// rests on). Defined in the .cc; instantiated only there.
  template <typename XAt, typename YAt>
  void AssignImpl(size_t n, double cell_size, XAt&& x_at, YAt&& y_at);
  CellKey KeyFor(double x, double y) const;
  int32_t CellCoord(double v) const;
  /// Distance-tests CSR positions [lo, hi) against the probe and appends
  /// the matching original point indices to out.
  void ScanRange(size_t lo, size_t hi, const Point& probe, double r2,
                 std::vector<size_t>* out) const;

  size_t n_ = 0;
  double cell_size_ = 1.0;
  /// Sorted unique keys of the occupied cells. Keys order rows by cell-x
  /// and, within a row, by cell-y (sign-bit-biased packing, see PackCell),
  /// so one grid row of a query block is a contiguous key interval.
  std::vector<CellKey> cell_keys_;
  /// CSR offsets: cell c covers point_of_[cell_starts_[c], cell_starts_[c+1]).
  std::vector<uint32_t> cell_starts_;
  /// Original point indices grouped by cell, ascending within each cell.
  std::vector<uint32_t> point_of_;
  /// Point coordinates permuted into point_of_ order: the query inner loop
  /// reads them linearly instead of gathering through point_of_.
  std::vector<double> sx_, sy_;
  /// Per-point (cell key, point index) pairs, kept between Assign calls
  /// as build scratch; the one-shot constructor releases it.
  std::vector<std::pair<CellKey, uint32_t>> key_scratch_;

  /// NeighborsOfInto acceleration, built only when the grid has more than
  /// 9 occupied cells (smaller grids answer every query with the full
  /// scan): for each point its cell index, and for each cell the three
  /// contiguous CSR point intervals covering its 3x3 block (one per block
  /// row dx in {-1, 0, 1}; slot 3*cell + dx + 1). row_lo_[3*cell] ==
  /// kSlowCell marks cells at the int32 coordinate boundary, where block
  /// rows are not key-contiguous — those fall back to the general path.
  static constexpr uint32_t kSlowCell = 0xFFFFFFFFu;
  std::vector<uint32_t> cell_of_point_;
  std::vector<uint32_t> row_lo_, row_hi_;
};

}  // namespace convoy

#endif  // CONVOY_CLUSTER_GRID_INDEX_H_
