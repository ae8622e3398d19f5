#include "cluster/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace convoy {

namespace {

// Packs the two signed cell coordinates into one 64-bit key. The sign bit
// of each coordinate is flipped (offset-binary bias), which makes the
// unsigned key order agree with the numeric (cx, then cy) order — that is
// what turns one grid row of a query block into a contiguous key interval.
uint64_t PackCell(int32_t cx, int32_t cy) {
  const uint32_t bx = static_cast<uint32_t>(cx) ^ 0x80000000u;
  const uint32_t by = static_cast<uint32_t>(cy) ^ 0x80000000u;
  return (static_cast<uint64_t>(bx) << 32) | static_cast<uint64_t>(by);
}

int32_t UnpackCellX(uint64_t key) {
  return static_cast<int32_t>(static_cast<uint32_t>(key >> 32) ^ 0x80000000u);
}

int32_t UnpackCellY(uint64_t key) {
  return static_cast<int32_t>(static_cast<uint32_t>(key) ^ 0x80000000u);
}

}  // namespace

GridIndex::GridIndex(const std::vector<Point>& points, double cell_size) {
  Assign(points, cell_size);
  // One-shot build: an instance that lives on carries only the CSR arrays.
  key_scratch_ = {};
}

void GridIndex::Assign(const std::vector<Point>& points, double cell_size) {
  AssignImpl(points.size(), cell_size,
             [&points](size_t i) { return points[i].x; },
             [&points](size_t i) { return points[i].y; });
}

void GridIndex::Assign(const double* xs, const double* ys, size_t n,
                       double cell_size) {
  AssignImpl(n, cell_size, [xs](size_t i) { return xs[i]; },
             [ys](size_t i) { return ys[i]; });
}

template <typename XAt, typename YAt>
void GridIndex::AssignImpl(size_t n, double cell_size, XAt&& x_at,
                           YAt&& y_at) {
  n_ = n;
  cell_size_ = cell_size;
  // Degenerate cell sizes (eps = 0 queries, corrupted options) fall back to
  // a unit grid: correctness only needs *some* positive cell side, since
  // WithinRadiusInto widens its scan to cover any radius.
  if (!std::isfinite(cell_size_) || cell_size_ <= 0.0) cell_size_ = 1.0;

  // (key, index) pairs sort without gathering through a side array, and
  // pair order (key first, index second) gives ascending original index
  // within a cell — exactly the order the per-bucket push_backs of the
  // old hash layout produced, so downstream DBSCAN expansion order is
  // unchanged.
  key_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    key_scratch_[i] = {KeyFor(x_at(i), y_at(i)), static_cast<uint32_t>(i)};
  }
  std::sort(key_scratch_.begin(), key_scratch_.end());

  point_of_.resize(n);
  sx_.resize(n);
  sy_.resize(n);
  cell_keys_.clear();
  cell_starts_.clear();
  for (size_t j = 0; j < n; ++j) {
    const uint32_t p = key_scratch_[j].second;
    point_of_[j] = p;
    sx_[j] = x_at(p);
    sy_[j] = y_at(p);
    const CellKey key = key_scratch_[j].first;
    if (cell_keys_.empty() || key != cell_keys_.back()) {
      cell_keys_.push_back(key);
      cell_starts_.push_back(static_cast<uint32_t>(j));
    }
  }
  cell_starts_.push_back(static_cast<uint32_t>(n));

  // NeighborsOfInto acceleration — only worthwhile when radius-sized
  // queries take the block path at all (more than the 3x3 block's 9 cells
  // occupied; below that every query is a full scan and never reads these
  // tables).
  const size_t num_cells = cell_keys_.size();
  if (num_cells <= 9) return;
  cell_of_point_.resize(n);
  for (size_t c = 0; c < num_cells; ++c) {
    for (uint32_t j = cell_starts_[c]; j < cell_starts_[c + 1]; ++j) {
      cell_of_point_[point_of_[j]] = static_cast<uint32_t>(c);
    }
  }
  row_lo_.resize(3 * num_cells);
  row_hi_.resize(3 * num_cells);
  // For each block row dx, the target key interval of cell (cx, cy) is
  // [Pack(cx+dx, cy-1), Pack(cx+dx, cy+1)] — nondecreasing as cells ascend
  // in key order, so one merge pointer per dx resolves every cell's
  // interval in O(cells) total. Cells whose cy sits at the int32 boundary
  // (their dy range wraps, so it is not one key interval) are marked slow
  // and answered by the general path; a wrapped cx target (saturated
  // boundary cells) only breaks the pointer's monotonicity, handled by a
  // rare reset.
  for (int64_t dx = -1; dx <= 1; ++dx) {
    const size_t row = static_cast<size_t>(dx + 1);
    size_t hint = 0;
    CellKey prev_lo = 0;
    for (size_t c = 0; c < num_cells; ++c) {
      const int32_t cx = UnpackCellX(cell_keys_[c]);
      const int32_t cy = UnpackCellY(cell_keys_[c]);
      if (cy == INT32_MIN || cy == INT32_MAX) {
        row_lo_[3 * c] = kSlowCell;
        continue;
      }
      const int32_t x = static_cast<int32_t>(cx + dx);  // wraps like the
                                                        // general path
      const CellKey lo = PackCell(x, cy - 1);
      const CellKey hi = PackCell(x, cy + 1);
      if (lo < prev_lo) hint = 0;
      prev_lo = lo;
      while (hint < num_cells && cell_keys_[hint] < lo) ++hint;
      size_t end = hint;
      while (end < num_cells && cell_keys_[end] <= hi) ++end;
      row_lo_[3 * c + row] = cell_starts_[hint];
      row_hi_[3 * c + row] = cell_starts_[end];
    }
  }
}

int32_t GridIndex::CellCoord(double v) const {
  const double c = std::floor(v / cell_size_);
  // Saturate instead of invoking the UB float->int cast on out-of-range or
  // NaN values: coordinates this far out (beyond ~2^31 cells) all collapse
  // onto the boundary cell together with any probe near them, so queries
  // remain exhaustive; NaN deterministically saturates low and is then
  // rejected by the distance test (NaN compares false).
  if (!(c >= static_cast<double>(INT32_MIN))) return INT32_MIN;
  if (c >= static_cast<double>(INT32_MAX)) return INT32_MAX;
  return static_cast<int32_t>(c);
}

GridIndex::CellKey GridIndex::KeyFor(double x, double y) const {
  return PackCell(CellCoord(x), CellCoord(y));
}

std::vector<size_t> GridIndex::WithinRadius(const Point& probe,
                                            double radius) const {
  std::vector<size_t> out;
  WithinRadiusInto(probe, radius, &out);
  return out;
}

void GridIndex::ScanRange(size_t lo, size_t hi, const Point& probe, double r2,
                          std::vector<size_t>* out) const {
  for (size_t j = lo; j < hi; ++j) {
    const double dx = sx_[j] - probe.x;
    const double dy = sy_[j] - probe.y;
    if (dx * dx + dy * dy <= r2) out->push_back(point_of_[j]);
  }
}

void GridIndex::NeighborsOfInto(size_t i, const Point& probe, double radius,
                                std::vector<size_t>* out) const {
  // Every early-out below mirrors WithinRadiusInto exactly — the fast path
  // may only change *how* the 3x3 block is enumerated, never which cells
  // it covers or in what order (row-major, ascending cell-y, ascending
  // point index within a cell).
  out->clear();
  if (n_ == 0 || !(radius >= 0.0)) return;
  if (!(radius <= cell_size_)) {
    // Multi-ring radius: the precomputed intervals cover reach 1 only.
    WithinRadiusInto(probe, radius, out);
    return;
  }
  const double r2 = radius * radius;
  if (cell_keys_.size() <= 9) {
    ScanRange(0, n_, probe, r2, out);  // the general path's full-scan case
    return;
  }
  const uint32_t c = cell_of_point_[i];
  if (row_lo_[3 * c] == kSlowCell) {
    WithinRadiusInto(probe, radius, out);
    return;
  }
  ScanRange(row_lo_[3 * c], row_hi_[3 * c], probe, r2, out);
  ScanRange(row_lo_[3 * c + 1], row_hi_[3 * c + 1], probe, r2, out);
  ScanRange(row_lo_[3 * c + 2], row_hi_[3 * c + 2], probe, r2, out);
}

void GridIndex::WithinRadiusInto(const Point& probe, double radius,
                                 std::vector<size_t>* out) const {
  out->clear();
  if (n_ == 0 || !(radius >= 0.0)) return;  // NaN/negative: no hits
  const double r2 = radius * radius;
  // Reach 1 (the 3x3 block) covers radius <= cell_size; larger radii scan
  // proportionally more rings so the result stays exhaustive for every
  // radius. When the block would visit at least as many keys as the grid
  // has occupied cells (huge radii — e.g. "group everything" queries with
  // e = 1e9 — or tiny grids), scanning the whole CSR directly is both
  // cheaper and trivially exhaustive.
  const double rings = std::max(1.0, std::ceil(radius / cell_size_));
  const double block_cells = (2.0 * rings + 1.0) * (2.0 * rings + 1.0);
  if (!(block_cells < static_cast<double>(cell_keys_.size()))) {
    ScanRange(0, n_, probe, r2, out);
    return;
  }
  const int64_t reach = static_cast<int64_t>(rings);
  const int32_t cx = CellCoord(probe.x);
  const int32_t cy = CellCoord(probe.y);
  const int64_t y_lo = static_cast<int64_t>(cy) - reach;
  const int64_t y_hi = static_cast<int64_t>(cy) + reach;
  const bool y_wraps = y_lo < INT32_MIN || y_hi > INT32_MAX;
  for (int64_t dx = -reach; dx <= reach; ++dx) {
    // The historical layout computed the neighbour cell as a wrapping
    // int32 cast; keep that so saturated boundary cells resolve
    // identically.
    const int32_t x = static_cast<int32_t>(cx + dx);
    if (!y_wraps) {
      // The row's cells are consecutive keys: one binary search finds the
      // first occupied cell of the row block, then a linear walk covers
      // the rest — cells come out in ascending cell-y order, the same
      // order the historical dy loop probed them in.
      const CellKey lo = PackCell(x, static_cast<int32_t>(y_lo));
      const CellKey hi = PackCell(x, static_cast<int32_t>(y_hi));
      const auto first =
          std::lower_bound(cell_keys_.begin(), cell_keys_.end(), lo);
      for (size_t c = static_cast<size_t>(first - cell_keys_.begin());
           c < cell_keys_.size() && cell_keys_[c] <= hi; ++c) {
        ScanRange(cell_starts_[c], cell_starts_[c + 1], probe, r2, out);
      }
    } else {
      // Pathological probe at the int32 cell boundary: the y range wraps,
      // so probe each cell of the row individually with the same wrapping
      // cast the historical layout applied.
      for (int64_t dy = -reach; dy <= reach; ++dy) {
        const CellKey key = PackCell(x, static_cast<int32_t>(cy + dy));
        const auto it =
            std::lower_bound(cell_keys_.begin(), cell_keys_.end(), key);
        if (it == cell_keys_.end() || *it != key) continue;
        const size_t c = static_cast<size_t>(it - cell_keys_.begin());
        ScanRange(cell_starts_[c], cell_starts_[c + 1], probe, r2, out);
      }
    }
  }
}

}  // namespace convoy
