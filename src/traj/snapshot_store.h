#ifndef CONVOY_TRAJ_SNAPSHOT_STORE_H_
#define CONVOY_TRAJ_SNAPSHOT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "traj/database.h"

namespace convoy {

/// Upper bound on the columnar slots (stored points + tick offsets, ~20
/// bytes each) the budgeted store entry points will materialize.
/// Interpolation can expand a sparse feed far beyond its sample count —
/// ticks in epoch seconds with per-day samples mean millions of virtual
/// points per object — and past this budget the store would trade an
/// O(samples) row scan for an out-of-memory build. Over-budget databases
/// run the row-oriented path instead (bit-identical results). Applied by
/// ConvoyEngine::Store; direct SnapshotStore::Build calls are unbudgeted.
inline constexpr size_t kSnapshotStoreSlotBudget = size_t{1} << 24;

/// One tick's snapshot in the store's columnar layout: parallel coordinate
/// arrays plus the aligned object ids, in database (trajectory) order — the
/// exact sequence the row gather (RowSnapshots) produces for that tick.
/// Borrowed from a SnapshotStore; valid while the store lives.
struct SnapshotView {
  const double* xs = nullptr;
  const double* ys = nullptr;
  const ObjectId* ids = nullptr;
  size_t size = 0;

  bool Empty() const { return size == 0; }
  Point At(size_t i) const { return Point(xs[i], ys[i]); }
};

/// SnapshotStore — a tick-partitioned, structure-of-arrays materialization
/// of "the set of objects at time t", the unit every convoy algorithm in
/// the paper iterates.
///
/// The row-oriented TrajectoryDatabase stores one polyline per object, so
/// each discovery call re-derives every per-tick snapshot: interpolate the
/// virtual points (paper Section 4) and gather the alive objects — per
/// tick, per query. The store pays that derivation once, in a single
/// (optionally parallel) build pass: per tick, contiguous `xs[]` / `ys[]`
/// / `ids[]` arrays (CSR layout over the whole time domain), holding every
/// object alive at the tick with its possibly-interpolated position —
/// bit-identical to InterpolateAt, since the build applies the same
/// arithmetic to the same samples. Each sweep builds a tick's grid in its
/// own arena (SnapshotClusters, core/cmc.h); a repeated query at the same
/// (e, m) is served by the engine's clustering memo (core/cluster_memo.h)
/// and clusters nothing.
///
/// Thread-safety: immutable after Build, so concurrent readers (threaded
/// CMC's workers, concurrent engine queries) need no synchronization.
class SnapshotStore {
 public:
  /// Empty store (no ticks); assign from Build to populate.
  SnapshotStore() = default;

  /// Builds the store from `db` in one pass over the trajectories,
  /// parallelized over tick blocks through OrderedParallelFor (0 = all
  /// hardware threads; any value yields bit-identical contents).
  static SnapshotStore Build(const TrajectoryDatabase& db,
                             size_t num_threads = 1);

  /// Columnar slots Build would allocate for `db`: one per tick of the
  /// domain (CSR offset) plus one per alive object per tick (stored
  /// point, virtual points included). O(N); lets callers bound the
  /// materialization cost *before* paying it — a sparse feed whose ticks
  /// are epoch seconds can expand samples by orders of magnitude (see
  /// ConvoyEngine::Store's budget).
  static size_t EstimateColumnarSlots(const TrajectoryDatabase& db);

  /// Time domain covered, matching TrajectoryDatabase::BeginTick/EndTick
  /// of the source database ([0, -1] when empty).
  Tick begin_tick() const { return begin_tick_; }
  Tick end_tick() const { return end_tick_; }

  /// Number of ticks in the domain (0 when empty).
  size_t NumTicks() const {
    return begin_tick_ <= end_tick_
               ? static_cast<size_t>(end_tick_ - begin_tick_) + 1
               : 0;
  }
  bool Empty() const { return NumTicks() == 0; }

  /// Total stored points across all ticks — alive objects summed over the
  /// domain, virtual points included (>= the database's total_points).
  size_t TotalPoints() const { return ids_.size(); }

  /// The snapshot at tick t; an empty view outside the domain.
  SnapshotView At(Tick t) const;

 private:
  size_t TickSlot(Tick t) const { return static_cast<size_t>(t - begin_tick_); }

  Tick begin_tick_ = 0;
  Tick end_tick_ = -1;
  /// CSR offsets: tick slot s covers [offsets_[s], offsets_[s + 1]).
  std::vector<size_t> offsets_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<ObjectId> ids_;
};

}  // namespace convoy

#endif  // CONVOY_TRAJ_SNAPSHOT_STORE_H_
