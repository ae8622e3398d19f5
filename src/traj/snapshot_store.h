#ifndef CONVOY_TRAJ_SNAPSHOT_STORE_H_
#define CONVOY_TRAJ_SNAPSHOT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cluster/grid_index.h"
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
/// virtual points (paper Section 4), gather alive objects, and build a
/// throw-away GridIndex — per tick, per query. The store pays that
/// derivation once, in a single (optionally parallel) build pass:
///
///  * per tick, contiguous `xs[]` / `ys[]` / `ids[]` arrays (CSR layout
///    over the whole time domain), holding every object alive at the tick
///    with its possibly-interpolated position — bit-identical to
///    InterpolateAt, since the build applies the same arithmetic to the
///    same samples;
///  * per-tick GridIndex instances built lazily at a requested eps and
///    cached (thread-safe), so repeated queries at the same eps reuse
///    indexes instead of rebuilding them every call.
///
/// Thread-safety: immutable after Build apart from the mutex-guarded grid
/// cache, so concurrent readers (threaded CMC's workers, concurrent engine
/// queries) need no external synchronization.
class SnapshotStore {
 public:
  /// Empty store (no ticks); assign from Build to populate.
  SnapshotStore();
  SnapshotStore(SnapshotStore&&) noexcept = default;
  SnapshotStore& operator=(SnapshotStore&&) noexcept = default;

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

  /// The grid cache keeps indexes for at most this many distinct eps
  /// values at a time (each cached GridIndex copies its tick's points, so
  /// an unbounded eps sweep would otherwise grow memory linearly in the
  /// number of eps values tried). Exceeding it — or exceeding
  /// kSnapshotStoreSlotBudget total cached grid slots, charged at each
  /// grid's actual CSR footprint (GridIndex::FootprintSlots — coordinate
  /// copies, index array, cell keys/offsets), so the cache can never
  /// dwarf the store it serves — evicts every grid of the oldest cached
  /// eps; in-flight users keep theirs alive through the returned
  /// shared_ptr, and the current eps is never evicted.
  static constexpr size_t kMaxCachedEpsValues = 4;

  /// The grid index over tick t's points with cell side `eps`, built on
  /// first request and cached per (tick, eps) — identical to
  /// `GridIndex(points, eps)` over the tick's snapshot, so DBSCAN results
  /// are unchanged. Thread-safe; two threads missing the same key may
  /// both build, the first insert wins. Never null. `cache_hit` (optional
  /// out) reports whether the grid came from the cache — per-execution
  /// hit/miss counts are deterministic on a fresh store, where each
  /// (tick, eps) key is first touched exactly once per run.
  std::shared_ptr<const GridIndex> GridFor(Tick t, double eps,
                                           bool* cache_hit = nullptr) const;

  /// Number of cached grid indexes (for tests / monitoring).
  size_t GridCacheSize() const;

 private:
  size_t TickSlot(Tick t) const { return static_cast<size_t>(t - begin_tick_); }

  Tick begin_tick_ = 0;
  Tick end_tick_ = -1;
  /// CSR offsets: tick slot s covers [offsets_[s], offsets_[s + 1]).
  std::vector<size_t> offsets_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<ObjectId> ids_;

  /// Lazily built per-(tick, eps) grid indexes, bounded to the
  /// kMaxCachedEpsValues most recently introduced eps values (FIFO over
  /// eps bit patterns). Behind a unique_ptr so the store stays movable
  /// despite the mutex.
  struct GridCache {
    mutable std::mutex mu;
    std::map<std::pair<Tick, uint64_t>, std::shared_ptr<const GridIndex>>
        grids;                        // GUARDED_BY(mu)
    /// Distinct eps, oldest first.
    std::vector<uint64_t> eps_order;  // GUARDED_BY(mu)
    /// Sum of FootprintSlots over cached grids.
    size_t cached_slots = 0;          // GUARDED_BY(mu)
  };
  std::unique_ptr<GridCache> grid_cache_;
};

}  // namespace convoy

#endif  // CONVOY_TRAJ_SNAPSHOT_STORE_H_
