#include "traj/snapshot_store.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "parallel/parallel_for.h"
#include "traj/interpolate.h"

namespace convoy {

SnapshotStore::SnapshotStore() : grid_cache_(std::make_unique<GridCache>()) {}

size_t SnapshotStore::EstimateColumnarSlots(const TrajectoryDatabase& db) {
  const Tick begin = db.BeginTick();
  const Tick end = db.EndTick();
  if (db.Empty() || end < begin) return 0;
  // Unsigned arithmetic with saturation: adversarial tick values (epoch
  // nanoseconds, INT64_MIN sentinels) must report "too big", not overflow.
  const auto saturating_add = [](uint64_t a, uint64_t b) {
    const uint64_t sum = a + b;
    return sum < a ? std::numeric_limits<uint64_t>::max() : sum;
  };
  uint64_t slots = saturating_add(
      static_cast<uint64_t>(end) - static_cast<uint64_t>(begin), 1);
  for (const Trajectory& traj : db.trajectories()) {
    if (traj.Empty()) continue;
    slots = saturating_add(
        slots, saturating_add(static_cast<uint64_t>(traj.EndTick()) -
                                  static_cast<uint64_t>(traj.BeginTick()),
                              1));
  }
  return slots > std::numeric_limits<size_t>::max()
             ? std::numeric_limits<size_t>::max()
             : static_cast<size_t>(slots);
}

SnapshotStore SnapshotStore::Build(const TrajectoryDatabase& db,
                                   size_t num_threads) {
  SnapshotStore store;
  const Tick begin = db.BeginTick();
  const Tick end = db.EndTick();
  if (db.Empty() || end < begin) return store;  // no nonempty trajectory
  store.begin_tick_ = begin;
  store.end_tick_ = end;
  const size_t num_ticks = store.NumTicks();

  // Pass 1 — per-tick alive counts via a difference array: a trajectory
  // alive over [b, e] contributes one point to every tick of that range
  // (its samples plus the interpolated virtual points between them).
  std::vector<int64_t> diff(num_ticks + 1, 0);
  for (const Trajectory& traj : db.trajectories()) {
    if (traj.Empty()) continue;
    ++diff[static_cast<size_t>(traj.BeginTick() - begin)];
    --diff[static_cast<size_t>(traj.EndTick() - begin) + 1];
  }
  store.offsets_.assign(num_ticks + 1, 0);
  int64_t alive = 0;
  for (size_t s = 0; s < num_ticks; ++s) {
    alive += diff[s];
    store.offsets_[s + 1] = store.offsets_[s] + static_cast<size_t>(alive);
  }

  const size_t total = store.offsets_[num_ticks];
  store.xs_.resize(total);
  store.ys_.resize(total);
  store.ids_.resize(total);

  // Pass 2 — fill, over disjoint blocks of kFillTicks ticks (concurrently
  // when asked to; blocks write disjoint slots). Within a block the
  // trajectories are visited in database order and each appends its block
  // overlap tick by tick, so every tick's points come out in database
  // order — the exact sequence the row gather (RowSnapshots) (and
  // therefore DBSCAN downstream) sees. The interpolation below is
  // InterpolateAt's own arithmetic (InterpolateBetween), so virtual points
  // are bit-identical.
  constexpr size_t kFillTicks = 256;
  const auto fill_block = [&](size_t b) {
    // Offsets within the domain, so a block near the top of the tick range
    // cannot overflow computing its end.
    const size_t first = b * kFillTicks;
    const size_t last = std::min(num_ticks - 1, first + kFillTicks - 1);
    const Tick block_begin = begin + static_cast<Tick>(first);
    const Tick block_end = begin + static_cast<Tick>(last);
    std::vector<size_t> cursor(
        static_cast<size_t>(block_end - block_begin) + 1);
    for (size_t s = 0; s < cursor.size(); ++s) {
      cursor[s] = store.offsets_[store.TickSlot(block_begin) + s];
    }
    for (const Trajectory& traj : db.trajectories()) {
      if (traj.Empty()) continue;
      const Tick from = std::max(traj.BeginTick(), block_begin);
      const Tick to = std::min(traj.EndTick(), block_end);
      if (from > to) continue;
      const std::vector<TimedPoint>& samples = traj.samples();
      size_t idx = *traj.IndexAtOrBefore(from);
      // Offsets within the block, so the tick after `to` is never formed.
      const size_t last_offset = static_cast<size_t>(to - block_begin);
      for (size_t offset = static_cast<size_t>(from - block_begin);
           offset <= last_offset; ++offset) {
        const Tick t = block_begin + static_cast<Tick>(offset);
        while (idx + 1 < samples.size() && samples[idx + 1].t <= t) ++idx;
        const TimedPoint& before = samples[idx];
        const size_t slot = cursor[offset]++;
        const Point p = before.t == t
                            ? before.pos
                            : InterpolateBetween(before, samples[idx + 1], t);
        store.xs_[slot] = p.x;
        store.ys_[slot] = p.y;
        store.ids_[slot] = traj.id();
      }
    }
    return 0;
  };
  OrderedParallelFor((num_ticks + kFillTicks - 1) / kFillTicks, num_threads,
                     kSmallUnits, fill_block, [](size_t, int) {});
  return store;
}

SnapshotView SnapshotStore::At(Tick t) const {
  SnapshotView view;
  if (t < begin_tick_ || t > end_tick_) return view;
  const size_t s = TickSlot(t);
  const size_t lo = offsets_[s];
  view.xs = xs_.data() + lo;
  view.ys = ys_.data() + lo;
  view.ids = ids_.data() + lo;
  view.size = offsets_[s + 1] - lo;
  return view;
}

std::shared_ptr<const GridIndex> SnapshotStore::GridFor(
    Tick t, double eps, bool* cache_hit) const {
  const uint64_t eps_bits = std::bit_cast<uint64_t>(eps);
  const std::pair<Tick, uint64_t> key{t, eps_bits};
  std::unique_lock<std::mutex> lock(grid_cache_->mu);
  const auto it = grid_cache_->grids.find(key);
  if (it != grid_cache_->grids.end()) {
    if (cache_hit != nullptr) *cache_hit = true;
    return it->second;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  // Build outside the lock so concurrent misses on *other* ticks are not
  // serialized behind this one; a racing miss on the same key recomputes
  // and the first insert wins. Eviction is safe because callers hold the
  // grid through the shared_ptr, never a raw reference into the map.
  lock.unlock();
  const SnapshotView view = At(t);
  auto built = std::make_shared<const GridIndex>(view.xs, view.ys, view.size,
                                                 eps);
  lock.lock();
  GridCache& cache = *grid_cache_;
  const auto raced = cache.grids.find(key);
  if (raced != cache.grids.end()) return raced->second;
  // Retires every grid of the oldest cached eps. Safe while references
  // are in flight: callers hold shared_ptrs, never map iterators.
  const auto evict_oldest_eps = [&cache] {
    const uint64_t evicted = cache.eps_order.front();
    cache.eps_order.erase(cache.eps_order.begin());
    for (auto entry = cache.grids.begin(); entry != cache.grids.end();) {
      if (entry->first.second == evicted) {
        cache.cached_slots -= entry->second->FootprintSlots();
        entry = cache.grids.erase(entry);
      } else {
        entry = std::next(entry);
      }
    }
  };
  if (std::find(cache.eps_order.begin(), cache.eps_order.end(), eps_bits) ==
      cache.eps_order.end()) {
    // An eps sweep holds at most kMaxCachedEpsValues point-set copies
    // instead of one per value ever tried.
    if (cache.eps_order.size() >= kMaxCachedEpsValues) evict_oldest_eps();
    cache.eps_order.push_back(eps_bits);
  }
  // Total cached grid slots stay within the same slot budget as the store
  // itself, so the cache cannot multiply a near-budget store's footprint.
  // Charged at the grids' actual CSR footprint (coordinate copies + index
  // + cell arrays, ~3.5 slots per point) rather than a per-point proxy.
  // Grids of the current eps are never evicted — in-flight sweeps keep
  // their working set; older eps values go first.
  while (cache.cached_slots + built->FootprintSlots() >
             kSnapshotStoreSlotBudget &&
         cache.eps_order.size() > 1 && cache.eps_order.front() != eps_bits) {
    evict_oldest_eps();
  }
  cache.cached_slots += built->FootprintSlots();
  cache.grids.emplace(key, built);
  return built;
}

size_t SnapshotStore::GridCacheSize() const {
  std::lock_guard<std::mutex> lock(grid_cache_->mu);
  return grid_cache_->grids.size();
}

}  // namespace convoy
