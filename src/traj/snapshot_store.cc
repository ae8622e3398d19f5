#include "traj/snapshot_store.h"

#include <algorithm>
#include <limits>

#include "parallel/parallel_for.h"
#include "traj/interpolate.h"

namespace convoy {

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

}  // namespace convoy
