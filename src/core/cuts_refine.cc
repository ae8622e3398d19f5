#include "core/cuts_refine.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "core/cluster_memo.h"
#include "core/cmc.h"
#include "core/cuts_filter.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

// Disjoint windows covering every candidate interval, ascending: sorted
// intervals that overlap or touch merge, so no convoy straddles two
// windows.
std::vector<std::pair<Tick, Tick>> MergeWindows(
    const std::vector<Candidate>& candidates) {
  std::vector<std::pair<Tick, Tick>> intervals;
  intervals.reserve(candidates.size());
  for (const Candidate& cand : candidates) {
    intervals.emplace_back(cand.start_tick, cand.end_tick);
  }
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<Tick, Tick>> windows;
  for (const auto& iv : intervals) {
    // Touching intervals merge too. Past the first test iv.first exceeds
    // windows.back().second, so iv.first - 1 cannot overflow, where
    // windows.back().second + 1 would at the top of the tick range.
    if (!windows.empty() && (iv.first <= windows.back().second ||
                             iv.first - 1 == windows.back().second)) {
      windows.back().second = std::max(windows.back().second, iv.second);
    } else {
      windows.push_back(iv);
    }
  }
  return windows;
}

// One window's row selection: at tick t, the database indices (ascending,
// i.e. database order) of the objects the filter clustered in t's
// partition. Rebuilt once per partition, not per tick.
class PartitionRows {
 public:
  PartitionRows(const TrajectoryDatabase& db, const PartitionMembers& members)
      : db_(db), members_(members) {}

  const std::vector<uint32_t>* At(Tick t) {
    const std::optional<size_t> p = members_.PartitionOf(t);
    // Candidates lie inside the partitioned domain; outside it, cluster
    // every alive object, which is exact too.
    if (!p.has_value()) return nullptr;
    if (*p != partition_) {
      partition_ = *p;
      rows_.clear();
      for (const ObjectId id : members_.Of(*p)) {
        if (const std::optional<size_t> row = db_.IndexOf(id)) {
          rows_.push_back(static_cast<uint32_t>(*row));
        }
      }
      std::sort(rows_.begin(), rows_.end());
    }
    return &rows_;
  }

 private:
  const TrajectoryDatabase& db_;
  const PartitionMembers& members_;
  std::optional<size_t> partition_;
  std::vector<uint32_t> rows_;
};

// The held windows overlapping [first, last]. `held` is ascending and
// disjoint, so they are contiguous in it.
std::span<const std::shared_ptr<const WindowClusters>> Overlapping(
    const std::vector<std::shared_ptr<const WindowClusters>>& held,
    Tick first, Tick last) {
  const auto lo = std::partition_point(
      held.begin(), held.end(),
      [first](const auto& window) { return window->end() < first; });
  const auto hi = std::partition_point(
      lo, held.end(),
      [last](const auto& window) { return window->begin <= last; });
  return {lo, hi};
}

// Runs CMC's per-tick loop once over each merged window, pruned to the
// filter's member sets when `members` is given, and dominance-prunes the
// windows' convoys into the result. Windows fan out through
// OrderedParallelFor, each worker chunk sweeping out of one reused arena;
// the ordered pass collects the windows' convoys in window order, so the
// result is the same at every thread count.
//
// With a `memo`, a window one held window contains is a hit: its sweep
// reads that window's clusters and clusters nothing. Any other window is a
// miss: its sweep reads the held windows inside it, clusters the rest, and
// records every tick; the ordered pass publishes it in window order, so
// the memo's contents, like the answer, do not depend on the thread count.
std::vector<Convoy> RefineWindows(const TrajectoryDatabase& db,
                                  const ConvoyQuery& query,
                                  const std::vector<Candidate>& candidates,
                                  const PartitionMembers* members,
                                  const MemoSlot* memo, DiscoveryStats* stats,
                                  size_t threads, const ExecHooks* hooks) {
  Stopwatch phase;
  const std::vector<std::pair<Tick, Tick>> windows = MergeWindows(candidates);
  const std::vector<std::shared_ptr<const WindowClusters>> held =
      memo != nullptr ? memo->memo->Windows(memo->key)
                      : std::vector<std::shared_ptr<const WindowClusters>>{};
  CmcOptions cmc_options;
  cmc_options.remove_dominated = false;  // pruned globally below
  TraceSession* const trace = TraceOf(hooks);
  struct WindowConvoys {
    std::vector<Convoy> convoys;
    size_t clusterings = 0;
    bool hit = false;
    std::shared_ptr<WindowClusters> recorded;
  };
  std::vector<Convoy> all;
  size_t clusterings = 0;
  OrderedParallelFor(
      windows.size(), threads, kLargeUnits, [] { return SnapshotScratch(); },
      [&](SnapshotScratch& scratch, size_t i) {
        ScopedSpan span(trace, "refine.unit");
        TraceCount(trace, TraceCounter::kRefineUnits, 1);
        const auto [first, last] = windows[i];
        const auto overlapping = Overlapping(held, first, last);
        WindowConvoys window;
        DiscoveryStats unit_stats;
        CmcSweep sweep(query.m, query.k);
        if (overlapping.size() == 1 &&
            overlapping.front()->Contains(first, last)) {
          window.hit = true;
          SweepCached(*overlapping.front(), first, last, &sweep);
        } else {
          std::vector<const WindowClusters*> inside;
          for (const auto& held_window : overlapping) {
            if (first <= held_window->begin && held_window->end() <= last) {
              inside.push_back(held_window.get());
            }
          }
          SweepMemo sweep_memo;
          sweep_memo.cached = inside;
          if (memo != nullptr) {
            window.recorded = std::make_shared<WindowClusters>();
            window.recorded->begin = first;
            sweep_memo.record = window.recorded.get();
            sweep_memo.record_limit = memo->memo->budget();
          }
          std::optional<PartitionRows> rows;
          RowSelector rows_at;
          if (members != nullptr) {
            rows.emplace(db, *members);
            rows_at = [&rows](Tick t) { return rows->At(t); };
          }
          SweepRows(db, query, first, last, rows_at, &sweep, &unit_stats,
                    hooks, &scratch, &sweep_memo);
          window.clusterings = unit_stats.num_clusterings;
          if (window.recorded != nullptr) window.recorded->ticks.ShrinkToFit();
        }
        window.convoys = FinishSweep(&sweep, cmc_options, &unit_stats, hooks);
        return window;
      },
      [&](size_t i, WindowConvoys window) {
        clusterings += window.clusterings;
        all.insert(all.end(), std::make_move_iterator(window.convoys.begin()),
                   std::make_move_iterator(window.convoys.end()));
        if (memo == nullptr) return;
        TraceCount(trace,
                   window.hit ? TraceCounter::kClusterMemoHits
                              : TraceCounter::kClusterMemoMisses,
                   1);
        // A record emptied at its byte limit holds fewer ticks than the
        // window and is not kept.
        const uint64_t ticks = static_cast<uint64_t>(windows[i].second) -
                               static_cast<uint64_t>(windows[i].first) + 1;
        if (window.recorded != nullptr &&
            window.recorded->ticks.NumSteps() == ticks) {
          memo->memo->PublishWindow(memo->key, std::move(window.recorded));
        }
      });
  std::vector<Convoy> result = RemoveDominated(std::move(all));
  if (stats != nullptr) {
    stats->num_clusterings += clusterings;
    stats->refine_seconds += phase.ElapsedSeconds();
    stats->num_convoys = result.size();
  }
  return result;
}

}  // namespace

std::vector<Convoy> CutsRefine(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const CutsFilterResult& filtered,
                               DiscoveryStats* stats,
                               const ExecHooks* hooks) {
  return CutsRefineWithMemo(db, query, filtered, /*memo=*/nullptr, stats,
                            hooks);
}

std::vector<Convoy> CutsRefineWithMemo(const TrajectoryDatabase& db,
                                       const ConvoyQuery& query,
                                       const CutsFilterResult& filtered,
                                       const MemoSlot* memo,
                                       DiscoveryStats* stats,
                                       const ExecHooks* hooks) {
  return RefineWindows(db, query, filtered.candidates, &filtered.members,
                       memo, stats, query.num_threads, hooks);
}

std::vector<Convoy> CutsRefine(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const std::vector<Candidate>& candidates,
                               RefineMode /*mode*/, DiscoveryStats* stats,
                               size_t threads, const ExecHooks* hooks) {
  return RefineWindows(db, query, candidates, /*members=*/nullptr,
                       /*memo=*/nullptr, stats, threads, hooks);
}

}  // namespace convoy
