#include "core/cuts_refine.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

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
    if (!windows.empty() && iv.first <= windows.back().second + 1) {
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

// Runs CMC's per-tick loop once over each merged window, pruned to the
// filter's member sets when `members` is given, and dominance-prunes the
// windows' convoys into the result. Windows fan out through
// OrderedParallelFor, each worker chunk sweeping out of one reused arena;
// the ordered pass collects the windows' convoys in window order, so the
// result is the same at every thread count.
std::vector<Convoy> RefineWindows(const TrajectoryDatabase& db,
                                  const ConvoyQuery& query,
                                  const std::vector<Candidate>& candidates,
                                  const PartitionMembers* members,
                                  DiscoveryStats* stats, size_t threads,
                                  const ExecHooks* hooks) {
  Stopwatch phase;
  const std::vector<std::pair<Tick, Tick>> windows = MergeWindows(candidates);
  CmcOptions cmc_options;
  cmc_options.remove_dominated = false;  // pruned globally below
  TraceSession* const trace = TraceOf(hooks);
  struct WindowConvoys {
    std::vector<Convoy> convoys;
    size_t clusterings = 0;
  };
  std::vector<Convoy> all;
  size_t clusterings = 0;
  OrderedParallelFor(
      windows.size(), threads, kLargeUnits, [] { return SnapshotScratch(); },
      [&](SnapshotScratch& scratch, size_t i) {
        ScopedSpan span(trace, "refine.unit");
        TraceCount(trace, TraceCounter::kRefineUnits, 1);
        std::optional<PartitionRows> rows;
        RowSelector rows_at;
        if (members != nullptr) {
          rows.emplace(db, *members);
          rows_at = [&rows](Tick t) { return rows->At(t); };
        }
        DiscoveryStats unit_stats;
        CmcSweep sweep(query.m, query.k);
        SweepRows(db, query, windows[i].first, windows[i].second, rows_at,
                  &sweep, &unit_stats, hooks, &scratch);
        WindowConvoys window;
        window.clusterings = unit_stats.num_clusterings;
        window.convoys = FinishSweep(&sweep, cmc_options, &unit_stats, hooks);
        return window;
      },
      [&](size_t, WindowConvoys window) {
        clusterings += window.clusterings;
        all.insert(all.end(), std::make_move_iterator(window.convoys.begin()),
                   std::make_move_iterator(window.convoys.end()));
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
  return RefineWindows(db, query, filtered.candidates, &filtered.members,
                       stats, query.num_threads, hooks);
}

std::vector<Convoy> CutsRefine(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const std::vector<Candidate>& candidates,
                               RefineMode /*mode*/, DiscoveryStats* stats,
                               size_t threads, const ExecHooks* hooks) {
  return RefineWindows(db, query, candidates, /*members=*/nullptr, stats,
                       threads, hooks);
}

}  // namespace convoy
