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

// Runs `work(i)` for i in [0, n) on up to `threads` workers via the shared
// chunk-based pool; slot i always holds work(i), so output order is
// deterministic. Units are processed in blocks so the sequential pass after
// each block can emit every finished unit's convoys to the sink and report
// progress *while later blocks are still refining* — that bounded emission
// latency is the incremental execution mode, and because the pass runs in
// index order the sink sequence is deterministic at every thread count.
template <typename WorkFn>
std::vector<std::vector<Convoy>> RefineMap(size_t n, size_t threads,
                                           WorkFn work,
                                           const ExecHooks* hooks) {
  threads = std::max<size_t>(1, std::min(threads, n == 0 ? 1 : n));
  // Without live hooks (the free functions, benches, trace-only hooks)
  // the blocked machinery below buys nothing — keep the plain
  // single-pass paths and their performance.
  const bool live_hooks =
      hooks != nullptr && (hooks->sink || hooks->progress ||
                           hooks->cancel.CanBeCancelled());
  if (!live_hooks) {
    if (threads <= 1) {
      std::vector<std::vector<Convoy>> results(n);
      for (size_t i = 0; i < n; ++i) results[i] = work(i);
      return results;
    }
    ThreadPool pool(threads);
    return ParallelMap(&pool, n, work);
  }

  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  // Serial refinement emits after every unit; parallel refinement after
  // every block of a few units per worker.
  const size_t block = pool ? std::max<size_t>(threads * 8, 64) : 1;
  std::vector<std::vector<Convoy>> results(n);
  for (size_t block_begin = 0; block_begin < n; block_begin += block) {
    const size_t block_size = std::min(block, n - block_begin);
    std::vector<std::vector<Convoy>> part =
        ParallelMap(pool ? &*pool : nullptr, block_size, [&](size_t i) {
          CheckCancelled(hooks);
          return work(block_begin + i);
        });
    for (size_t i = 0; i < block_size; ++i) {
      CheckCancelled(hooks);
      results[block_begin + i] = std::move(part[i]);
      if (hooks != nullptr && hooks->sink) {
        // The caller still needs the unit's convoys for the merged result,
        // so the sink gets a copy (only when a sink is installed).
        EmitConvoys(hooks,
                    std::vector<Convoy>(results[block_begin + i]));
      }
      ReportProgress(hooks, "refine", block_begin + i + 1, n);
    }
  }
  return results;
}

std::vector<Convoy> Flatten(std::vector<std::vector<Convoy>> parts) {
  std::vector<Convoy> all;
  for (std::vector<Convoy>& part : parts) {
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return all;
}

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
// windows' convoys into the result.
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
  // Trace-only hooks for the nested CMC runs: counters and spans flow, but
  // the outer sink / progress / cancellation stay exclusively with the
  // refine loop (a nested emit would double-report every convoy).
  ExecHooks trace_hooks;
  trace_hooks.trace = trace;
  const ExecHooks* nested = trace != nullptr ? &trace_hooks : nullptr;
  // Each window counts its own clusterings into its own slot; summed in
  // window order afterwards, so the total is the same at every thread
  // count.
  std::vector<size_t> clusterings(windows.size(), 0);
  auto parts = RefineMap(
      windows.size(), threads,
      [&](size_t i) {
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
                  &sweep, &unit_stats, nested);
        clusterings[i] = unit_stats.num_clusterings;
        return FinishSweep(&sweep, cmc_options, &unit_stats, nested);
      },
      hooks);
  std::vector<Convoy> result = RemoveDominated(Flatten(std::move(parts)));
  if (stats != nullptr) {
    for (const size_t n : clusterings) stats->num_clusterings += n;
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
                       stats, ResolveThreadCount(query.num_threads), hooks);
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
