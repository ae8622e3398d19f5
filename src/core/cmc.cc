#include "core/cmc.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/dbscan.h"
#include "cluster/grid_index.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "traj/interpolate.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

// A memoized step's clusters as the owning lists a clusterer returns.
std::vector<std::vector<ObjectId>> ToVectors(const ClusterSpans& spans) {
  std::vector<std::vector<ObjectId>> clusters(spans.size());
  for (size_t c = 0; c < spans.size(); ++c) {
    clusters[c].assign(spans[c].begin(), spans[c].end());
  }
  return clusters;
}

// Maps a clustering's point indices to sorted object-id lists — the shape
// the candidate tracker consumes.
std::vector<std::vector<ObjectId>> ClustersToObjectIds(
    const Clustering& clustering, const ObjectId* ids) {
  std::vector<std::vector<ObjectId>> cluster_objects;
  cluster_objects.reserve(clustering.clusters.size());
  for (const std::vector<size_t>& cluster : clustering.clusters) {
    std::vector<ObjectId> members;
    members.reserve(cluster.size());
    for (const size_t idx : cluster) members.push_back(ids[idx]);
    std::sort(members.begin(), members.end());
    cluster_objects.push_back(std::move(members));
  }
  return cluster_objects;
}

}  // namespace

std::vector<std::vector<ObjectId>> ClusterSnapshot(
    const std::vector<Point>& points, const std::vector<ObjectId>& ids,
    const ConvoyQuery& query, bool* clustered, DbscanScratch* scratch) {
  if (clustered != nullptr) *clustered = false;
  if (points.size() < query.m) return {};
  Clustering clustering;
  if (scratch != nullptr) {
    // Arena path: rebuild the scratch grid in place (identical state to a
    // fresh index) and run DBSCAN out of the same working set.
    scratch->grid.Assign(points, query.e);
    clustering = Dbscan(points, scratch->grid, query.e, query.m, scratch);
  } else {
    const GridIndex index(points, query.e);
    clustering = Dbscan(points, index, query.e, query.m);
  }
  if (clustered != nullptr) *clustered = true;
  return ClustersToObjectIds(clustering, ids.data());
}

RowSnapshots::RowSnapshots(const TrajectoryDatabase& db)
    : rows_(db.trajectories()), cursors_(rows_.size(), 0) {}

std::vector<std::vector<ObjectId>> RowSnapshots::Cluster(
    Tick t, const ConvoyQuery& query, const std::vector<uint32_t>* selected,
    bool* clustered, SnapshotScratch* scratch) {
  std::vector<Point>& points = scratch->points;
  std::vector<ObjectId>& ids = scratch->ids;
  points.clear();
  ids.clear();
  // O_t: every gathered object contributes its (possibly virtual,
  // linearly interpolated) location.
  const auto gather = [&](size_t r) {
    const std::optional<Point> pos =
        InterpolateForward(rows_[r], t, &cursors_[r]);
    if (!pos.has_value()) return;
    points.push_back(*pos);
    ids.push_back(rows_[r].id());
  };
  if (selected != nullptr) {
    for (const uint32_t r : *selected) gather(r);
  } else {
    for (size_t r = 0; r < rows_.size(); ++r) gather(r);
  }
  return ClusterSnapshot(points, ids, query, clustered, &scratch->dbscan);
}

std::vector<std::vector<ObjectId>> SnapshotClusters(
    const SnapshotStore& store, Tick t, const ConvoyQuery& query,
    bool* clustered, DbscanScratch* scratch, bool* grid_cache_hit) {
  if (clustered != nullptr) *clustered = false;
  const SnapshotView view = store.At(t);
  if (view.size < query.m) return {};
  // Hold the shared_ptr across the scan: the store may evict the grid
  // from its cache mid-query (eps-sweep bound), never from under us.
  const std::shared_ptr<const GridIndex> grid =
      store.GridFor(t, query.e, grid_cache_hit);
  const Clustering clustering =
      Dbscan(view.xs, view.ys, view.size, *grid, query.e, query.m, scratch);
  if (clustered != nullptr) *clustered = true;
  return ClustersToObjectIds(clustering, view.ids);
}

std::vector<Convoy> FinalizeCmcResult(const std::vector<Candidate>& completed,
                                      const CmcOptions& options) {
  std::vector<Convoy> result;
  result.reserve(completed.size());
  for (const Candidate& cand : completed) result.push_back(cand.ToConvoy());
  if (options.remove_dominated) {
    result = RemoveDominated(std::move(result));
  } else {
    Canonicalize(&result);
  }
  return result;
}

void TraceDbscanRun(TraceSession* trace, const DbscanTally& tally) {
  if (trace == nullptr) return;
  trace->Count(TraceCounter::kDbscanPointsScanned, tally.points_scanned);
  trace->Count(TraceCounter::kDbscanNeighborQueries, tally.neighbor_queries);
  trace->Count(TraceCounter::kDbscanNeighborsVisited,
               tally.neighbors_visited);
  trace->Count(TraceCounter::kDbscanClustersFormed, tally.clusters_formed);
}

void TraceTrackerTally(TraceSession* trace, const TrackerTally& tally) {
  if (trace == nullptr) return;
  trace->Count(TraceCounter::kTrackerSteps, tally.steps);
  trace->Count(TraceCounter::kTrackerCandidatesOffered,
               tally.candidates_offered);
  trace->Count(TraceCounter::kTrackerDedupProbes, tally.dedup_probes);
  trace->Count(TraceCounter::kTrackerDedupHits, tally.dedup_hits);
  trace->Count(TraceCounter::kTrackerCompleted, tally.completed);
  trace->CountMax(TraceCounter::kTrackerLiveMax, tally.live_max);
}

namespace {

// CMC's per-tick loop — the one tracker loop of every batch CMC entry
// point, generic over how a tick's clusters are produced (the row gather
// or the SnapshotStore's columnar views), so the candidate algebra can
// never diverge between them. `make_cluster_at(scratch)` returns a
// clusterer `cluster_at(t, &clustered)` for ascending ticks, working in
// `scratch`; it returns the tick's clusters in either form the tracker
// reads (owned lists, or a ClusterSpans view of memoized storage that
// outlives the sweep).
//
// The ticks fan out through OrderedParallelFor: at one thread one
// clusterer, in the caller's scratch, serves every tick on the caller's
// thread; otherwise each contiguous worker chunk clusters its ticks with
// its own clusterer and arena. Consumption (the tracker, stats) runs only
// on the caller's thread in tick order, and the counters folded while
// clustering are per-tick integer tallies, so every output and count is
// identical at every thread count.
template <typename Clusters>
struct TickClusters {
  Clusters clusters;
  bool clustered = false;
};

template <typename MakeClusterAt>
void SweepImpl(Tick begin_tick, Tick end_tick, size_t threads,
               CmcSweep* sweep, DiscoveryStats* stats, TraceSession* trace,
               SnapshotScratch* scratch, MakeClusterAt&& make_cluster_at) {
  // Unsigned: the tick count of a domain at either end of the tick range
  // must not overflow.
  const size_t total_ticks =
      begin_tick <= end_tick
          ? static_cast<size_t>(static_cast<uint64_t>(end_tick) -
                                static_cast<uint64_t>(begin_tick)) +
                1
          : 0;
  OrderedParallelFor(
      total_ticks, threads, kSmallUnits,
      [&] {
        std::unique_ptr<SnapshotScratch> owned;
        if (threads > 1) owned = std::make_unique<SnapshotScratch>();
        auto cluster_at = make_cluster_at(owned ? owned.get() : scratch);
        return std::make_pair(std::move(owned), std::move(cluster_at));
      },
      [&](auto& state, size_t i) {
        bool clustered = false;
        auto clusters =
            state.second(begin_tick + static_cast<Tick>(i), &clustered);
        return TickClusters<decltype(clusters)>{std::move(clusters),
                                                clustered};
      },
      [&](size_t i, auto tick) {
        const Tick t = begin_tick + static_cast<Tick>(i);
        if (tick.clustered) {
          if (stats != nullptr) ++stats->num_clusterings;
          TraceCount(trace, TraceCounter::kSnapshotsClustered, 1);
        }
        // Advancing with an empty cluster list retires every live
        // candidate, which is exactly what a tick with < m alive objects
        // must do: the "consecutive time points" requirement breaks there.
        sweep->tracker.Advance(tick.clusters, t, t, /*step_weight=*/1,
                               &sweep->completed);
      });
}

// The row path's clusterers for SweepImpl: each gathers through a fresh
// RowSnapshots, so a worker chunk restarts the cursors at its first tick.
// With a `memo` (SweepRows only, where one clusterer serves every tick in
// order) a tick some cached window holds is read from it, not clustered,
// and every tick is appended to the memo's record while that stays within
// its limit.
auto RowClusterers(const TrajectoryDatabase& db, const ConvoyQuery& query,
                   const RowSelector& rows_at, const SweepMemo* memo,
                   TraceSession* trace) {
  return [&db, &query, &rows_at, memo, trace](SnapshotScratch* scratch) {
    return [rows = RowSnapshots(db), &query, &rows_at, memo, trace, scratch,
            next = size_t{0},
            recording = memo != nullptr && memo->record != nullptr](
               Tick t, bool* clustered) mutable {
      const WindowClusters* cached = nullptr;
      if (memo != nullptr) {
        const auto& windows = memo->cached;
        while (next < windows.size() && windows[next]->end() < t) ++next;
        if (next < windows.size() && windows[next]->begin <= t) {
          cached = windows[next];
        }
      }
      std::vector<std::vector<ObjectId>> clusters;
      if (cached != nullptr) {
        *clustered = false;
        clusters = ToVectors(cached->At(t));
      } else {
        ScopedSpan span(trace, "snapshot.cluster");
        clusters = rows.Cluster(t, query, rows_at ? rows_at(t) : nullptr,
                                clustered, scratch);
        if (*clustered) TraceDbscanRun(trace, scratch->dbscan.tally);
      }
      if (recording) {
        memo->record->ticks.AddStep(clusters);
        if (memo->record->ticks.Bytes() > memo->record_limit) {
          memo->record->ticks = FlatClusters();
          recording = false;
        }
      }
      return clusters;
    };
  };
}

// The store path's clusterers for SweepImpl: the store's columnar views
// and cached grids, any tick in any order.
auto StoreClusterers(const SnapshotStore& store, const ConvoyQuery& query,
                     TraceSession* trace) {
  return [&store, &query, trace](SnapshotScratch* scratch) {
    return [&store, &query, trace, scratch](Tick t, bool* clustered) {
      ScopedSpan span(trace, "snapshot.cluster");
      bool grid_hit = false;
      std::vector<std::vector<ObjectId>> clusters = SnapshotClusters(
          store, t, query, clustered, &scratch->dbscan, &grid_hit);
      if (*clustered) {
        TraceDbscanRun(trace, scratch->dbscan.tally);
        TraceCount(trace,
                   grid_hit ? TraceCounter::kGridCacheHits
                            : TraceCounter::kGridCacheMisses,
                   1);
      }
      return clusters;
    };
  };
}

// One CMC run over [begin_tick, end_tick]: a fresh sweep through SweepImpl
// at query.num_threads, finished as CMC ends, its wall time added to
// stats->total_seconds.
template <typename MakeClusterAt>
std::vector<Convoy> RunCmc(const ConvoyQuery& query, Tick begin_tick,
                           Tick end_tick, const CmcOptions& options,
                           DiscoveryStats* stats, const ExecHooks* hooks,
                           SnapshotScratch* scratch,
                           MakeClusterAt&& make_cluster_at) {
  Stopwatch total;
  SnapshotScratch local;
  CmcSweep sweep(query.m, query.k);
  SweepImpl(begin_tick, end_tick, ResolveThreadCount(query.num_threads),
            &sweep, stats, TraceOf(hooks),
            scratch != nullptr ? scratch : &local, make_cluster_at);
  std::vector<Convoy> result = FinishSweep(&sweep, options, stats, hooks);
  if (stats != nullptr) stats->total_seconds += total.ElapsedSeconds();
  return result;
}

}  // namespace

std::vector<Convoy> FinishSweep(CmcSweep* sweep, const CmcOptions& options,
                                DiscoveryStats* stats,
                                const ExecHooks* hooks) {
  TraceSession* const trace = TraceOf(hooks);
  sweep->tracker.Flush(&sweep->completed);
  TraceTrackerTally(trace, sweep->tracker.tally());

  std::vector<Convoy> result;
  {
    ScopedSpan finalize_span(trace, "cmc.finalize");
    result = FinalizeCmcResult(sweep->completed, options);
  }
  if (stats != nullptr) stats->num_convoys = result.size();
  return result;
}

void SweepRows(const TrajectoryDatabase& db, const ConvoyQuery& query,
               Tick begin_tick, Tick end_tick, const RowSelector& rows_at,
               CmcSweep* sweep, DiscoveryStats* stats, const ExecHooks* hooks,
               SnapshotScratch* scratch, const SweepMemo* memo) {
  SnapshotScratch local;
  if (scratch == nullptr) scratch = &local;
  TraceSession* const trace = TraceOf(hooks);
  SweepImpl(begin_tick, end_tick, /*threads=*/1, sweep, stats, trace, scratch,
            RowClusterers(db, query, rows_at, memo, trace));
}

void SweepCached(const WindowClusters& window, Tick begin_tick,
                 Tick end_tick, CmcSweep* sweep) {
  assert(window.Contains(begin_tick, end_tick));
  // Nothing is clustered, so nothing needs a scratch, stats or a trace.
  SweepImpl(begin_tick, end_tick, /*threads=*/1, sweep, /*stats=*/nullptr,
            /*trace=*/nullptr, /*scratch=*/nullptr,
            [&window](SnapshotScratch*) {
              return [&window](Tick t, bool* clustered) {
                *clustered = false;
                return window.At(t);
              };
            });
}

std::vector<Convoy> CmcRange(const TrajectoryDatabase& db,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks,
                             SnapshotScratch* scratch) {
  const RowSelector all_rows;
  return RunCmc(query, begin_tick, end_tick, options, stats, hooks, scratch,
                RowClusterers(db, query, all_rows, /*memo=*/nullptr,
                              TraceOf(hooks)));
}

std::vector<Convoy> Cmc(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const CmcOptions& options, DiscoveryStats* stats,
                        const ExecHooks* hooks, SnapshotScratch* scratch) {
  if (db.Empty()) return {};
  return CmcRange(db, query, db.BeginTick(), db.EndTick(), options, stats,
                  hooks, scratch);
}

std::vector<Convoy> CmcRange(const SnapshotStore& store,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks,
                             SnapshotScratch* scratch) {
  return RunCmc(query, begin_tick, end_tick, options, stats, hooks, scratch,
                StoreClusterers(store, query, TraceOf(hooks)));
}

std::vector<Convoy> Cmc(const SnapshotStore& store, const ConvoyQuery& query,
                        const CmcOptions& options, DiscoveryStats* stats,
                        const ExecHooks* hooks, SnapshotScratch* scratch) {
  if (store.Empty()) return {};
  return CmcRange(store, query, store.begin_tick(), store.end_tick(), options,
                  stats, hooks, scratch);
}

}  // namespace convoy
