#include "core/cmc.h"

#include <algorithm>
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
// `scratch`.
//
// The ticks fan out through OrderedParallelFor: at one thread one
// clusterer, in the caller's scratch, serves every tick on the caller's
// thread; otherwise each contiguous worker chunk clusters its ticks with
// its own clusterer and arena. Consumption (the tracker, stats) runs only
// on the caller's thread in tick order, and the counters folded while
// clustering are per-tick integer tallies, so every output and count is
// identical at every thread count.
template <typename MakeClusterAt>
void SweepImpl(Tick begin_tick, Tick end_tick, size_t threads,
               CmcSweep* sweep, DiscoveryStats* stats, TraceSession* trace,
               SnapshotScratch* scratch, MakeClusterAt&& make_cluster_at) {
  const size_t total_ticks =
      begin_tick <= end_tick ? static_cast<size_t>(end_tick - begin_tick) + 1
                             : 0;
  struct TickClusters {
    std::vector<std::vector<ObjectId>> clusters;
    bool clustered = false;
  };
  OrderedParallelFor(
      total_ticks, threads, kSmallUnits,
      [&] {
        std::unique_ptr<SnapshotScratch> owned;
        if (threads > 1) owned = std::make_unique<SnapshotScratch>();
        auto cluster_at = make_cluster_at(owned ? owned.get() : scratch);
        return std::make_pair(std::move(owned), std::move(cluster_at));
      },
      [&](auto& state, size_t i) {
        TickClusters tick;
        tick.clusters =
            state.second(begin_tick + static_cast<Tick>(i), &tick.clustered);
        return tick;
      },
      [&](size_t i, TickClusters tick) {
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
auto RowClusterers(const TrajectoryDatabase& db, const ConvoyQuery& query,
                   const RowSelector& rows_at, TraceSession* trace) {
  return [&db, &query, &rows_at, trace](SnapshotScratch* scratch) {
    return [rows = RowSnapshots(db), &query, &rows_at, trace, scratch](
               Tick t, bool* clustered) mutable {
      ScopedSpan span(trace, "snapshot.cluster");
      std::vector<std::vector<ObjectId>> clusters = rows.Cluster(
          t, query, rows_at ? rows_at(t) : nullptr, clustered, scratch);
      if (*clustered) TraceDbscanRun(trace, scratch->dbscan.tally);
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
               SnapshotScratch* scratch) {
  SnapshotScratch local;
  if (scratch == nullptr) scratch = &local;
  TraceSession* const trace = TraceOf(hooks);
  SweepImpl(begin_tick, end_tick, /*threads=*/1, sweep, stats, trace, scratch,
            RowClusterers(db, query, rows_at, trace));
}

std::vector<Convoy> CmcRange(const TrajectoryDatabase& db,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks,
                             SnapshotScratch* scratch) {
  const RowSelector all_rows;
  return RunCmc(query, begin_tick, end_tick, options, stats, hooks, scratch,
                RowClusterers(db, query, all_rows, TraceOf(hooks)));
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
