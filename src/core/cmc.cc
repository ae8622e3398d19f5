#include "core/cmc.h"

#include <algorithm>
#include <optional>

#include "cluster/dbscan.h"
#include "cluster/grid_index.h"
#include "obs/trace.h"
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

std::vector<std::vector<ObjectId>> SnapshotClusters(
    const TrajectoryDatabase& db, Tick t, const ConvoyQuery& query,
    bool* clustered, SnapshotScratch* scratch) {
  SnapshotScratch local;
  if (scratch == nullptr) scratch = &local;
  std::vector<Point>& snapshot = scratch->points;
  std::vector<ObjectId>& snapshot_ids = scratch->ids;
  snapshot.clear();
  snapshot_ids.clear();

  // O_t: every object alive at t contributes its (possibly virtual,
  // linearly interpolated) location.
  for (const Trajectory& traj : db.trajectories()) {
    const auto pos = InterpolateAt(traj, t);
    if (!pos.has_value()) continue;
    snapshot.push_back(*pos);
    snapshot_ids.push_back(traj.id());
  }
  return ClusterSnapshot(snapshot, snapshot_ids, query, clustered,
                         &scratch->dbscan);
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

size_t EmitCompletedSince(const std::vector<Candidate>& completed, size_t from,
                          const ExecHooks* hooks) {
  if (hooks == nullptr || !hooks->sink) return completed.size();
  std::vector<Convoy> batch;
  batch.reserve(completed.size() - from);
  for (size_t i = from; i < completed.size(); ++i) {
    batch.push_back(completed[i].ToConvoy());
  }
  EmitConvoys(hooks, std::move(batch));
  return completed.size();
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

// CMC's per-tick loop, generic over how a tick's clusters are produced
// (row-oriented re-derivation or the SnapshotStore's columnar views): the
// candidate algebra is identical either way, so the entry points can
// never diverge. `cluster_at(t, &clustered)` returns the tick's clusters.
template <typename ClusterAt>
void SweepImpl(Tick begin_tick, Tick end_tick, CmcSweep* sweep,
               DiscoveryStats* stats, const ExecHooks* hooks,
               ClusterAt&& cluster_at) {
  TraceSession* const trace = TraceOf(hooks);
  const size_t total_ticks =
      begin_tick <= end_tick ? static_cast<size_t>(end_tick - begin_tick) + 1
                             : 0;
  size_t emitted = sweep->completed.size();

  for (Tick t = begin_tick; t <= end_tick; ++t) {
    CheckCancelled(hooks);
    bool clustered = false;
    const std::vector<std::vector<ObjectId>> cluster_objects =
        cluster_at(t, &clustered);
    if (clustered) {
      if (stats != nullptr) ++stats->num_clusterings;
      TraceCount(trace, TraceCounter::kSnapshotsClustered, 1);
    }
    // Advancing with an empty cluster list retires every live candidate,
    // which is exactly what a tick with < m alive objects must do: the
    // "consecutive time points" requirement breaks there.
    sweep->tracker.Advance(cluster_objects, t, t, /*step_weight=*/1,
                           &sweep->completed);
    emitted = EmitCompletedSince(sweep->completed, emitted, hooks);
    ReportProgress(hooks, "cmc",
                   static_cast<size_t>(t - begin_tick) + 1, total_ticks);
  }
}

}  // namespace

std::vector<Convoy> FinishSweep(CmcSweep* sweep, const CmcOptions& options,
                                DiscoveryStats* stats,
                                const ExecHooks* hooks) {
  TraceSession* const trace = TraceOf(hooks);
  const size_t flushed_from = sweep->completed.size();
  sweep->tracker.Flush(&sweep->completed);
  EmitCompletedSince(sweep->completed, flushed_from, hooks);
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
  const std::vector<Trajectory>& rows = db.trajectories();
  // One forward cursor per trajectory: the loop's ticks ascend, so each
  // gather moves a cursor by a sample or two instead of binary-searching.
  std::vector<size_t> cursors(rows.size(), 0);
  SweepImpl(
      begin_tick, end_tick, sweep, stats, hooks,
      [&](Tick t, bool* clustered) {
        ScopedSpan span(trace, "snapshot.cluster");
        std::vector<Point>& points = scratch->points;
        std::vector<ObjectId>& ids = scratch->ids;
        points.clear();
        ids.clear();
        const auto gather = [&](size_t r) {
          const std::optional<Point> pos =
              InterpolateForward(rows[r], t, &cursors[r]);
          if (!pos.has_value()) return;
          points.push_back(*pos);
          ids.push_back(rows[r].id());
        };
        const std::vector<uint32_t>* selected =
            rows_at ? rows_at(t) : nullptr;
        if (selected != nullptr) {
          for (const uint32_t r : *selected) gather(r);
        } else {
          for (size_t r = 0; r < rows.size(); ++r) gather(r);
        }
        std::vector<std::vector<ObjectId>> clusters = ClusterSnapshot(
            points, ids, query, clustered, &scratch->dbscan);
        if (*clustered) TraceDbscanRun(trace, scratch->dbscan.tally);
        return clusters;
      });
}

std::vector<Convoy> CmcRangeRows(const TrajectoryDatabase& db,
                                 const ConvoyQuery& query, Tick begin_tick,
                                 Tick end_tick, const RowSelector& rows_at,
                                 const CmcOptions& options,
                                 DiscoveryStats* stats, const ExecHooks* hooks,
                                 SnapshotScratch* scratch) {
  Stopwatch total;
  CmcSweep sweep(query.m, query.k);
  SweepRows(db, query, begin_tick, end_tick, rows_at, &sweep, stats, hooks,
            scratch);
  std::vector<Convoy> result = FinishSweep(&sweep, options, stats, hooks);
  if (stats != nullptr) stats->total_seconds += total.ElapsedSeconds();
  return result;
}

std::vector<Convoy> CmcRange(const TrajectoryDatabase& db,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks,
                             SnapshotScratch* scratch) {
  return CmcRangeRows(db, query, begin_tick, end_tick, RowSelector{},
                      options, stats, hooks, scratch);
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
  SnapshotScratch local;
  if (scratch == nullptr) scratch = &local;
  TraceSession* const trace = TraceOf(hooks);
  Stopwatch total;
  CmcSweep sweep(query.m, query.k);
  SweepImpl(
      begin_tick, end_tick, &sweep, stats, hooks,
      [&](Tick t, bool* clustered) {
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
      });
  std::vector<Convoy> result = FinishSweep(&sweep, options, stats, hooks);
  if (stats != nullptr) stats->total_seconds += total.ElapsedSeconds();
  return result;
}

std::vector<Convoy> Cmc(const SnapshotStore& store, const ConvoyQuery& query,
                        const CmcOptions& options, DiscoveryStats* stats,
                        const ExecHooks* hooks, SnapshotScratch* scratch) {
  if (store.Empty()) return {};
  return CmcRange(store, query, store.begin_tick(), store.end_tick(), options,
                  stats, hooks, scratch);
}

}  // namespace convoy
