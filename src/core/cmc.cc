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

bool ClusterSnapshot(const std::vector<Point>& points,
                     const std::vector<ObjectId>& ids,
                     const ConvoyQuery& query, DbscanScratch* scratch,
                     FlatClusters* out) {
  if (points.size() < query.m) {
    out->AddStep(ClusterSpans());
    return false;
  }
  // Rebuild the arena's grid in place (identical state to a fresh index)
  // and run DBSCAN out of the same working set.
  scratch->grid.Assign(points, query.e);
  const Clustering clustering =
      Dbscan(points, scratch->grid, query.e, query.m, scratch);
  out->AddStep(clustering.clusters, ids.data());
  return true;
}

RowSnapshots::RowSnapshots(const TrajectoryDatabase& db)
    : rows_(db.trajectories()), cursors_(rows_.size(), 0) {}

void RowSnapshots::Gather(Tick t, const std::vector<uint32_t>* selected,
                          std::vector<Point>* points,
                          std::vector<ObjectId>* ids) {
  points->clear();
  ids->clear();
  // O_t: every gathered object contributes its (possibly virtual,
  // linearly interpolated) location.
  const auto gather = [&](size_t r) {
    const std::optional<Point> pos =
        InterpolateForward(rows_[r], t, &cursors_[r]);
    if (!pos.has_value()) return;
    points->push_back(*pos);
    ids->push_back(rows_[r].id());
  };
  if (selected != nullptr) {
    for (const uint32_t r : *selected) gather(r);
  } else {
    for (size_t r = 0; r < rows_.size(); ++r) gather(r);
  }
}

bool SnapshotClusters(const SnapshotStore& store, Tick t,
                      const ConvoyQuery& query, DbscanScratch* scratch,
                      FlatClusters* out, bool* grid_cache_hit) {
  const SnapshotView view = store.At(t);
  if (view.size < query.m) {
    out->AddStep(ClusterSpans());
    return false;
  }
  // Hold the shared_ptr across the scan: the store may evict the grid
  // from its cache mid-query (eps-sweep bound), never from under us.
  const std::shared_ptr<const GridIndex> grid =
      store.GridFor(t, query.e, grid_cache_hit);
  const Clustering clustering =
      Dbscan(view.xs, view.ys, view.size, *grid, query.e, query.m, scratch);
  out->AddStep(clustering.clusters, view.ids);
  return true;
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

// Tick begin + i, in unsigned arithmetic: i never exceeds the domain.
Tick TickAt(Tick begin, size_t i) {
  return static_cast<Tick>(static_cast<uint64_t>(begin) + i);
}

// One tick as a sweep's producer hands it on: step `step` of `*steps` —
// the chunk arena's storage, which `owner` keeps alive until the tick is
// consumed, or a held window, which outlives the sweep.
struct SweptTick {
  const FlatClusters* steps = nullptr;
  size_t step = 0;
  std::shared_ptr<const FlatClusters> owner;
  bool clustered = false;
};

// Tick t read in place from a window holding it.
SweptTick HeldTick(const WindowClusters& window, Tick t) {
  SweptTick tick;
  tick.steps = &window.ticks;
  tick.step = static_cast<size_t>(t - window.begin);
  return tick;
}

// Runs `cluster(out)`, which appends one tick's step to `out`, on the
// arena's cluster storage, reusing it once no produced tick refers to it.
template <typename Cluster>
SweptTick ClusterInto(SnapshotScratch* scratch, Cluster&& cluster) {
  std::shared_ptr<FlatClusters>& storage = scratch->clusters;
  if (storage.use_count() == 1) storage->Clear();
  const bool clustered = cluster(storage.get());
  return SweptTick{storage.get(), storage->NumSteps() - 1, storage, clustered};
}

// The one tick loop of every snapshot sweep. `make_cluster_at(scratch)`
// returns a clusterer `cluster_at(t) -> SweptTick` for ascending ticks,
// working in `scratch`: the caller's at one thread, one per worker chunk
// of OrderedParallelFor otherwise. Consumption (stats, `consume`) runs on
// the caller's thread in tick order, and the counters folded while
// clustering are per-tick integer tallies, so every output and count is
// identical at every thread count.
template <typename MakeClusterAt>
void SweepImpl(Tick begin_tick, Tick end_tick, size_t threads,
               SnapshotScratch* scratch, DiscoveryStats* stats,
               TraceSession* trace, MakeClusterAt&& make_cluster_at,
               const TickConsumer& consume) {
  // Unsigned: the tick count of a domain at either end of the tick range
  // must not overflow.
  const size_t total_ticks =
      begin_tick <= end_tick
          ? static_cast<size_t>(static_cast<uint64_t>(end_tick) -
                                static_cast<uint64_t>(begin_tick)) +
                1
          : 0;
  threads = ResolveThreadCount(threads);
  OrderedParallelFor(
      total_ticks, threads, kSmallUnits,
      [&] {
        std::unique_ptr<SnapshotScratch> owned;
        if (threads > 1) owned = std::make_unique<SnapshotScratch>();
        auto cluster_at = make_cluster_at(owned ? owned.get() : scratch);
        return std::make_pair(std::move(owned), std::move(cluster_at));
      },
      [&](auto& state, size_t i) {
        return state.second(TickAt(begin_tick, i));
      },
      [&](size_t i, SweptTick tick) {
        if (tick.clustered) {
          if (stats != nullptr) ++stats->num_clusterings;
          TraceCount(trace, TraceCounter::kSnapshotsClustered, 1);
        }
        consume(TickAt(begin_tick, i), tick.steps->Step(tick.step));
      });
}

// The row path's clusterers for SweepImpl: each gathers through a fresh
// RowSnapshots, so a worker chunk restarts the cursors at its first tick,
// and clusters the snapshot with `cluster`. With a `memo` (SweepRows only,
// where one clusterer serves every tick in order) a tick some cached
// window holds is read from it in place, not clustered, and every tick is
// appended to the memo's record while that stays within its limit.
auto RowClusterers(const TrajectoryDatabase& db,
                   const SnapshotClusterer& cluster,
                   const RowSelector& rows_at, const SweepMemo* memo,
                   TraceSession* trace) {
  return [&db, &cluster, &rows_at, memo, trace](SnapshotScratch* scratch) {
    return [rows = RowSnapshots(db), &cluster, &rows_at, memo, trace, scratch,
            next = size_t{0},
            recording = memo != nullptr && memo->record != nullptr](
               Tick t) mutable {
      const WindowClusters* cached = nullptr;
      if (memo != nullptr) {
        const auto& windows = memo->cached;
        while (next < windows.size() && windows[next]->end() < t) ++next;
        if (next < windows.size() && windows[next]->begin <= t) {
          cached = windows[next];
        }
      }
      SweptTick tick;
      if (cached != nullptr) {
        tick = HeldTick(*cached, t);
      } else {
        ScopedSpan span(trace, "snapshot.cluster");
        rows.Gather(t, rows_at ? rows_at(t) : nullptr, &scratch->points,
                    &scratch->ids);
        tick = ClusterInto(scratch, [&](FlatClusters* out) {
          return cluster(scratch->points, scratch->ids, &scratch->dbscan,
                         out);
        });
      }
      if (recording) {
        memo->record->ticks.AddStep(tick.steps->Step(tick.step));
        if (memo->record->ticks.Bytes() > memo->record_limit) {
          memo->record->ticks = FlatClusters();
          recording = false;
        }
      }
      return tick;
    };
  };
}

// The store path's clusterers for SweepImpl: the store's columnar views
// and cached grids, any tick in any order.
auto StoreClusterers(const SnapshotStore& store, const ConvoyQuery& query,
                     TraceSession* trace) {
  return [&store, &query, trace](SnapshotScratch* scratch) {
    return [&store, &query, trace, scratch](Tick t) {
      ScopedSpan span(trace, "snapshot.cluster");
      bool grid_hit = false;
      const SweptTick tick = ClusterInto(scratch, [&](FlatClusters* out) {
        return SnapshotClusters(store, t, query, &scratch->dbscan, out,
                                &grid_hit);
      });
      if (tick.clustered) {
        TraceDbscanRun(trace, scratch->dbscan.tally);
        TraceCount(trace,
                   grid_hit ? TraceCounter::kGridCacheHits
                            : TraceCounter::kGridCacheMisses,
                   1);
      }
      return tick;
    };
  };
}

// Ends a CMC run begun at `total`: FinishSweep, its wall time added to
// stats->total_seconds.
std::vector<Convoy> FinishCmc(CmcSweep* sweep, const CmcOptions& options,
                              DiscoveryStats* stats, const ExecHooks* hooks,
                              const Stopwatch& total) {
  std::vector<Convoy> result = FinishSweep(sweep, options, stats, hooks);
  if (stats != nullptr) stats->total_seconds += total.ElapsedSeconds();
  return result;
}

}  // namespace

SnapshotClusterer DbscanClusterer(const ConvoyQuery& query,
                                  const ExecHooks* hooks) {
  TraceSession* const trace = TraceOf(hooks);
  return [&query, trace](const std::vector<Point>& points,
                         const std::vector<ObjectId>& ids,
                         DbscanScratch* dbscan, FlatClusters* out) {
    const bool clustered = ClusterSnapshot(points, ids, query, dbscan, out);
    if (clustered) TraceDbscanRun(trace, dbscan->tally);
    return clustered;
  };
}

void SweepSnapshots(const TrajectoryDatabase& db, Tick begin_tick,
                    Tick end_tick, size_t threads,
                    const SnapshotClusterer& cluster,
                    const TickConsumer& consume, DiscoveryStats* stats,
                    const ExecHooks* hooks) {
  SnapshotScratch scratch;
  const RowSelector all_rows;
  TraceSession* const trace = TraceOf(hooks);
  SweepImpl(begin_tick, end_tick, threads, &scratch, stats, trace,
            RowClusterers(db, cluster, all_rows, /*memo=*/nullptr, trace),
            consume);
}

void SweepSnapshots(const SnapshotStore& store, const ConvoyQuery& query,
                    Tick begin_tick, Tick end_tick,
                    const TickConsumer& consume, DiscoveryStats* stats,
                    const ExecHooks* hooks) {
  SnapshotScratch scratch;
  TraceSession* const trace = TraceOf(hooks);
  SweepImpl(begin_tick, end_tick, query.num_threads, &scratch, stats, trace,
            StoreClusterers(store, query, trace), consume);
}

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
  const SnapshotClusterer dbscan = DbscanClusterer(query, hooks);
  SweepImpl(begin_tick, end_tick, /*threads=*/1, scratch, stats, trace,
            RowClusterers(db, dbscan, rows_at, memo, trace),
            sweep->Consume());
}

void SweepCached(const WindowClusters& window, Tick begin_tick,
                 Tick end_tick, CmcSweep* sweep) {
  assert(window.Contains(begin_tick, end_tick));
  // Nothing is clustered, so nothing needs a scratch, stats or a trace.
  SweepImpl(begin_tick, end_tick, /*threads=*/1, /*scratch=*/nullptr,
            /*stats=*/nullptr, /*trace=*/nullptr,
            [&window](SnapshotScratch*) {
              return [&window](Tick t) { return HeldTick(window, t); };
            },
            sweep->Consume());
}

std::vector<Convoy> CmcRange(const TrajectoryDatabase& db,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks) {
  const Stopwatch total;
  CmcSweep sweep(query.m, query.k);
  SweepSnapshots(db, begin_tick, end_tick, query.num_threads,
                 DbscanClusterer(query, hooks), sweep.Consume(), stats, hooks);
  return FinishCmc(&sweep, options, stats, hooks, total);
}

std::vector<Convoy> Cmc(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const CmcOptions& options, DiscoveryStats* stats,
                        const ExecHooks* hooks) {
  if (db.Empty()) return {};
  return CmcRange(db, query, db.BeginTick(), db.EndTick(), options, stats,
                  hooks);
}

std::vector<Convoy> CmcRange(const SnapshotStore& store,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks) {
  const Stopwatch total;
  CmcSweep sweep(query.m, query.k);
  SweepSnapshots(store, query, begin_tick, end_tick, sweep.Consume(), stats,
                 hooks);
  return FinishCmc(&sweep, options, stats, hooks, total);
}

std::vector<Convoy> Cmc(const SnapshotStore& store, const ConvoyQuery& query,
                        const CmcOptions& options, DiscoveryStats* stats,
                        const ExecHooks* hooks) {
  if (store.Empty()) return {};
  return CmcRange(store, query, store.begin_tick(), store.end_tick(), options,
                  stats, hooks);
}

}  // namespace convoy
