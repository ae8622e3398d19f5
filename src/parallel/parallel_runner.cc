#include "parallel/parallel_runner.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

// The block-parallel CMC loop shared by the row-oriented and store-backed
// entry points, generic over the per-tick clustering `cluster_at(t,
// &clustered, &scratch)`: ticks are clustered concurrently in blocks,
// candidates extended sequentially in tick order — the sequential pass is
// what makes every variant bit-identical to serial CMC.
template <typename ClusterAt>
std::vector<Convoy> ParallelCmcRangeImpl(const ConvoyQuery& query,
                                         Tick begin_tick, Tick end_tick,
                                         const CmcOptions& options,
                                         DiscoveryStats* stats,
                                         size_t threads,
                                         const ExecHooks* hooks,
                                         ClusterAt&& cluster_at) {
  Stopwatch total;
  TraceSession* const trace = TraceOf(hooks);
  ThreadPool pool(threads);
  CmcSweep sweep(query.m, query.k);

  struct TickClusters {
    std::vector<std::vector<ObjectId>> clusters;
    bool clustered = false;
  };

  // Cluster snapshots in blocks: within a block every tick is clustered
  // concurrently, then the tracker advances sequentially in tick order —
  // that sequential pass is what makes the output bit-identical to serial
  // CMC. Blocks bound peak memory to O(block * clusters-per-tick) instead
  // of the whole time domain.
  const size_t total_ticks =
      static_cast<size_t>(end_tick - begin_tick) + 1;
  const size_t block = std::max<size_t>(threads * 16, 256);
  size_t num_clusterings = 0;
  size_t emitted = 0;
  for (size_t block_begin = 0; block_begin < total_ticks;
       block_begin += block) {
    const size_t block_size = std::min(block, total_ticks - block_begin);
    // One snapshot/DBSCAN arena per contiguous chunk: each worker chunk
    // reuses its arena across its ticks (chunk boundaries are
    // deterministic, and scratch contents never affect results), so the
    // parallel path sheds the same per-tick allocations the serial loop
    // does. Writes land in per-tick slots, keeping tick order.
    std::vector<TickClusters> per_tick(block_size);
    pool.ParallelFor(block_size, [&](size_t chunk_begin, size_t chunk_end) {
      SnapshotScratch scratch;
      for (size_t i = chunk_begin; i < chunk_end; ++i) {
        CheckCancelled(hooks);
        const Tick t = begin_tick + static_cast<Tick>(block_begin + i);
        // Worker-side spans land on the worker's own trace track; the
        // counters folded inside cluster_at are per-tick integer tallies,
        // so their totals are independent of the chunking (and therefore
        // of the thread count).
        ScopedSpan span(trace, "snapshot.cluster");
        per_tick[i].clusters =
            cluster_at(t, &per_tick[i].clustered, &scratch);
      }
    });
    for (size_t i = 0; i < block_size; ++i) {
      CheckCancelled(hooks);
      const Tick t = begin_tick + static_cast<Tick>(block_begin + i);
      if (per_tick[i].clustered) {
        ++num_clusterings;
        TraceCount(trace, TraceCounter::kSnapshotsClustered, 1);
      }
      sweep.tracker.Advance(per_tick[i].clusters, t, t, /*step_weight=*/1,
                            &sweep.completed);
      emitted = EmitCompletedSince(sweep.completed, emitted, hooks);
      ReportProgress(hooks, "cmc", block_begin + i + 1, total_ticks);
    }
  }
  // The tracker only ever advances on this sequential pass, so the tally
  // FinishSweep reads is bit-identical at every thread count.
  std::vector<Convoy> result = FinishSweep(&sweep, options, stats, hooks);
  if (stats != nullptr) {
    stats->num_clusterings += num_clusterings;
    stats->total_seconds += total.ElapsedSeconds();
  }
  return result;
}

}  // namespace

std::vector<Convoy> ParallelCmcRange(const TrajectoryDatabase& db,
                                     const ConvoyQuery& query, Tick begin_tick,
                                     Tick end_tick, const CmcOptions& options,
                                     DiscoveryStats* stats, size_t num_threads,
                                     const ExecHooks* hooks,
                                     SnapshotScratch* scratch) {
  const size_t threads = ResolveWorkerThreads(num_threads, query);
  if (threads <= 1 || begin_tick > end_tick) {
    return CmcRange(db, query, begin_tick, end_tick, options, stats, hooks,
                    scratch);
  }
  TraceSession* const trace = TraceOf(hooks);
  return ParallelCmcRangeImpl(
      query, begin_tick, end_tick, options, stats, threads, hooks,
      [&](Tick t, bool* clustered, SnapshotScratch* worker_scratch) {
        std::vector<std::vector<ObjectId>> clusters =
            SnapshotClusters(db, t, query, clustered, worker_scratch);
        if (*clustered) TraceDbscanRun(trace, worker_scratch->dbscan.tally);
        return clusters;
      });
}

std::vector<Convoy> ParallelCmc(const TrajectoryDatabase& db,
                                const ConvoyQuery& query,
                                const CmcOptions& options,
                                DiscoveryStats* stats, size_t num_threads,
                                const ExecHooks* hooks,
                                SnapshotScratch* scratch) {
  if (db.Empty()) return {};
  return ParallelCmcRange(db, query, db.BeginTick(), db.EndTick(), options,
                          stats, num_threads, hooks, scratch);
}

std::vector<Convoy> ParallelCmcRange(const SnapshotStore& store,
                                     const ConvoyQuery& query, Tick begin_tick,
                                     Tick end_tick, const CmcOptions& options,
                                     DiscoveryStats* stats, size_t num_threads,
                                     const ExecHooks* hooks,
                                     SnapshotScratch* scratch) {
  const size_t threads = ResolveWorkerThreads(num_threads, query);
  if (threads <= 1 || begin_tick > end_tick) {
    return CmcRange(store, query, begin_tick, end_tick, options, stats,
                    hooks, scratch);
  }
  TraceSession* const trace = TraceOf(hooks);
  return ParallelCmcRangeImpl(
      query, begin_tick, end_tick, options, stats, threads, hooks,
      [&](Tick t, bool* clustered, SnapshotScratch* worker_scratch) {
        bool grid_hit = false;
        std::vector<std::vector<ObjectId>> clusters = SnapshotClusters(
            store, t, query, clustered, &worker_scratch->dbscan, &grid_hit);
        if (*clustered) {
          TraceDbscanRun(trace, worker_scratch->dbscan.tally);
          TraceCount(trace,
                     grid_hit ? TraceCounter::kGridCacheHits
                              : TraceCounter::kGridCacheMisses,
                     1);
        }
        return clusters;
      });
}

std::vector<Convoy> ParallelCmc(const SnapshotStore& store,
                                const ConvoyQuery& query,
                                const CmcOptions& options,
                                DiscoveryStats* stats, size_t num_threads,
                                const ExecHooks* hooks,
                                SnapshotScratch* scratch) {
  if (store.Empty()) return {};
  return ParallelCmcRange(store, query, store.begin_tick(), store.end_tick(),
                          options, stats, num_threads, hooks, scratch);
}

CutsFilterResult ParallelCutsFilter(const TrajectoryDatabase& db,
                                    const ConvoyQuery& query,
                                    CutsFilterOptions options,
                                    DiscoveryStats* stats,
                                    size_t num_threads) {
  options.num_threads = ResolveWorkerThreads(
      num_threads > 0 ? num_threads : options.num_threads, query);
  return CutsFilter(db, query, options, stats);
}

std::vector<Convoy> ParallelCuts(const TrajectoryDatabase& db,
                                 const ConvoyQuery& query, CutsVariant variant,
                                 CutsFilterOptions options,
                                 DiscoveryStats* stats, size_t num_threads) {
  const size_t threads = ResolveWorkerThreads(
      num_threads > 0 ? num_threads : options.num_threads, query);
  options.num_threads = threads;
  if (options.refine_threads == 0) options.refine_threads = threads;
  return Cuts(db, query, variant, options, stats);
}

}  // namespace convoy
