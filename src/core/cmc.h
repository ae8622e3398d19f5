#ifndef CONVOY_CORE_CMC_H_
#define CONVOY_CORE_CMC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cluster/dbscan.h"
#include "core/candidate.h"
#include "core/convoy_set.h"
#include "core/discovery_stats.h"
#include "core/exec_hooks.h"
#include "geom/point.h"
#include "traj/database.h"
#include "traj/snapshot_store.h"

namespace convoy {

class TraceSession;

/// Options for the Coherent Moving Cluster algorithm.
struct CmcOptions {
  /// When true (default) the raw candidate output is dominance-pruned so
  /// the result contains only maximal convoys. Disable to inspect the raw
  /// candidate algebra (some tests do).
  bool remove_dominated = true;
};

/// One sweep chunk's arena, reused across its ticks so the loop does not
/// reallocate the snapshot, the grid index, the DBSCAN working set or the
/// cluster storage every tick: the caller's at one thread (CuTS refinement
/// holds one per worker chunk, the live refresh one per stream), one per
/// worker chunk otherwise. Contents never carry information between
/// ticks, so reuse cannot change results. Move-only: two arenas never
/// share cluster storage.
struct SnapshotScratch {
  SnapshotScratch() = default;
  SnapshotScratch(SnapshotScratch&&) = default;
  SnapshotScratch& operator=(SnapshotScratch&&) = default;

  std::vector<Point> points;
  std::vector<ObjectId> ids;
  DbscanScratch dbscan;
  /// The ticks this arena's clusterer wrote, shared with each tick handed
  /// to the consumer so a worker chunk's ticks outlive the chunk; cleared
  /// for reuse once no tick refers to it (at one thread, every tick).
  std::shared_ptr<FlatClusters> clusters = std::make_shared<FlatClusters>();
};

/// CMC — Coherent Moving Cluster (paper Algorithm 1, Section 4): the exact
/// baseline convoy-discovery algorithm. For every tick it interpolates
/// virtual points for objects with missing samples, clusters the snapshot
/// with DBSCAN(e, m), and intersects the clusters with the candidates kept
/// from the previous tick; candidates that survive k consecutive ticks are
/// convoys.
///
/// SweepSnapshots over the database's time domain at query.num_threads,
/// with DbscanClusterer and the candidate tracker (CmcSweep::Consume):
/// the convoys, DiscoveryStats::num_clusterings and the traced counters
/// are identical at every thread count. `hooks` (optional,
/// core/exec_hooks.h) carries the trace; results are unaffected.
std::vector<Convoy> Cmc(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const CmcOptions& options = {},
                        DiscoveryStats* stats = nullptr,
                        const ExecHooks* hooks = nullptr);

/// Cmc restricted to ticks [begin_tick, end_tick].
std::vector<Convoy> CmcRange(const TrajectoryDatabase& db,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options = {},
                             DiscoveryStats* stats = nullptr,
                             const ExecHooks* hooks = nullptr);

/// Store-backed CMC: identical to Cmc(db, ...) over the database the store
/// was built from, at every thread count — the store's per-tick columnar
/// views reproduce the row gather bit for bit — but skips all per-tick
/// re-derivation (interpolation, alive-object scans) and reuses the
/// store's cached per-tick grid indexes at query.e instead of rebuilding
/// them every call.
std::vector<Convoy> Cmc(const SnapshotStore& store, const ConvoyQuery& query,
                        const CmcOptions& options = {},
                        DiscoveryStats* stats = nullptr,
                        const ExecHooks* hooks = nullptr);

/// Store-backed range-restricted CMC, mirroring CmcRange(db, ...).
std::vector<Convoy> CmcRange(const SnapshotStore& store,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options = {},
                             DiscoveryStats* stats = nullptr,
                             const ExecHooks* hooks = nullptr);

/// A snapshot sweep's per-tick consume step: tick t's clusters, in tick
/// order on the sweep's calling thread, valid for the call only.
using TickConsumer = std::function<void(Tick t, const ClusterSpans& clusters)>;

/// Clusters one gathered snapshot (`points` with aligned `ids`, database
/// order) into one step of sorted object-id lists appended to `out`, in
/// the calling chunk's `dbscan` arena; returns whether it clustered (too
/// small a snapshot appends an empty step). Worker chunks call it
/// concurrently, each with its own arena and storage.
using SnapshotClusterer =
    std::function<bool(const std::vector<Point>& points,
                       const std::vector<ObjectId>& ids,
                       DbscanScratch* dbscan, FlatClusters* out)>;

/// CMC's and MC2's clusterer: ClusterSnapshot, each run's tally folded
/// into the hooks' trace. `query` must outlive it.
SnapshotClusterer DbscanClusterer(const ConvoyQuery& query,
                                  const ExecHooks* hooks = nullptr);

/// The one tick loop of the snapshot algorithms — CMC, CuTS refinement,
/// the live refresh, MC2 and Flock: every tick of [begin_tick, end_tick],
/// counted unsigned so a domain at either end of the tick range sweeps
/// exactly its ticks, is gathered from the rows (RowSnapshots), clustered
/// by `cluster` and handed to `consume`. Ticks are clustered at `threads`
/// (ResolveThreadCount) through OrderedParallelFor, each worker chunk in
/// its own arena with its own cursors; `consume` runs on the caller's
/// thread in tick order, so what it computes is identical at every thread
/// count. Each clustered tick counts one clustering in `stats` and in the
/// trace, and each gathered one a "snapshot.cluster" span.
void SweepSnapshots(const TrajectoryDatabase& db, Tick begin_tick,
                    Tick end_tick, size_t threads,
                    const SnapshotClusterer& cluster,
                    const TickConsumer& consume,
                    DiscoveryStats* stats = nullptr,
                    const ExecHooks* hooks = nullptr);

/// SweepSnapshots over the store's views and cached grids, at
/// query.num_threads, clustering with SnapshotClusters: tick for tick what
/// the row sweep computes with DbscanClusterer(query).
void SweepSnapshots(const SnapshotStore& store, const ConvoyQuery& query,
                    Tick begin_tick, Tick end_tick,
                    const TickConsumer& consume,
                    DiscoveryStats* stats = nullptr,
                    const ExecHooks* hooks = nullptr);

/// The state CMC's per-tick loop carries from one tick to the next: the
/// candidate tracker and the candidates completed so far. Cmc and CmcRange
/// hold one for the length of a call. A caller holding its own can stop
/// after any tick and continue later — or save (tracker.live(),
/// completed.size()) as a checkpoint and resume from it through
/// CandidateTracker::Restore, as IncrementalCmc does
/// (core/incremental_cmc.h).
struct CmcSweep {
  CmcSweep(size_t m, Tick k) : tracker(m, k) {}

  /// CMC's consume step: advances the tracker over each tick's clusters.
  /// No clusters retire every live candidate, which is exactly what a tick
  /// with < m alive objects must do: the "consecutive time points"
  /// requirement breaks there.
  TickConsumer Consume() {
    return [this](Tick t, const ClusterSpans& clusters) {
      tracker.Advance(clusters, t, t, /*step_weight=*/1, &completed);
    };
  }

  CandidateTracker tracker;
  std::vector<Candidate> completed;
};

/// Chooses which trajectories a SweepRows run gathers at tick t: the
/// database indices, ascending, or null for every trajectory alive at t.
/// Called at most once per tick, at ascending ticks (a tick read from a
/// SweepMemo is skipped); the returned list must stay valid until the next
/// call.
using RowSelector = std::function<const std::vector<uint32_t>*(Tick t)>;

/// One CuTS refinement window's per-tick clusters, as the clustering memo
/// keeps them (core/cluster_memo.h): step i of `ticks` holds tick
/// begin + i.
struct WindowClusters {
  Tick begin = 0;
  FlatClusters ticks;

  /// Whether every tick of [first, last] is held.
  bool Contains(Tick first, Tick last) const {
    return ticks.NumSteps() > 0 && begin <= first && last <= end();
  }
  /// The last tick held. Precondition: at least one tick is.
  Tick end() const { return begin + static_cast<Tick>(ticks.NumSteps() - 1); }
  /// Tick t's clusters. Precondition: Contains(t, t).
  ClusterSpans At(Tick t) const {
    return ticks.Step(static_cast<size_t>(t - begin));
  }
};

/// The clustering memo's side of a SweepRows run (core/cluster_memo.h).
struct SweepMemo {
  /// Windows whose ticks the sweep reads instead of clustering: ascending,
  /// disjoint and non-empty, each holding at its ticks exactly the clusters
  /// the sweep would compute there.
  std::span<const WindowClusters* const> cached;
  /// When non-null, receives every tick's clusters in tick order, read or
  /// clustered (the caller sets record->begin), so the caller can publish
  /// the window — until it would hold more than `record_limit` bytes: it
  /// is then emptied and receives nothing more.
  WindowClusters* record = nullptr;
  size_t record_limit = 0;
};

/// SweepSnapshots with DBSCAN and a caller-owned CMC sweep as its consume
/// step, for ticks [begin_tick, end_tick]; FinishSweep ends the sweep as
/// CmcRange would. It always runs on the caller's thread, in `scratch`
/// (optional), whatever query.num_threads says: `rows_at` is stateful, and
/// its callers — CuTS refinement (one sweep per window, windows in
/// parallel) and the live path — bring their own parallelism or none.
///
/// Tick t clusters only the trajectories `rows_at(t)` names (every alive
/// one when `rows_at` is empty or returns null), in database order. The
/// result equals CmcRange's whenever every dropped object is, at that
/// tick, DBSCAN noise within e of no core point: such an object changes no
/// core set and is in no neighbour list a cluster expands, so every
/// cluster, its expansion order and its border tie-breaks stay the same.
/// CuTS refinement (core/cuts_refine.h) selects the objects its filter
/// clustered, which meets that condition. Clustering is skipped — and not
/// counted — at ticks where fewer than m objects are selected.
///
/// `memo` (optional) lets the sweep read ticks that `memo->cached` holds
/// in place instead of clustering them (not counted either), and record
/// every tick's clusters; the sweep advances exactly as without it.
void SweepRows(const TrajectoryDatabase& db, const ConvoyQuery& query,
               Tick begin_tick, Tick end_tick, const RowSelector& rows_at,
               CmcSweep* sweep, DiscoveryStats* stats = nullptr,
               const ExecHooks* hooks = nullptr,
               SnapshotScratch* scratch = nullptr,
               const SweepMemo* memo = nullptr);

/// CMC's per-tick loop over ticks [begin_tick, end_tick] of a caller-owned
/// sweep, every tick's clusters read in place from `window`, which must
/// contain the range: the sweep advances exactly as the SweepRows run that
/// recorded the window did over those ticks. It clusters nothing, so it
/// counts no clustering.
void SweepCached(const WindowClusters& window, Tick begin_tick,
                 Tick end_tick, CmcSweep* sweep);

/// Ends a sweep as CMC ends: flushes the tracker into sweep->completed
/// (live candidates with lifetime >= k complete), folds the tracker's
/// tally into the trace, and finalizes the completed list
/// (FinalizeCmcResult). The sweep is left flushed, its completed list
/// intact. Sets stats->num_convoys.
std::vector<Convoy> FinishSweep(CmcSweep* sweep, const CmcOptions& options,
                                DiscoveryStats* stats = nullptr,
                                const ExecHooks* hooks = nullptr);

/// The row gather of the snapshot sweeps: gathers a database's snapshots
/// at ascending ticks through one forward interpolation cursor per
/// trajectory (InterpolateForward), so a tick costs no binary search;
/// positions are bit-identical to InterpolateAt. Clustering is the
/// caller's (a SnapshotClusterer). A fresh instance may start at any tick
/// (its first gather binary-searches), which is how each worker chunk of a
/// threaded sweep restarts it.
class RowSnapshots {
 public:
  explicit RowSnapshots(const TrajectoryDatabase& db);

  /// Replaces `points` and `ids` with tick t's snapshot (t not before the
  /// previous call's tick): the trajectories `selected` names (database
  /// indices, ascending) or, when null, every trajectory, each alive at t,
  /// in database order.
  void Gather(Tick t, const std::vector<uint32_t>* selected,
              std::vector<Point>* points, std::vector<ObjectId>* ids);

 private:
  const std::vector<Trajectory>& rows_;
  std::vector<size_t> cursors_;
};

/// One tick of store-backed CMC, for any tick in any order: clusters the
/// store's columnar view of tick `t` over the store's cached grid index at
/// query.e, appending one step to `out` whose clusters are sorted object-id
/// lists — the step DbscanClusterer(query) appends over the source
/// database's row gather. Returns whether DBSCAN ran: a snapshot with
/// fewer than m objects appends an empty step without clustering.
/// `grid_cache_hit` (optional out) reports whether the store served the
/// grid from its cache (meaningful only when it clustered — under-m ticks
/// never consult the cache).
bool SnapshotClusters(const SnapshotStore& store, Tick t,
                      const ConvoyQuery& query, DbscanScratch* scratch,
                      FlatClusters* out, bool* grid_cache_hit = nullptr);

/// Clusters one already-materialized snapshot (`points` with aligned
/// `ids`): DBSCAN(query.e, query.m) over `scratch`'s grid index and
/// working set, appended to `out` as one step of sorted object-id lists.
/// Returns whether DBSCAN ran: a snapshot smaller than m appends an empty
/// step. The snapshot clustering of the row sweeps (DbscanClusterer) and
/// of StreamingCmc — one implementation, so their per-tick semantics can
/// never drift apart.
bool ClusterSnapshot(const std::vector<Point>& points,
                     const std::vector<ObjectId>& ids,
                     const ConvoyQuery& query, DbscanScratch* scratch,
                     FlatClusters* out);

/// The shared tail of CMC: converts completed candidates to convoys and
/// applies dominance pruning (or mere canonicalization, per `options`).
std::vector<Convoy> FinalizeCmcResult(const std::vector<Candidate>& completed,
                                      const CmcOptions& options);

/// Folds one clustering run's DBSCAN tally into the trace — the shared
/// counting step of CMC's loop (on whichever thread clusters the tick)
/// and the stream (one call per clustered tick, so a disabled trace costs
/// one branch per tick). No-op on a null trace.
void TraceDbscanRun(TraceSession* trace, const DbscanTally& tally);

/// Folds a tracker's lifetime tally into the trace, once per run on the
/// sequential pass — which is what keeps the totals bit-identical at every
/// thread count. No-op on a null trace.
void TraceTrackerTally(TraceSession* trace, const TrackerTally& tally);

}  // namespace convoy

#endif  // CONVOY_CORE_CMC_H_
