#ifndef CONVOY_QUERY_EXEC_CONTEXT_H_
#define CONVOY_QUERY_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/cmc.h"
#include "core/discovery_stats.h"
#include "core/exec_hooks.h"
#include "simplify/simplifier.h"
#include "traj/database.h"

namespace convoy {

struct QueryPlan;
class SnapshotStore;

/// Supplies the database simplified with (kind, delta) as an immutable
/// shared snapshot — consumers that need ownership (the filter) copy it;
/// read-only consumers (lambda resolution in the planner) just dereference,
/// so a cache hit costs a map lookup, not a deep copy. The engine binds its
/// mutex-guarded simplification cache here so repeated plans amortize the
/// simplification cost; `cache_hit` (optional out) reports whether the call
/// was served from cache. A planner constructed without a provider
/// simplifies directly (uncached). Never returns null.
using SimplificationProvider =
    std::function<std::shared_ptr<const std::vector<SimplifiedTrajectory>>(
        SimplifierKind kind, double delta, bool* cache_hit)>;

/// Supplies the tick-partitioned SnapshotStore for the database — the
/// engine binds its generation-keyed store cache here. `build_if_missing`
/// carries the algorithm's AlgorithmCapabilities::uses_snapshot_store:
/// snapshot-consuming plans (CMC, MC2) build on a miss and reuse ever
/// after; other plans (the CuTS family) only *peek*, reusing a store some
/// earlier query built without ever triggering the materialization
/// themselves. May return null (nothing built / over budget / no engine);
/// CMC and MC2 then gather each tick from the rows (RowSnapshots) —
/// results are bit-identical either way (tests/store_parity_test.cc).
using SnapshotStoreProvider = std::function<std::shared_ptr<
    const SnapshotStore>(bool build_if_missing, bool* reused)>;

/// Everything a ConvoyAlgorithm::Run needs: the database, the resolved
/// physical plan (its query.num_threads is the worker-thread count),
/// execution hooks (cooperative CancelToken, optional progress callback,
/// optional incremental convoy sink, optional trace), per-run
/// DiscoveryStats, and the engine's simplification cache.
///
/// Built by ConvoyEngine::Execute; algorithms treat it as read-only apart
/// from `stats`.
struct ExecContext {
  const TrajectoryDatabase* db = nullptr;
  const QueryPlan* plan = nullptr;

  /// Cancellation, progress, incremental delivery (core/exec_hooks.h).
  ExecHooks hooks;

  /// Per-run instrumentation; may be null.
  DiscoveryStats* stats = nullptr;

  /// Simplification source for the CuTS family; unused by CMC / MC2.
  SimplificationProvider simplified;

  /// The engine's cached SnapshotStore for `db` (null: CMC / MC2 gather
  /// from the rows). CMC / MC2 read per-tick columnar views and cached
  /// grid indexes from it; the CuTS filter takes its precomputed time
  /// domain.
  std::shared_ptr<const SnapshotStore> store;

  /// Per-execution snapshot/DBSCAN arena (labels, neighbor buffer,
  /// frontier, grid-build buffers). CMC's one-thread loop reuses it across
  /// its ticks instead of allocating per call; mutable because a context
  /// is handed to Run() const while the arena is by nature written to.
  /// Contents never affect results (fully reset per use).
  mutable SnapshotScratch scratch;
};

}  // namespace convoy

#endif  // CONVOY_QUERY_EXEC_CONTEXT_H_
