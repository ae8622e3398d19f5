#ifndef CONVOY_CORE_CUTS_REFINE_H_
#define CONVOY_CORE_CUTS_REFINE_H_

#include <vector>

#include "core/candidate.h"
#include "core/convoy_set.h"
#include "core/discovery_stats.h"
#include "core/exec_hooks.h"
#include "traj/database.h"

namespace convoy {

struct CutsFilterResult;
struct MemoSlot;

/// No effect. CuTS has one refinement (CutsRefine below), exact on every
/// input; this enum and CutsFilterOptions::refine_mode remain only because
/// perfbench still names a mode. They go, with the candidate-only
/// CutsRefine, once the benchmark stops calling them.
enum class RefineMode {
  kProjected,
  kFullWindow,
};

/// The refinement step of CuTS (paper Algorithm 3): turns the filter's
/// candidates into exactly the convoys CMC finds, on every input.
///
///  1. The candidates' tick intervals merge into disjoint windows
///     (overlapping or adjacent intervals join). Every CMC convoy lies in
///     one candidate's interval — the filter's no-false-dismissal
///     guarantee — so it lies whole inside one window.
///  2. Each window runs CMC's per-tick loop once (SweepRows), so no
///     tick is clustered twice however many candidates overlap it.
///  3. At each tick only the objects of `filtered.members` for the tick's
///     partition are gathered and clustered. That pruning is exact: two
///     objects within e at a tick are polyline neighbours in its partition
///     (Lemmas 1-3), so an object in no polyline cluster has fewer than m
///     neighbours and is within e of no core point at every tick of the
///     partition. Dropping it changes no core set, no cluster and, since
///     database order is kept, no border tie-break.
///
/// The windows' convoys are then dominance-pruned into the final set.
/// Refinement never clusters a tick CMC would not, and never more objects.
///
/// With query.num_threads > 1 (or 0, all hardware threads) windows are
/// refined concurrently in blocks (OrderedParallelFor); each window is
/// independent and results are merged in window order, so the result —
/// and every counter, DiscoveryStats::num_clusterings included — is
/// identical at every thread count.
///
/// `hooks` (optional, core/exec_hooks.h) carries the trace, which the
/// windows' sweeps record into; the result is unaffected.
///
/// `memo` (optional, core/cluster_memo.h) — ConvoyEngine's path: a window
/// inside one the memo holds under its key (a hit) reads that window's
/// clusters and clusters nothing; any other window (a miss) reads the held
/// windows inside it, clusters its remaining ticks, and is published to
/// the memo. The result is the same either way. `filtered` must come from
/// the filter run under the same memo key.
std::vector<Convoy> CutsRefine(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const CutsFilterResult& filtered,
                               DiscoveryStats* stats = nullptr,
                               const ExecHooks* hooks = nullptr,
                               const MemoSlot* memo = nullptr);

/// Refinement from the candidates alone, without the filter's member
/// sets: the same windows, each clustering every alive object per tick.
/// Same result as the overload above, at the cost of the pruning; `mode`
/// is ignored, and `threads` replaces query.num_threads. Only perfbench's
/// decomposed pipeline still calls it.
std::vector<Convoy> CutsRefine(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const std::vector<Candidate>& candidates,
                               RefineMode mode = RefineMode::kProjected,
                               DiscoveryStats* stats = nullptr,
                               size_t threads = 1,
                               const ExecHooks* hooks = nullptr);

}  // namespace convoy

#endif  // CONVOY_CORE_CUTS_REFINE_H_
