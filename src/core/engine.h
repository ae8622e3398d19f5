#ifndef CONVOY_CORE_ENGINE_H_
#define CONVOY_CORE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/cluster_memo.h"
#include "core/convoy_set.h"
#include "core/cuts.h"
#include "core/discovery_stats.h"
#include "core/exec_hooks.h"
#include "core/mc2.h"
#include "query/planner.h"
#include "query/result_set.h"
#include "simplify/simplifier.h"
#include "traj/database.h"
#include "traj/snapshot_store.h"
#include "util/status.h"

namespace convoy {

/// High-level convoy query interface over a fixed trajectory database.
///
/// The primary API is the planner/executor pair:
///
///   ConvoyEngine engine(std::move(db));
///   StatusOr<QueryPlan> plan = engine.Prepare(query);   // validate + plan
///   std::cout << plan->Explain();                       // inspect (EXPLAIN)
///   StatusOr<ConvoyResultSet> result = engine.Execute(*plan);
///
/// Prepare validates the query, picks a physical algorithm (exact CMC,
/// CuTS/CuTS+/CuTS*, or — explicitly only — approximate MC2), and resolves
/// the Section 7.4 tunables; Execute runs the plan and returns a
/// ConvoyResultSet owning convoys + stats + plan. Execute optionally takes
/// ExecHooks, whose trace records the run's spans and counters.
///
/// Analysts rarely run one query: they sweep `e`, `m`, and `k` until the
/// result set is meaningful (the paper tunes e per dataset until 1-100
/// convoys appear). The engine amortizes across such sweeps whatever a
/// query shares with earlier ones:
///  - database statistics, and the delta guideline per e;
///  - the trajectory simplifications, per (simplifier, delta);
///  - the snapshot store and its grids, for CMC and MC2 plans;
///  - the CuTS clusterings, per ClusterMemoKey (filter, delta, lambda, e,
///    m — not k): the filter's partition clusterings and the refinement
///    windows' per-tick clusterings (core/cluster_memo.h), so a sweep over
///    k clusters once per (e, m) and re-runs only the candidate tracker.
///    Answers are bit-identical to a run without the memo.
///
/// Thread-safety: const after construction except for those caches. The
/// statistics, delta memo, simplification cache and store are guarded by
/// one mutex, and the clustering memo by its own, so concurrent Prepare /
/// Execute calls from different threads are safe without external
/// synchronization. Two threads missing the same key may both compute the
/// entry; the first to publish wins and the duplicate work is discarded.
/// Entries are immutable shared snapshots: readers hold a shared_ptr, and
/// the filter borrows the simplification for the length of its call.
class ConvoyEngine {
 public:
  explicit ConvoyEngine(TrajectoryDatabase db);

  const TrajectoryDatabase& db() const { return db_; }

  /// Validates the query and filter options (ValidateQuery /
  /// ValidateFilterOptions; kInvalidArgument on violation) and resolves
  /// them into an executable QueryPlan: the physical algorithm (ChooseAuto
  /// for kAuto, otherwise the explicit choice), delta/lambda via the
  /// ComputeDelta/ComputeLambda guidelines (priming the simplification
  /// cache — the plan records hit/miss), and work estimates from database
  /// statistics. The plan is inspectable via
  /// QueryPlan::Explain() and reusable across Execute calls.
  /// `trace` (optional) records planning spans ("prepare",
  /// "prepare.simplify") and the delta-memo, simplification-cache and
  /// store counters into a TraceSession (obs/trace.h); pass the same
  /// session to Execute via ExecHooks::trace for a single merged timeline.
  StatusOr<QueryPlan> Prepare(const ConvoyQuery& query,
                              AlgorithmChoice choice = AlgorithmChoice::kAuto,
                              const CutsFilterOptions& options = {},
                              const Mc2Options& mc2 = {},
                              TraceSession* trace = nullptr) const;

  /// Runs a prepared plan and returns the materialized ConvoyResultSet.
  /// Reports this execution in a fresh DiscoveryStats: a reused plan's
  /// one-time planning cost is not re-charged per run. `hooks.trace`
  /// (optional) records the run's spans and counters, and the result
  /// carries its metrics; see core/exec_hooks.h.
  StatusOr<ConvoyResultSet> Execute(const QueryPlan& plan,
                                    ExecHooks hooks = {}) const;

  /// Number of cached simplification sets (for tests / monitoring).
  size_t CacheSize() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_.size();
  }

  /// The CuTS clustering memo (for tests / monitoring): its bytes, keys
  /// and budget (kClusterMemoBytesPerPoint per stored point).
  const ClusterMemo& cluster_memo() const { return cluster_memo_; }

  /// The engine's cached SnapshotStore: built on first use by a
  /// snapshot-consuming plan (CMC, MC2) in Prepare or Execute, then shared
  /// by every later query. `reused`
  /// (optional out) reports whether the call was served from cache;
  /// `num_threads` sizes the build pass on a miss (0 = all hardware
  /// threads). Thread-safe: racing first calls may both build, and the
  /// first to publish wins. Returns null — and CMC / MC2 gather from the
  /// rows instead — when materializing the database would exceed
  /// kSnapshotStoreSlotBudget; the decline is remembered, so later calls
  /// skip the estimate.
  std::shared_ptr<const SnapshotStore> Store(size_t num_threads = 0,
                                             bool* reused = nullptr) const;

  /// The cached store if one is already built, else null — never triggers
  /// a build. Non-snapshot-consuming plans (CuTS) use this to borrow an
  /// existing store's time domain without paying for one.
  std::shared_ptr<const SnapshotStore> PeekStore() const;

 private:
  /// Keyed on the simplifier and the *exact bit pattern* of delta. An
  /// earlier version truncated delta to integer micro-units, which aliased
  /// any two deltas within 1e-6 of each other (and every delta below 1e-6
  /// to zero) onto one entry, returning the wrong simplification for the
  /// second query; the bit pattern makes distinct doubles distinct keys
  /// (regression-tested in engine_test.cc).
  using CacheKey = std::pair<SimplifierKind, uint64_t>;

  /// The database simplified with (kind, delta) as an immutable shared
  /// snapshot, served from cache_ when present; computes with `threads`
  /// workers and inserts on miss. `cache_hit` (optional out) reports
  /// which happened. A hit costs a map lookup and a shared_ptr copy.
  std::shared_ptr<const std::vector<SimplifiedTrajectory>> SimplifiedFor(
      SimplifierKind kind, double delta, size_t threads,
      bool* cache_hit) const;

  /// ComputeDelta(db_, e), memoized per e (its exact bit pattern) for the
  /// engine's lifetime: the delta guideline runs DP splits over a sample
  /// of the trajectories, which a sweep over m and k would otherwise
  /// repeat on every Prepare. The database never changes under an engine,
  /// so entries never go stale. `cache_hit` (optional out) reports whether
  /// the memo served the call.
  double DeltaFor(double e, bool* cache_hit) const;

  /// db_.Stats(), computed on the first call and memoized (guarded by
  /// cache_mu_): the database never changes under an engine, so repeated
  /// Prepare calls never rescan the trajectories.
  const DatabaseStats& CachedStats() const;

  /// Runs plan.algorithm's free function (Cmc, CutsFilterPresimplified +
  /// CutsRefine, or Mc2) over the engine's caches and returns its convoys.
  std::vector<Convoy> Dispatch(const QueryPlan& plan, const ExecHooks& hooks,
                               DiscoveryStats* stats) const;

  TrajectoryDatabase db_;
  /// CuTS clusterings of earlier queries; synchronized by its own mutex.
  mutable ClusterMemo cluster_memo_;
  /// Guards cache_, delta_cache_, db_stats_ and store_. The GUARDED_BY
  /// comments below are machine-checked by tools/lint (guarded-member):
  /// mutating an annotated member in a function that never takes the
  /// named mutex is a lint error.
  mutable std::mutex cache_mu_;
  mutable std::map<CacheKey,
                   std::shared_ptr<const std::vector<SimplifiedTrajectory>>>
      cache_;                                  // GUARDED_BY(cache_mu_)
  /// ComputeDelta results keyed on the bit pattern of e (see DeltaFor).
  mutable std::map<uint64_t, double> delta_cache_;  // GUARDED_BY(cache_mu_)
  mutable std::optional<DatabaseStats> db_stats_;  // GUARDED_BY(cache_mu_)
  /// The tick-partitioned store, built lazily on first use.
  mutable std::shared_ptr<const SnapshotStore>
      store_;                                  // GUARDED_BY(cache_mu_)
  /// Set once the store has been declined as over budget, so repeated
  /// queries against an over-budget database do not re-pay the O(N)
  /// estimate on every Prepare/Execute.
  mutable bool store_declined_ = false;        // GUARDED_BY(cache_mu_)
};

}  // namespace convoy

#endif  // CONVOY_CORE_ENGINE_H_
