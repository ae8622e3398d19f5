#ifndef CONVOY_QUERY_PLANNER_H_
#define CONVOY_QUERY_PLANNER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "core/convoy_set.h"
#include "core/cuts_filter.h"
#include "core/mc2.h"
#include "query/algorithm.h"
#include "traj/database.h"

namespace convoy {

/// Auto-selection threshold: databases with at most this many stored points
/// run exact CMC directly — at that size the CuTS filter's simplification +
/// partition machinery costs more than it saves (the paper's speedups need
/// inputs large enough for snapshot clustering to dominate). Larger inputs
/// get CuTS*, the variant the paper recommends (fastest filter, exact after
/// refinement). Exposed for the planner unit tests.
inline constexpr size_t kAutoExactMaxPoints = 4096;

/// The auto-policy: kCmc when total_points <= kAutoExactMaxPoints (or the
/// database is empty), kCutsStar otherwise.
AlgorithmId ChooseAuto(const DatabaseStats& stats);

/// Whether a plan consulted the engine's simplification cache, and how it
/// answered. kNotApplicable for algorithms that do not simplify (CMC, MC2).
enum class PlanCacheStatus { kNotApplicable, kHit, kMiss };

std::string_view ToString(PlanCacheStatus status);

/// A fully resolved physical plan: which algorithm runs, with which
/// parameters. Produced by ConvoyEngine::Prepare, consumed by
/// ConvoyEngine::Execute, and inspectable via Explain() (the CLI's
/// --explain). A plan stays valid as long as the database it was planned
/// against is unchanged — ConvoyEngine's database is immutable, so plans
/// can be cached and re-executed freely.
struct QueryPlan {
  /// The logical query (m, k, e, num_threads) as given.
  ConvoyQuery query;

  /// What the caller asked for, and what the planner resolved it to.
  AlgorithmChoice requested = AlgorithmChoice::kAuto;
  AlgorithmId algorithm = AlgorithmId::kCutsStar;

  /// Resolved CuTS filter configuration (simplifier/distance set from the
  /// variant; delta and lambda concrete and positive). Meaningful only for
  /// the CuTS family.
  CutsFilterOptions filter;

  /// MC2 parameters (meaningful only when algorithm == kMc2).
  Mc2Options mc2;

  /// Resolved simplification tolerance / partition length, 0 when the
  /// algorithm uses none. *_derived tells EXPLAIN whether the value came
  /// from the Section 7.4 guidelines (ComputeDelta / ComputeLambda) or was
  /// given explicitly.
  double delta = 0.0;
  Tick lambda = 0;
  bool delta_derived = false;
  bool lambda_derived = false;

  /// Did parameter resolution hit the engine's simplification cache?
  PlanCacheStatus cache = PlanCacheStatus::kNotApplicable;

  /// The engine's clustering memo as Prepare found it (Prepare only
  /// looks, Execute fills it): kHit when it held this plan's CuTS filter
  /// clustering, or for CMC and MC2 every tick's clusters at (e, m); the
  /// windows it held under the plan's key; and the bytes it held across
  /// all keys against its budget.
  PlanCacheStatus cluster_memo = PlanCacheStatus::kNotApplicable;
  size_t cluster_memo_windows = 0;
  size_t cluster_memo_bytes = 0;
  size_t cluster_memo_budget = 0;

  /// Snapshot-store provenance: kMiss when planning built the
  /// tick-partitioned store for this database, kHit when a previously
  /// built store was reused (the build-once-query-many steady state),
  /// kNotApplicable when the plan has none: a CuTS plan before any
  /// snapshot-consuming query built one, or a database over the store's
  /// budget.
  /// Execute attaches the same store, so a re-Execute of a prepared plan
  /// performs no per-tick re-derivation at all.
  PlanCacheStatus store_cache = PlanCacheStatus::kNotApplicable;

  /// Store build cost paid by this plan in seconds (0 on reuse), and the
  /// store's shape for EXPLAIN (ticks in the domain, stored points across
  /// all ticks — virtual points included).
  double store_build_seconds = 0.0;
  size_t store_ticks = 0;
  size_t store_points = 0;

  /// The cheap statistics the auto-policy decided on (N, T, point count).
  DatabaseStats db_stats;

  /// Estimated work: how many snapshot/partition clusterings execution will
  /// perform (CMC: T; CuTS: ceil(T / lambda) filter partitions, refinement
  /// excluded — it depends on data the planner has not seen; MC2: T), and
  /// that count scaled by N as a comparable work unit.
  size_t estimated_clusterings = 0;
  double estimated_work = 0.0;

  /// Human-readable plan rendering (the CLI's --explain output): chosen
  /// algorithm and why, resolved parameters and their provenance, cache
  /// hit/miss, database statistics, estimated work, and the algorithm's
  /// capability row.
  std::string Explain() const;
};

}  // namespace convoy

#endif  // CONVOY_QUERY_PLANNER_H_
