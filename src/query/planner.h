#ifndef CONVOY_QUERY_PLANNER_H_
#define CONVOY_QUERY_PLANNER_H_

#include <cstddef>
#include <functional>
#include <string>

#include "core/convoy_set.h"
#include "core/cuts_filter.h"
#include "core/mc2.h"
#include "query/algorithm.h"
#include "query/exec_context.h"
#include "traj/database.h"
#include "util/status.h"

namespace convoy {

class TraceSession;

/// Auto-selection threshold: databases with at most this many stored points
/// run exact CMC directly — at that size the CuTS filter's simplification +
/// partition machinery costs more than it saves (the paper's speedups need
/// inputs large enough for snapshot clustering to dominate). Larger inputs
/// get CuTS*, the variant the paper recommends (fastest filter, exact after
/// refinement). Exposed for the planner unit tests.
inline constexpr size_t kAutoExactMaxPoints = 4096;

/// Whether a plan consulted the engine's simplification cache, and how it
/// answered. kNotApplicable for algorithms that do not simplify (CMC, MC2)
/// and for planners running without a cache.
enum class PlanCacheStatus { kNotApplicable, kHit, kMiss };

std::string_view ToString(PlanCacheStatus status);

/// A fully resolved physical plan: which algorithm runs, with which
/// parameters. Produced by QueryPlanner / ConvoyEngine::Prepare, consumed
/// by ConvoyEngine::Execute, and inspectable via Explain() (the CLI's
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

  /// Snapshot-store provenance: kMiss when planning built the
  /// tick-partitioned store for this database, kHit when a previously
  /// built store was reused (the build-once-query-many steady state),
  /// kNotApplicable when planning ran without an engine-bound store.
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

/// Options for constructing a QueryPlanner outside an engine (the engine
/// binds its own cache and memoized statistics).
struct PlannerOptions {
  /// Simplification source for delta/lambda resolution. Empty: simplify
  /// directly (uncached) and report PlanCacheStatus::kNotApplicable.
  SimplificationProvider simplify;

  /// Source of ComputeDelta(db, e) for CuTS plans that derive delta (the
  /// engine's per-e memo). Empty: computed per plan.
  std::function<double(double e)> delta;

  /// SnapshotStore source (the engine's generation-keyed cache). Empty:
  /// plans report store_cache = kNotApplicable and CMC / MC2 gather from
  /// the rows.
  SnapshotStoreProvider store;

  /// Precomputed database statistics; null: computed on construction.
  const DatabaseStats* db_stats = nullptr;

  /// Optional trace (obs/trace.h): Plan() records "prepare" /
  /// "prepare.simplify" spans and the simplification-cache + store-build
  /// counters into it. Null = planning is untraced (the default).
  TraceSession* trace = nullptr;
};

/// Resolves a (ConvoyQuery, AlgorithmChoice) pair into a QueryPlan:
/// validates nothing (see ConvoyEngine::Prepare for the validating entry
/// point), picks the physical algorithm — honouring an explicit choice,
/// otherwise applying the auto-policy over database statistics — and
/// resolves delta/lambda through the Section 7.4 guidelines for the CuTS
/// family, priming the simplification cache it was constructed with.
class QueryPlanner {
 public:
  explicit QueryPlanner(const TrajectoryDatabase& db,
                        PlannerOptions options = {});

  /// Builds the plan. Deterministic: same database, query, choice, and
  /// options always produce the same plan (modulo cache and store
  /// provenance).
  QueryPlan Plan(const ConvoyQuery& query,
                 AlgorithmChoice choice = AlgorithmChoice::kAuto,
                 const CutsFilterOptions& base_options = {},
                 const Mc2Options& mc2 = {}) const;

  /// The auto-policy, exposed for tests: kCmc when total_points <=
  /// kAutoExactMaxPoints (or the database is empty), kCutsStar otherwise.
  static AlgorithmId ChooseAuto(const DatabaseStats& stats);

  const DatabaseStats& db_stats() const { return db_stats_; }

 private:
  const TrajectoryDatabase& db_;
  SimplificationProvider simplify_;
  std::function<double(double e)> delta_;
  SnapshotStoreProvider store_;
  DatabaseStats db_stats_;
  TraceSession* trace_ = nullptr;
};

}  // namespace convoy

#endif  // CONVOY_QUERY_PLANNER_H_
