#include "query/planner.h"

#include <cmath>
#include <sstream>

#include "core/cuts.h"
#include "core/params.h"
#include "obs/trace.h"
#include "traj/snapshot_store.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

bool IsCutsFamily(AlgorithmId id) {
  return id == AlgorithmId::kCuts || id == AlgorithmId::kCutsPlus ||
         id == AlgorithmId::kCutsStar;
}

CutsVariant VariantFor(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kCuts:
      return CutsVariant::kCuts;
    case AlgorithmId::kCutsPlus:
      return CutsVariant::kCutsPlus;
    default:
      return CutsVariant::kCutsStar;
  }
}

AlgorithmId IdFor(AlgorithmChoice choice, const DatabaseStats& stats) {
  switch (choice) {
    case AlgorithmChoice::kAuto:
      return QueryPlanner::ChooseAuto(stats);
    case AlgorithmChoice::kCmc:
      return AlgorithmId::kCmc;
    case AlgorithmChoice::kCuts:
      return AlgorithmId::kCuts;
    case AlgorithmChoice::kCutsPlus:
      return AlgorithmId::kCutsPlus;
    case AlgorithmChoice::kCutsStar:
      return AlgorithmId::kCutsStar;
    case AlgorithmChoice::kMc2:
      return AlgorithmId::kMc2;
  }
  return AlgorithmId::kCutsStar;
}

}  // namespace

std::string_view ToString(PlanCacheStatus status) {
  switch (status) {
    case PlanCacheStatus::kNotApplicable:
      return "n/a";
    case PlanCacheStatus::kHit:
      return "hit";
    case PlanCacheStatus::kMiss:
      return "miss";
  }
  return "?";
}

AlgorithmId QueryPlanner::ChooseAuto(const DatabaseStats& stats) {
  // Tiny inputs: the CuTS machinery (simplification, partitioning,
  // refinement bookkeeping) costs more than the snapshot clustering it
  // avoids — run the exact baseline directly. Everything else: CuTS*, the
  // paper's recommended variant (tightest filter, exact after refinement).
  return stats.total_points <= kAutoExactMaxPoints ? AlgorithmId::kCmc
                                                   : AlgorithmId::kCutsStar;
}

QueryPlanner::QueryPlanner(const TrajectoryDatabase& db,
                           PlannerOptions options)
    : db_(db),
      simplify_(std::move(options.simplify)),
      delta_(std::move(options.delta)),
      store_(std::move(options.store)),
      trace_(options.trace) {
  db_stats_ = options.db_stats != nullptr ? *options.db_stats : db.Stats();
}

QueryPlan QueryPlanner::Plan(const ConvoyQuery& query, AlgorithmChoice choice,
                             const CutsFilterOptions& base_options,
                             const Mc2Options& mc2) const {
  ScopedSpan prepare_span(trace_, "prepare");
  QueryPlan plan;
  plan.query = query;
  plan.requested = choice;
  plan.db_stats = db_stats_;
  plan.mc2 = mc2;
  plan.algorithm = IdFor(choice, db_stats_);

  // Resolve the snapshot store first. Only snapshot-consuming algorithms
  // (CMC, MC2 — per their capability row) trigger the materialization;
  // building it at Prepare is what makes re-Execute of such a plan free
  // of per-tick re-derivation. CuTS-family plans cluster simplified
  // polylines, not snapshots, so they merely peek: an already-built store
  // lends them its precomputed time domain, but a CuTS-only workload
  // never pays the columnar build.
  if (store_) {
    const bool consumes_snapshots =
        GetAlgorithm(plan.algorithm).Capabilities().uses_snapshot_store;
    Stopwatch store_watch;
    bool reused = false;
    if (const std::shared_ptr<const SnapshotStore> store =
            store_(consumes_snapshots, &reused)) {
      plan.store_cache =
          reused ? PlanCacheStatus::kHit : PlanCacheStatus::kMiss;
      if (!reused) {
        plan.store_build_seconds = store_watch.ElapsedSeconds();
        TraceCount(trace_, TraceCounter::kStoreTicksBuilt, store->NumTicks());
        TraceCount(trace_, TraceCounter::kStorePointsBuilt,
                   store->TotalPoints());
      }
      plan.store_ticks = store->NumTicks();
      plan.store_points = store->TotalPoints();
    }
  }

  const double n = static_cast<double>(db_stats_.num_objects);
  const Tick domain = db_stats_.time_domain_length;

  if (!IsCutsFamily(plan.algorithm)) {
    // CMC and MC2 cluster one snapshot per tick; no tunables to resolve.
    plan.estimated_clusterings = static_cast<size_t>(domain);
    // A bound store has already materialized every per-tick alive count,
    // so the work unit is exact — the sum of snapshot sizes the hot path
    // will actually cluster and label-intersect; without one, N * T is
    // the upper bound (every object alive at every tick).
    plan.estimated_work = plan.store_points > 0
                              ? static_cast<double>(plan.store_points)
                              : static_cast<double>(domain) * n;
    return plan;
  }

  // Resolve the variant's filter configuration, then the two Section 7.4
  // tunables in the order the free Cuts() resolves them: delta first
  // (ComputeDelta, unless given), then the simplification (via the cache
  // when one is bound), then lambda over the simplified trajectories
  // (ComputeLambda, unless given) — so a plan's execution is bit-identical
  // to Cuts().
  plan.filter = MakeFilterOptions(VariantFor(plan.algorithm), base_options);
  plan.delta_derived = !(plan.filter.delta > 0.0);
  if (!plan.delta_derived) {
    plan.delta = plan.filter.delta;
  } else {
    plan.delta = delta_ ? delta_(query.e) : ComputeDelta(db_, query.e);
  }
  plan.filter.delta = plan.delta;

  std::shared_ptr<const std::vector<SimplifiedTrajectory>> simplified;
  bool cache_hit = false;
  {
    ScopedSpan simplify_span(trace_, "prepare.simplify");
    if (simplify_) {
      // Shared, immutable: a cache hit is a pointer copy, and lambda
      // resolution below reads through it without duplicating the set.
      simplified = simplify_(plan.filter.simplifier, plan.delta, &cache_hit);
      plan.cache = cache_hit ? PlanCacheStatus::kHit : PlanCacheStatus::kMiss;
      TraceCount(trace_,
                 cache_hit ? TraceCounter::kSimplifyCacheHits
                           : TraceCounter::kSimplifyCacheMisses,
                 1);
    } else {
      simplified = std::make_shared<const std::vector<SimplifiedTrajectory>>(
          SimplifyDatabase(db_, plan.delta, plan.filter.simplifier,
                           ResolveWorkerThreads(plan.filter.num_threads,
                                                query)));
    }
  }

  plan.lambda_derived = plan.filter.lambda <= 0;
  plan.lambda = plan.lambda_derived
                    ? ComputeLambda(db_, *simplified, query.k)
                    : plan.filter.lambda;
  plan.filter.lambda = plan.lambda;

  const Tick lambda = std::max<Tick>(plan.lambda, 1);
  const size_t partitions =
      domain > 0 ? static_cast<size_t>((domain + lambda - 1) / lambda) : 0;
  plan.estimated_clusterings = partitions;
  plan.estimated_work = static_cast<double>(partitions) * n;
  return plan;
}

std::string QueryPlan::Explain() const {
  const ConvoyAlgorithm& algo = GetAlgorithm(algorithm);
  const AlgorithmCapabilities caps = algo.Capabilities();
  std::ostringstream out;

  out << "plan\n";
  out << "  algorithm:   " << algo.Name();
  if (requested == AlgorithmChoice::kAuto) {
    out << " (auto: " << db_stats.total_points
        << (db_stats.total_points <= kAutoExactMaxPoints ? " points <= "
                                                         : " points > ")
        << kAutoExactMaxPoints << ")";
  } else {
    out << " (explicit)";
  }
  out << "\n";
  out << "  query:       m=" << query.m << " k=" << query.k << " e=" << query.e
      << " threads=" << query.num_threads << "\n";
  out << "  database:    N=" << db_stats.num_objects << " T="
      << db_stats.time_domain_length << " points=" << db_stats.total_points
      << "\n";
  // Store provenance: "built" = this plan paid the one-time columnar
  // build, "reused" = served from the engine's generation-keyed cache.
  out << "  snapshot store: ";
  if (store_cache == PlanCacheStatus::kNotApplicable) {
    out << "n/a (row-oriented path)\n";
  } else {
    out << (store_cache == PlanCacheStatus::kHit ? "reused" : "built")
        << " (" << store_ticks << " ticks, " << store_points
        << " columnar points)\n";
  }
  if (caps.uses_simplification) {
    out << "  delta:       " << delta
        << (delta_derived ? " (derived, Sec. 7.4 guideline)" : " (given)")
        << "\n";
    out << "  lambda:      " << lambda
        << (lambda_derived ? " (derived, Sec. 7.4 guideline)" : " (given)")
        << "\n";
    out << "  simplification cache: " << ToString(cache) << "\n";
    out << "  estimated work: " << estimated_clusterings
        << " partition clustering(s), ~" << estimated_work
        << " object-clustering units (refinement excluded)\n";
  } else {
    out << "  delta:       n/a\n  lambda:      n/a\n";
    out << "  estimated work: " << estimated_clusterings
        << " snapshot clustering(s), ~" << estimated_work
        << " object-clustering units"
        << (store_points > 0 ? " (exact columnar alive counts)"
                             : " (N*T upper bound)")
        << "\n";
  }
  out << "  capabilities: " << (caps.exact ? "exact" : "approximate");
  if (caps.uses_simplification) out << ", simplification";
  if (caps.supports_cancel) out << ", cancel";
  if (caps.supports_progress) out << ", progress";
  if (caps.supports_incremental) out << ", incremental";
  if (caps.supports_threads) out << ", threads";
  out << "\n";
  return out.str();
}

}  // namespace convoy
