#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "core/cmc.h"
#include "core/cuts_filter.h"
#include "core/cuts_refine.h"
#include "core/params.h"
#include "core/validate.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

// Span name for the execution of one physical algorithm (string literals —
// TraceEvent never copies names).
const char* AlgorithmSpanName(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kCmc:
      return "algorithm.cmc";
    case AlgorithmId::kCuts:
      return "algorithm.cuts";
    case AlgorithmId::kCutsPlus:
      return "algorithm.cuts+";
    case AlgorithmId::kCutsStar:
      return "algorithm.cuts*";
    case AlgorithmId::kMc2:
      return "algorithm.mc2";
  }
  return "algorithm";
}

// The CuTS variant `id` runs; nullopt for the snapshot algorithms (CMC,
// MC2).
std::optional<CutsVariant> CutsVariantOf(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kCuts:
      return CutsVariant::kCuts;
    case AlgorithmId::kCutsPlus:
      return CutsVariant::kCutsPlus;
    case AlgorithmId::kCutsStar:
      return CutsVariant::kCutsStar;
    case AlgorithmId::kCmc:
    case AlgorithmId::kMc2:
      return std::nullopt;
  }
  return std::nullopt;
}

AlgorithmId IdFor(AlgorithmChoice choice, const DatabaseStats& stats) {
  switch (choice) {
    case AlgorithmChoice::kAuto:
      return ChooseAuto(stats);
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

ConvoyEngine::ConvoyEngine(TrajectoryDatabase db)
    : db_(std::move(db)),
      cluster_memo_(kClusterMemoBytesPerPoint * db_.Stats().total_points) {}

std::shared_ptr<const std::vector<SimplifiedTrajectory>>
ConvoyEngine::SimplifiedFor(SimplifierKind kind, double delta, size_t threads,
                            bool* cache_hit) const {
  const CacheKey key{kind, std::bit_cast<uint64_t>(delta)};
  if (cache_hit != nullptr) *cache_hit = false;
  std::unique_lock<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    // Simplify outside the lock so concurrent queries with other keys
    // (or CMC runs) are not serialized behind this one. A racing miss on
    // the same key recomputes; the first emplace wins.
    lock.unlock();
    auto computed = std::make_shared<const std::vector<SimplifiedTrajectory>>(
        SimplifyDatabase(db_, delta, kind, threads));
    lock.lock();
    it = cache_.emplace(key, std::move(computed)).first;
  } else if (cache_hit != nullptr) {
    *cache_hit = true;
  }
  return it->second;  // entries are immutable; a hit is a pointer copy
}

double ConvoyEngine::DeltaFor(double e, bool* cache_hit) const {
  const uint64_t key = std::bit_cast<uint64_t>(e);
  if (cache_hit != nullptr) *cache_hit = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (const auto it = delta_cache_.find(key); it != delta_cache_.end()) {
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second;
    }
  }
  // Computed outside the lock; a racing miss on the same e computes the
  // same value, and the first insert wins.
  const double delta = ComputeDelta(db_, e);
  std::lock_guard<std::mutex> lock(cache_mu_);
  return delta_cache_.emplace(key, delta).first->second;
}

const DatabaseStats& ConvoyEngine::CachedStats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!db_stats_.has_value()) db_stats_ = db_.Stats();
  return *db_stats_;
}

std::shared_ptr<const SnapshotStore> ConvoyEngine::Store(size_t num_threads,
                                                         bool* reused) const {
  if (reused != nullptr) *reused = false;
  std::unique_lock<std::mutex> lock(cache_mu_);
  if (store_ != nullptr) {
    if (reused != nullptr) *reused = true;
    return store_;
  }
  if (store_declined_) return nullptr;
  lock.unlock();
  // Over-budget databases (sparse feeds whose domain dwarfs their sample
  // count) decline the store rather than OOM-ing the build; callers fall
  // back to the row-oriented path, which needs per-tick scratch only.
  // The decision is remembered so later queries skip the O(N) estimate.
  if (SnapshotStore::EstimateColumnarSlots(db_) > kSnapshotStoreSlotBudget) {
    lock.lock();
    store_declined_ = true;
    return nullptr;
  }
  // Build outside the lock (the pass touches every trajectory) so
  // concurrent queries already holding a store are not serialized behind
  // it. Racing misses both build; the first publish wins.
  auto built = std::make_shared<const SnapshotStore>(
      SnapshotStore::Build(db_, num_threads));
  lock.lock();
  if (store_ == nullptr) store_ = std::move(built);
  return store_;
}

std::shared_ptr<const SnapshotStore> ConvoyEngine::PeekStore() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return store_;
}

StatusOr<QueryPlan> ConvoyEngine::Prepare(const ConvoyQuery& query,
                                          AlgorithmChoice choice,
                                          const CutsFilterOptions& options,
                                          const Mc2Options& mc2,
                                          TraceSession* trace) const {
  CONVOY_RETURN_IF_ERROR(ValidateQuery(query).WithContext("Prepare"));
  CONVOY_RETURN_IF_ERROR(
      ValidateFilterOptions(options).WithContext("Prepare"));
  ScopedSpan prepare_span(trace, "prepare");
  const size_t threads = ResolveThreadCount(query.num_threads);
  QueryPlan plan;
  plan.query = query;
  plan.requested = choice;
  plan.db_stats = CachedStats();
  plan.mc2 = mc2;
  plan.algorithm = IdFor(choice, plan.db_stats);

  // Resolve the snapshot store first. Only snapshot-consuming algorithms
  // (CMC, MC2 — per their capability row) trigger the materialization;
  // building it at Prepare is what makes re-Execute of such a plan free
  // of per-tick re-derivation. CuTS-family plans cluster simplified
  // polylines, not snapshots, so they merely peek: an already-built store
  // lends them its precomputed time domain, but a CuTS-only workload
  // never pays the columnar build.
  const bool builds_store = CapabilitiesOf(plan.algorithm).uses_snapshot_store;
  Stopwatch store_watch;
  bool store_reused = !builds_store;  // a peek never builds
  if (const std::shared_ptr<const SnapshotStore> store =
          builds_store ? Store(threads, &store_reused) : PeekStore()) {
    plan.store_cache =
        store_reused ? PlanCacheStatus::kHit : PlanCacheStatus::kMiss;
    if (!store_reused) {
      plan.store_build_seconds = store_watch.ElapsedSeconds();
      TraceCount(trace, TraceCounter::kStoreTicksBuilt, store->NumTicks());
      TraceCount(trace, TraceCounter::kStorePointsBuilt, store->TotalPoints());
    }
    plan.store_ticks = store->NumTicks();
    plan.store_points = store->TotalPoints();
  }

  const double n = static_cast<double>(plan.db_stats.num_objects);
  const Tick domain = plan.db_stats.time_domain_length;
  const std::optional<CutsVariant> variant = CutsVariantOf(plan.algorithm);
  if (!variant.has_value()) {
    // CMC and MC2 cluster one snapshot per tick; no tunables to resolve.
    // The memo as this plan finds it: a hit holds every tick's clusters.
    PeekMemo(ClusterMemoKey::Snapshots(query), &plan);
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
  // (ComputeDelta, unless given), then the simplification (through the
  // cache), then lambda over the simplified trajectories (ComputeLambda,
  // unless given) — so a plan's execution is bit-identical to Cuts().
  plan.filter = MakeFilterOptions(*variant, options);
  plan.delta_derived = !(plan.filter.delta > 0.0);
  if (plan.delta_derived) {
    bool delta_hit = false;
    plan.delta = DeltaFor(query.e, &delta_hit);
    TraceCount(trace,
               delta_hit ? TraceCounter::kDeltaCacheHits
                         : TraceCounter::kDeltaCacheMisses,
               1);
  } else {
    plan.delta = plan.filter.delta;
  }
  plan.filter.delta = plan.delta;

  std::shared_ptr<const std::vector<SimplifiedTrajectory>> simplified;
  {
    ScopedSpan simplify_span(trace, "prepare.simplify");
    // Shared, immutable: a cache hit is a pointer copy, and lambda
    // resolution below reads through it without duplicating the set.
    bool cache_hit = false;
    simplified = SimplifiedFor(plan.filter.simplifier, plan.delta, threads,
                               &cache_hit);
    plan.cache = cache_hit ? PlanCacheStatus::kHit : PlanCacheStatus::kMiss;
    TraceCount(trace,
               cache_hit ? TraceCounter::kSimplifyCacheHits
                         : TraceCounter::kSimplifyCacheMisses,
               1);
  }

  plan.lambda_derived = plan.filter.lambda <= 0;
  plan.lambda = plan.lambda_derived
                    ? ComputeLambda(db_, *simplified, query.k)
                    : plan.filter.lambda;
  plan.filter.lambda = plan.lambda;

  // The memo as this plan finds it: a hit holds the filter clustering.
  PeekMemo(ClusterMemoKey::Of(plan.filter, query), &plan);

  // ceil(domain / lambda), written so that lambda near the largest Tick
  // cannot overflow.
  const Tick lambda = std::max<Tick>(plan.lambda, 1);
  const size_t partitions =
      domain > 0 ? static_cast<size_t>((domain - 1) / lambda) + 1 : 0;
  plan.estimated_clusterings = partitions;
  plan.estimated_work = static_cast<double>(partitions) * n;
  return plan;
}

void ConvoyEngine::PeekMemo(const ClusterMemoKey& key,
                            QueryPlan* plan) const {
  // Prepare only looks; Execute fills the memo.
  const ClusterMemo::Held held = cluster_memo_.Peek(key);
  const bool hit = key.lambda > 0 ? held.filter : held.windows > 0;
  plan->cluster_memo = hit ? PlanCacheStatus::kHit : PlanCacheStatus::kMiss;
  plan->cluster_memo_windows = held.windows;
  plan->cluster_memo_bytes = cluster_memo_.Bytes();
  plan->cluster_memo_budget = cluster_memo_.budget();
}

std::vector<Convoy> ConvoyEngine::Dispatch(const QueryPlan& plan,
                                           const ExecHooks& hooks,
                                           DiscoveryStats* stats) const {
  const size_t threads = ResolveThreadCount(plan.query.num_threads);
  // CMC and MC2 share their per-tick clusterings, filed under one key.
  const MemoSlot snapshots{&cluster_memo_,
                           ClusterMemoKey::Snapshots(plan.query)};
  switch (plan.algorithm) {
    case AlgorithmId::kCmc: {
      // The store is a cache hit in the steady state (Prepare built it; a
      // hand-built plan pays here). Over the store's budget there is none
      // and CMC gathers each tick from the rows; the results are
      // bit-identical either way (tests/store_parity_test.cc), and so are
      // the clusters either path files in the memo.
      if (const std::shared_ptr<const SnapshotStore> store = Store(threads)) {
        return Cmc(*store, plan.query, CmcOptions{}, stats, &hooks,
                   &snapshots);
      }
      return Cmc(db_, plan.query, CmcOptions{}, stats, &hooks, &snapshots);
    }
    case AlgorithmId::kCuts:
    case AlgorithmId::kCutsPlus:
    case AlgorithmId::kCutsStar: {
      // Normally a cache hit (Prepare primed the entry); on a miss — a
      // hand-built plan, or an engine whose cache was raced — the time is
      // real simplification work of this execution.
      bool cache_hit = false;
      Stopwatch simplify_watch;
      const std::shared_ptr<const std::vector<SimplifiedTrajectory>>
          simplified = SimplifiedFor(plan.filter.simplifier, plan.delta,
                                     threads, &cache_hit);
      if (!cache_hit) {
        stats->simplify_seconds += simplify_watch.ElapsedSeconds();
      }
      // The filter borrows the immutable cache entry, and an already-built
      // store's time domain without building one. Both steps cluster only
      // what the memo lacks under the plan's key; filter + refinement is
      // bit-identical to the free Cuts(). A hand-built plan whose lambda
      // is left to the filter has no key (lambda would follow k).
      CutsFilterOptions resolved = plan.filter;
      resolved.delta = plan.delta;
      const MemoSlot slot{&cluster_memo_,
                          ClusterMemoKey::Of(resolved, plan.query)};
      const MemoSlot* const memo = resolved.lambda > 0 ? &slot : nullptr;
      const CutsFilterResult filtered = CutsFilterPresimplified(
          db_, plan.query, plan.filter, *simplified, plan.delta, stats,
          &hooks, PeekStore().get(), memo);
      return CutsRefine(db_, plan.query, filtered, stats, &hooks, memo);
    }
    case AlgorithmId::kMc2:
      if (const std::shared_ptr<const SnapshotStore> store = Store(threads)) {
        return Mc2(*store, plan.query, plan.mc2, &hooks, &snapshots);
      }
      return Mc2(db_, plan.query, plan.mc2, &hooks, &snapshots);
  }
  return {};
}

StatusOr<ConvoyResultSet> ConvoyEngine::Execute(const QueryPlan& plan,
                                                ExecHooks hooks) const {
  Stopwatch total;
  DiscoveryStats stats;
  TraceSession* const trace = hooks.trace;
  std::vector<Convoy> convoys;
  {
    ScopedSpan execute_span(trace, "execute");
    ScopedSpan algo_span(trace, AlgorithmSpanName(plan.algorithm));
    convoys = Dispatch(plan, hooks, &stats);
  }

  stats.num_convoys = convoys.size();
  stats.total_seconds = total.ElapsedSeconds();
  ConvoyResultSet result(std::move(convoys), stats, plan);
  // Snapshot the whole session — planning spans included when the caller
  // traced Prepare with the same session. The algorithm's workers have
  // joined by here, so the merge sees complete, quiescent buffers.
  if (trace != nullptr) result.set_metrics(trace->Metrics());
  return result;
}

}  // namespace convoy
