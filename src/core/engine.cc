#include "core/engine.h"

#include <bit>
#include <utility>

#include "core/cuts_filter.h"
#include "core/params.h"
#include "core/validate.h"
#include "obs/trace.h"
#include "query/algorithm.h"
#include "util/cancel.h"
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

}  // namespace

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
    // Relaxed (both counters): independent monotone tallies surfaced by
    // StoreMetrics, which tolerates missing in-flight increments; they
    // order nothing — the cache entry itself is published under cache_mu_.
    simplify_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (cache_hit != nullptr) *cache_hit = true;
    simplify_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;  // entries are immutable; a hit is a pointer copy
}

double ConvoyEngine::DeltaFor(double e) const {
  const uint64_t key = std::bit_cast<uint64_t>(e);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (const auto it = delta_cache_.find(key); it != delta_cache_.end()) {
      // Relaxed: an independent monotone tally, like the
      // simplification-cache counters; it orders nothing.
      delta_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Computed outside the lock; a racing miss on the same e computes the
  // same value, and the first insert wins.
  const double delta = ComputeDelta(db_, e);
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Relaxed: the same kind of tally as the hits above.
  delta_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  return delta_cache_.emplace(key, delta).first->second;
}

const DatabaseStats& ConvoyEngine::CachedStats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!db_stats_.has_value() || db_stats_generation_ != db_.generation()) {
    db_stats_ = db_.Stats();
    db_stats_generation_ = db_.generation();
  }
  return *db_stats_;
}

std::shared_ptr<const SnapshotStore> ConvoyEngine::Store(size_t num_threads,
                                                         bool* reused) const {
  if (reused != nullptr) *reused = false;
  std::unique_lock<std::mutex> lock(cache_mu_);
  if (store_ != nullptr && !store_->IsStaleFor(db_)) {
    if (reused != nullptr) *reused = true;
    return store_;
  }
  if (store_declined_generation_ == db_.generation()) return nullptr;
  lock.unlock();
  // Over-budget databases (sparse feeds whose domain dwarfs their sample
  // count) decline the store rather than OOM-ing the build; callers fall
  // back to the row-oriented path, which needs per-tick scratch only.
  // The decision is remembered per generation so later queries skip the
  // O(N) estimate.
  if (SnapshotStore::EstimateColumnarSlots(db_) > kSnapshotStoreSlotBudget) {
    lock.lock();
    store_declined_generation_ = db_.generation();
    return nullptr;
  }
  // Build outside the lock (the pass touches every trajectory) so
  // concurrent queries already holding a store are not serialized behind
  // it. Racing misses both build; the first publish wins.
  auto built = std::make_shared<const SnapshotStore>(
      SnapshotStore::Build(db_, num_threads));
  lock.lock();
  if (store_ == nullptr || store_->IsStaleFor(db_)) store_ = built;
  return store_;
}

std::shared_ptr<const SnapshotStore> ConvoyEngine::PeekStore() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return store_ != nullptr && !store_->IsStaleFor(db_) ? store_ : nullptr;
}

EngineStoreMetrics ConvoyEngine::StoreMetrics() const {
  EngineStoreMetrics m;
  // Any fresh-enough store, even mid-build races: the counters live in the
  // store itself, so whichever instance the engine currently publishes
  // carries the traffic it has served.
  if (const std::shared_ptr<const SnapshotStore> store = PeekStore()) {
    m.store = store->CacheMetrics();
  }
  // Relaxed loads: tally reads need no ordering with the cache they
  // describe (see the fetch_add sites in SimplifiedFor).
  m.simplify_cache_hits =
      simplify_cache_hits_.load(std::memory_order_relaxed);
  m.simplify_cache_misses =
      simplify_cache_misses_.load(std::memory_order_relaxed);
  m.delta_cache_hits = delta_cache_hits_.load(std::memory_order_relaxed);
  m.delta_cache_misses = delta_cache_misses_.load(std::memory_order_relaxed);
  return m;
}

StatusOr<QueryPlan> ConvoyEngine::Prepare(const ConvoyQuery& query,
                                          AlgorithmChoice choice,
                                          const CutsFilterOptions& options,
                                          const Mc2Options& mc2,
                                          TraceSession* trace) const {
  CONVOY_RETURN_IF_ERROR(ValidateQuery(query).WithContext("Prepare"));
  CONVOY_RETURN_IF_ERROR(
      ValidateFilterOptions(options).WithContext("Prepare"));
  PlannerOptions planner_options;
  planner_options.db_stats = &CachedStats();
  planner_options.trace = trace;
  planner_options.simplify = [this, &query, &options](
                                 SimplifierKind kind, double delta,
                                 bool* hit) {
    return SimplifiedFor(kind, delta,
                         ResolveWorkerThreads(options.num_threads, query),
                         hit);
  };
  planner_options.delta = [this](double e) { return DeltaFor(e); };
  planner_options.store = [this, &query, &options](bool build_if_missing,
                                                   bool* reused) {
    if (build_if_missing) {
      return Store(ResolveWorkerThreads(options.num_threads, query), reused);
    }
    std::shared_ptr<const SnapshotStore> peeked = PeekStore();
    if (reused != nullptr) *reused = peeked != nullptr;
    return peeked;
  };
  const QueryPlanner planner(db_, std::move(planner_options));
  return planner.Plan(query, choice, options, mc2);
}

ConvoyResultSet ConvoyEngine::RunPlan(const QueryPlan& plan,
                                      const ExecHooks& hooks) const {
  Stopwatch total;
  hooks.cancel.ThrowIfCancelled();

  DiscoveryStats stats;
  TraceSession* const trace = hooks.trace;
  ExecContext ctx;
  ctx.db = &db_;
  ctx.plan = &plan;
  ctx.hooks = hooks;
  ctx.stats = &stats;
  if (trace != nullptr && ctx.hooks.sink) {
    // Wrap the caller's sink with emission telemetry: time-to-first-convoy
    // and inter-emission delay (both measured from the execution, on the
    // sequential emission pass), plus the emitted-convoy counter. Batch
    // counts are deterministic — emission order is — but the delays are
    // wall-clock like every Observe'd series.
    ctx.hooks.sink = [trace, inner = std::move(ctx.hooks.sink),
                      start_ns = trace->NowNs(),
                      last_ns = std::make_shared<std::optional<uint64_t>>()](
                         std::vector<Convoy>&& batch) {
      trace->Count(TraceCounter::kConvoysEmitted, batch.size());
      const uint64_t now = trace->NowNs();
      if (!last_ns->has_value()) {
        trace->Observe("sink.time_to_first_convoy_ms",
                       static_cast<double>(now - start_ns) / 1e6);
      } else {
        trace->Observe("sink.inter_emission_ms",
                       static_cast<double>(now - **last_ns) / 1e6);
      }
      *last_ns = now;
      inner(std::move(batch));
    };
  }
  // Snapshot-consuming algorithms get the store built (a cache hit in the
  // steady state — Prepare already did it; a hand-built plan pays here);
  // the CuTS family only borrows an existing one for its time domain.
  ctx.store = GetAlgorithm(plan.algorithm).Capabilities().uses_snapshot_store
                  ? Store(ResolveWorkerThreads(0, plan.query))
                  : PeekStore();
  ctx.simplified = [this, &plan, &stats](SimplifierKind kind, double delta,
                                         bool* hit) {
    // Normally a cache hit (Prepare primed the entry); on a miss — a
    // hand-built plan, or an engine whose cache was raced — the time is
    // real simplification work of this execution.
    bool local_hit = false;
    Stopwatch simplify_watch;
    std::shared_ptr<const std::vector<SimplifiedTrajectory>> result =
        SimplifiedFor(
            kind, delta,
            ResolveWorkerThreads(plan.filter.num_threads, plan.query),
            &local_hit);
    if (!local_hit) stats.simplify_seconds += simplify_watch.ElapsedSeconds();
    if (hit != nullptr) *hit = local_hit;
    return result;
  };

  std::vector<Convoy> convoys;
  {
    ScopedSpan execute_span(trace, "execute");
    ScopedSpan algo_span(trace, AlgorithmSpanName(plan.algorithm));
    convoys = GetAlgorithm(plan.algorithm).Run(ctx);
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

StatusOr<ConvoyResultSet> ConvoyEngine::Execute(const QueryPlan& plan,
                                                ExecHooks hooks) const {
  try {
    return RunPlan(plan, hooks);
  } catch (const CancelledError&) {
    return Status::Cancelled("query cancelled by CancelToken (" +
                             std::string(ToString(plan.algorithm)) + ")");
  }
}

}  // namespace convoy
