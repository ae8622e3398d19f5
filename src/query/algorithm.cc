#include "query/algorithm.h"

#include <memory>
#include <utility>

#include "core/cmc.h"
#include "core/cuts.h"
#include "core/cuts_filter.h"
#include "core/cuts_refine.h"
#include "core/mc2.h"
#include "query/planner.h"

namespace convoy {

namespace {

/// Exact CMC (paper Algorithm 1) behind the uniform interface. Cmc takes
/// its threads from the plan's query.num_threads and is result-identical
/// at every count.
class CmcAlgorithm final : public ConvoyAlgorithm {
 public:
  std::string_view Name() const override { return "CMC"; }
  AlgorithmId Id() const override { return AlgorithmId::kCmc; }
  AlgorithmCapabilities Capabilities() const override {
    AlgorithmCapabilities caps;
    caps.exact = true;
    caps.uses_simplification = false;
    caps.uses_snapshot_store = true;
    caps.supports_cancel = true;
    caps.supports_progress = true;
    caps.supports_incremental = true;
    caps.supports_threads = true;
    return caps;
  }
  std::vector<Convoy> Run(const ExecContext& ctx) const override {
    // The store-backed path reuses the engine's columnar snapshots and
    // cached per-tick grid indexes; without a store (planner-only
    // contexts) the row-oriented derivation runs. Bit-identical results
    // either way (tests/store_parity_test.cc).
    if (ctx.store != nullptr) {
      return Cmc(*ctx.store, ctx.plan->query, CmcOptions{}, ctx.stats,
                 &ctx.hooks, &ctx.scratch);
    }
    return Cmc(*ctx.db, ctx.plan->query, CmcOptions{}, ctx.stats, &ctx.hooks,
               &ctx.scratch);
  }
};

/// The CuTS filter-and-refine family (paper Algorithms 2-3); one instance
/// per variant. Pulls the simplified trajectories from the context's
/// provider (the engine's cache), then runs CutsFilterPresimplified +
/// CutsRefine — results are bit-identical to the free Cuts() function.
class CutsAlgorithm final : public ConvoyAlgorithm {
 public:
  CutsAlgorithm(std::string_view name, AlgorithmId id)
      : name_(name), id_(id) {}

  std::string_view Name() const override { return name_; }
  AlgorithmId Id() const override { return id_; }
  AlgorithmCapabilities Capabilities() const override {
    AlgorithmCapabilities caps;
    caps.exact = true;  // refinement removes every false hit
    caps.uses_simplification = true;
    caps.uses_snapshot_store = false;  // polylines, not snapshots
    caps.supports_cancel = true;
    caps.supports_progress = true;
    caps.supports_incremental = true;
    caps.supports_threads = true;
    return caps;
  }
  std::vector<Convoy> Run(const ExecContext& ctx) const override {
    const QueryPlan& plan = *ctx.plan;
    const CutsFilterOptions& options = plan.filter;
    // The filter takes ownership of its copy (it returns the simplified
    // set in its result); the cache entry itself stays immutable.
    std::vector<SimplifiedTrajectory> simplified =
        *ctx.simplified(options.simplifier, plan.delta, nullptr);
    CheckCancelled(&ctx.hooks);
    const CutsFilterResult filtered = CutsFilterPresimplified(
        *ctx.db, plan.query, options, std::move(simplified), plan.delta,
        ctx.stats, &ctx.hooks, ctx.store.get());
    return CutsRefine(*ctx.db, plan.query, filtered, ctx.stats,
                      ResolveWorkerThreads(options.refine_threads, plan.query),
                      &ctx.hooks);
  }

 private:
  std::string_view name_;
  AlgorithmId id_;
};

/// The approximate moving-cluster baseline. Kept for workloads that accept
/// Appendix B.1's error rates in exchange for skipping refinement; the
/// planner never auto-selects it.
class Mc2Algorithm final : public ConvoyAlgorithm {
 public:
  std::string_view Name() const override { return "MC2"; }
  AlgorithmId Id() const override { return AlgorithmId::kMc2; }
  AlgorithmCapabilities Capabilities() const override {
    AlgorithmCapabilities caps;
    caps.exact = false;  // false positives and negatives by design
    caps.uses_simplification = false;
    caps.uses_snapshot_store = true;
    caps.supports_cancel = false;  // single uninterruptible pass
    caps.supports_progress = false;
    caps.supports_incremental = false;
    caps.supports_threads = false;
    return caps;
  }
  std::vector<Convoy> Run(const ExecContext& ctx) const override {
    std::vector<Convoy> result =
        ctx.store != nullptr ? Mc2(*ctx.store, ctx.plan->query, ctx.plan->mc2)
                             : Mc2(*ctx.db, ctx.plan->query, ctx.plan->mc2);
    if (ctx.stats != nullptr) ctx.stats->num_convoys = result.size();
    return result;
  }
};

struct Registry {
  CmcAlgorithm cmc;
  CutsAlgorithm cuts{"CuTS", AlgorithmId::kCuts};
  CutsAlgorithm cuts_plus{"CuTS+", AlgorithmId::kCutsPlus};
  CutsAlgorithm cuts_star{"CuTS*", AlgorithmId::kCutsStar};
  Mc2Algorithm mc2;
  std::vector<const ConvoyAlgorithm*> all{&cmc, &cuts, &cuts_plus, &cuts_star,
                                          &mc2};
};

const Registry& GetRegistry() {
  static const Registry registry;
  return registry;
}

}  // namespace

const ConvoyAlgorithm& GetAlgorithm(AlgorithmId id) {
  const Registry& r = GetRegistry();
  switch (id) {
    case AlgorithmId::kCmc:
      return r.cmc;
    case AlgorithmId::kCuts:
      return r.cuts;
    case AlgorithmId::kCutsPlus:
      return r.cuts_plus;
    case AlgorithmId::kCutsStar:
      return r.cuts_star;
    case AlgorithmId::kMc2:
      return r.mc2;
  }
  return r.cuts_star;  // unreachable for in-range enum values
}

const std::vector<const ConvoyAlgorithm*>& AllAlgorithms() {
  return GetRegistry().all;
}

std::string_view ToString(AlgorithmId id) { return GetAlgorithm(id).Name(); }

std::string_view ToString(AlgorithmChoice choice) {
  switch (choice) {
    case AlgorithmChoice::kAuto:
      return "auto";
    case AlgorithmChoice::kCmc:
      return "CMC";
    case AlgorithmChoice::kCuts:
      return "CuTS";
    case AlgorithmChoice::kCutsPlus:
      return "CuTS+";
    case AlgorithmChoice::kCutsStar:
      return "CuTS*";
    case AlgorithmChoice::kMc2:
      return "MC2";
  }
  return "?";
}

std::optional<AlgorithmChoice> ParseAlgorithmChoice(std::string_view name) {
  if (name == "auto") return AlgorithmChoice::kAuto;
  if (name == "cmc") return AlgorithmChoice::kCmc;
  if (name == "cuts") return AlgorithmChoice::kCuts;
  if (name == "cuts+") return AlgorithmChoice::kCutsPlus;
  if (name == "cuts*") return AlgorithmChoice::kCutsStar;
  if (name == "mc2") return AlgorithmChoice::kMc2;
  return std::nullopt;
}

}  // namespace convoy
