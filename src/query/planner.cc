#include "query/planner.h"

#include <sstream>

namespace convoy {

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

AlgorithmId ChooseAuto(const DatabaseStats& stats) {
  // Tiny inputs: the CuTS machinery (simplification, partitioning,
  // refinement bookkeeping) costs more than the snapshot clustering it
  // avoids — run the exact baseline directly. Everything else: CuTS*, the
  // paper's recommended variant (tightest filter, exact after refinement).
  return stats.total_points <= kAutoExactMaxPoints ? AlgorithmId::kCmc
                                                   : AlgorithmId::kCutsStar;
}

std::string QueryPlan::Explain() const {
  const AlgorithmCapabilities caps = CapabilitiesOf(algorithm);
  std::ostringstream out;

  out << "plan\n";
  out << "  algorithm:   " << ToString(algorithm);
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
  // build, "reused" = served from the engine's cached store.
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
    out << "  clustering memo: " << ToString(cluster_memo) << " ("
        << (cluster_memo == PlanCacheStatus::kHit ? "filter + " : "")
        << cluster_memo_windows << " refinement window(s); "
        << cluster_memo_bytes << " of " << cluster_memo_budget
        << " bytes held)\n";
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
  if (caps.supports_threads) out << ", threads";
  out << "\n";
  return out.str();
}

}  // namespace convoy
