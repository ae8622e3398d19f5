#include "core/cuts.h"

#include "core/cuts_refine.h"
#include "core/params.h"
#include "util/stopwatch.h"

namespace convoy {

std::string ToString(CutsVariant variant) {
  switch (variant) {
    case CutsVariant::kCuts:
      return "CuTS";
    case CutsVariant::kCutsPlus:
      return "CuTS+";
    case CutsVariant::kCutsStar:
      return "CuTS*";
  }
  return "?";
}

CutsFilterOptions MakeFilterOptions(CutsVariant variant,
                                    CutsFilterOptions base) {
  switch (variant) {
    case CutsVariant::kCuts:
      base.simplifier = SimplifierKind::kDp;
      base.distance = SegmentDistanceKind::kDll;
      break;
    case CutsVariant::kCutsPlus:
      base.simplifier = SimplifierKind::kDpPlus;
      base.distance = SegmentDistanceKind::kDll;
      break;
    case CutsVariant::kCutsStar:
      base.simplifier = SimplifierKind::kDpStar;
      base.distance = SegmentDistanceKind::kDStar;
      break;
  }
  return base;
}

std::vector<Convoy> Cuts(const TrajectoryDatabase& db,
                         const ConvoyQuery& query, CutsVariant variant,
                         const CutsFilterOptions& base_options,
                         DiscoveryStats* stats) {
  Stopwatch total;
  const CutsFilterOptions options = MakeFilterOptions(variant, base_options);
  Stopwatch phase;
  const double delta =
      options.delta > 0.0 ? options.delta : ComputeDelta(db, query.e);
  const std::vector<SimplifiedTrajectory> simplified =
      SimplifyDatabase(db, delta, options.simplifier, query.num_threads);
  if (stats != nullptr) stats->simplify_seconds += phase.ElapsedSeconds();
  const CutsFilterResult filtered =
      CutsFilterPresimplified(db, query, options, simplified, delta, stats);
  std::vector<Convoy> result = CutsRefine(db, query, filtered, stats);
  if (stats != nullptr) {
    stats->total_seconds = total.ElapsedSeconds();
    stats->num_convoys = result.size();
  }
  return result;
}

}  // namespace convoy
