#ifndef CONVOY_CORE_CUTS_H_
#define CONVOY_CORE_CUTS_H_

#include <string>
#include <vector>

#include "core/convoy_set.h"
#include "core/cuts_filter.h"
#include "core/discovery_stats.h"
#include "traj/database.h"

namespace convoy {

/// The three filter-and-refine convoy discovery algorithms of the paper.
enum class CutsVariant {
  kCuts,      ///< DP simplification + DLL distance bound (Section 5)
  kCutsPlus,  ///< DP+ simplification + DLL distance bound (Section 6.1)
  kCutsStar,  ///< DP* simplification + D* distance bound (Section 6.2)
};

/// Human-readable variant name ("CuTS", "CuTS+", "CuTS*").
std::string ToString(CutsVariant variant);

/// Maps a variant to its filter configuration (simplifier + distance);
/// the remaining fields of `base` (delta, lambda, toggles) are preserved.
CutsFilterOptions MakeFilterOptions(CutsVariant variant,
                                    CutsFilterOptions base = {});

/// Convoy discovery with trajectory simplification (paper Sections 5-6):
/// simplifies the trajectories, finds candidate convoys by clustering the
/// simplified polylines per time partition, and refines the candidates
/// with CMC over their merged windows, clustering only the objects the
/// filter clustered (CutsRefine). Returns exactly the convoys CMC returns
/// on the same query — the filter's distance bounds guarantee no false
/// dismissals, and the refinement removes all false hits.
std::vector<Convoy> Cuts(const TrajectoryDatabase& db,
                         const ConvoyQuery& query,
                         CutsVariant variant = CutsVariant::kCutsStar,
                         const CutsFilterOptions& base_options = {},
                         DiscoveryStats* stats = nullptr);

}  // namespace convoy

#endif  // CONVOY_CORE_CUTS_H_
