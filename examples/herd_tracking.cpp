// Wildlife / livestock herd tracking — the paper's Cattle dataset setting:
// GPS ear-tags sampled every second over many hours, tiny population,
// strong grouping. Demonstrates the Section 7.4 parameter guidelines
// (auto-derived delta and lambda) and the simplification trade-offs that
// dominate this workload shape (paper Figure 13, Cattle panel).
//
//   $ ./build/examples/herd_tracking [seed]

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "convoy/convoy.h"

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 19;

  const convoy::ScenarioData data = convoy::GenerateScenario(
      convoy::CattleLikeConfig(/*time_scale=*/0.05), seed);
  convoy::PrintDatasetReport(data.db, "cattle ear-tags", std::cout);

  const convoy::ConvoyQuery query = data.query;  // m=2, k=180, e=25

  // Show what the Section 7.4 guidelines derive for this data.
  const double delta = convoy::ComputeDelta(data.db, query.e);
  const auto simplified = convoy::SimplifyDatabase(
      data.db, delta, convoy::SimplifierKind::kDpStar);
  const convoy::Tick lambda = convoy::ComputeLambda(data.db, simplified);
  std::cout << "\nauto-derived parameters: delta=" << std::fixed
            << std::setprecision(2) << delta << " lambda=" << lambda << "\n";
  std::cout << "DP* vertex reduction at that delta: " << std::setprecision(1)
            << convoy::VertexReductionPercent(data.db, simplified) << "%\n";

  // Long histories + tiny N: simplification dominates, so CuTS+ (fastest
  // simplifier) competes with CuTS* here — the paper's Cattle observation.
  std::cout << "\n" << std::left << std::setw(8) << "method" << std::right
            << std::setw(12) << "total(ms)" << std::setw(14)
            << "simplify(ms)" << std::setw(10) << "convoys" << "\n";
  std::vector<convoy::Convoy> herds;
  // Both variants return CMC's exact convoy set, so they report identical
  // herds (only their speed differs).
  for (const auto variant :
       {convoy::CutsVariant::kCutsPlus, convoy::CutsVariant::kCutsStar}) {
    convoy::DiscoveryStats stats;
    herds = convoy::Cuts(data.db, query, variant, {}, &stats);
    std::cout << std::left << std::setw(8) << convoy::ToString(variant)
              << std::right << std::setprecision(1) << std::setw(12)
              << stats.total_seconds * 1e3 << std::setw(14)
              << stats.simplify_seconds * 1e3 << std::setw(10)
              << herds.size() << "\n";
  }

  std::cout << "\nherding report:\n";
  for (const convoy::Convoy& herd : herds) {
    std::cout << "  animals ";
    for (const convoy::ObjectId id : herd.objects) std::cout << id << " ";
    std::cout << "grazed together for " << herd.Lifetime() / 60
              << " minutes\n";
    // Each reported herd is re-checked against the formal definition.
    if (!convoy::VerifyConvoy(data.db, query, herd)) {
      std::cout << "    WARNING: failed verification (should not happen)\n";
      return 1;
    }
  }
  if (herds.empty()) std::cout << "  no herding behaviour detected\n";
  return 0;
}
