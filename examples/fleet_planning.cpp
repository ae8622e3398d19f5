// Fleet throughput planning — the paper's trucking application (Section 1):
// delivery trucks with coherent trajectory patterns indicate shared routes
// that can be consolidated.
//
//   $ ./build/examples/fleet_planning [seed]
//
// Generates an Athens-style concrete-truck workload (TruckLike preset),
// discovers convoys with all three CuTS variants, compares their costs, and
// prints a consolidation report.

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "convoy/convoy.h"

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  const convoy::ScenarioData data =
      convoy::GenerateScenario(convoy::TruckLikeConfig(/*time_scale=*/0.25),
                               seed);
  convoy::PrintDatasetReport(data.db, "delivery trucks", std::cout);

  const convoy::ConvoyQuery query = data.query;  // m=3, k=180, e=8
  std::cout << "\nquery: m=" << query.m << " k=" << query.k
            << " e=" << query.e << "\n\n";

  // The engine caches simplifications across the variant sweep, and its
  // validating Prepare rejects an out-of-contract query (say, planner input
  // with e = 0) up front instead of computing garbage.
  convoy::ConvoyEngine engine(data.db);

  // Run every variant; they must agree, and the stats show the trade-offs
  // the paper's Section 7.3 discusses. Prepare pays the simplification.
  std::vector<convoy::Convoy> result;
  std::cout << std::left << std::setw(8) << "method" << std::right
            << std::setw(12) << "total(ms)" << std::setw(12) << "prepare"
            << std::setw(12) << "filter" << std::setw(12) << "refine"
            << std::setw(12) << "candidates" << std::setw(10) << "convoys"
            << "\n";
  for (const auto choice :
       {convoy::AlgorithmChoice::kCuts, convoy::AlgorithmChoice::kCutsPlus,
        convoy::AlgorithmChoice::kCutsStar}) {
    const convoy::Stopwatch prepare_watch;
    const convoy::StatusOr<convoy::QueryPlan> plan =
        engine.Prepare(query, choice);
    if (!plan.ok()) {
      std::cerr << "query rejected: " << plan.status() << "\n";
      return 1;
    }
    const double prepare_ms = prepare_watch.ElapsedSeconds() * 1e3;
    const convoy::StatusOr<convoy::ConvoyResultSet> executed =
        engine.Execute(*plan);
    if (!executed.ok()) {
      std::cerr << "query failed: " << executed.status() << "\n";
      return 1;
    }
    const convoy::DiscoveryStats& stats = executed->stats();
    result = executed->convoys();
    std::cout << std::left << std::setw(8) << convoy::ToString(choice)
              << std::right << std::fixed << std::setprecision(1)
              << std::setw(12) << prepare_ms + stats.total_seconds * 1e3
              << std::setw(12) << prepare_ms << std::setw(12)
              << stats.filter_seconds * 1e3 << std::setw(12)
              << stats.refine_seconds * 1e3 << std::setw(12)
              << stats.num_candidates << std::setw(10) << result.size()
              << "\n";
  }

  std::cout << "\nconsolidation report (longest shared hauls first):\n";
  std::sort(result.begin(), result.end(),
            [](const convoy::Convoy& a, const convoy::Convoy& b) {
              return a.Lifetime() > b.Lifetime();
            });
  size_t shown = 0;
  for (const convoy::Convoy& c : result) {
    if (++shown > 10) break;
    std::cout << "  " << c.objects.size() << " trucks shared a "
              << c.Lifetime() / 60 << "-minute haul (" << convoy::ToString(c)
              << ") -> candidate for load consolidation\n";
  }
  if (result.empty()) std::cout << "  no coherent truck groups found\n";
  return 0;
}
