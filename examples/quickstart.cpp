// Quickstart: build a tiny trajectory database by hand, run a convoy query
// through the ConvoyEngine planner/executor, and print the result.
//
//   $ ./build/examples/quickstart
//
// Three delivery vans leave the depot; vans 1 and 2 ride together for the
// first six minutes, van 0 goes its own way.

#include <iostream>

#include "convoy/convoy.h"

int main() {
  convoy::TrajectoryDatabase db;

  // Van 0: heads north alone.
  convoy::Trajectory van0(0);
  for (convoy::Tick t = 0; t < 10; ++t) {
    van0.Append(/*x=*/0.0, /*y=*/40.0 * static_cast<double>(t), t);
  }
  db.Add(std::move(van0));

  // Vans 1 and 2: drive east side by side for 6 ticks, then split.
  convoy::Trajectory van1(1);
  convoy::Trajectory van2(2);
  for (convoy::Tick t = 0; t < 10; ++t) {
    const double x = 50.0 * static_cast<double>(t);
    van1.Append(x, 0.0, t);
    const double detour = t >= 6 ? 300.0 : 4.0;  // splits off at t=6
    van2.Append(x, detour, t);
  }
  db.Add(std::move(van1));
  db.Add(std::move(van2));

  // Query: at least 2 objects within range 10, for at least 5 ticks.
  const convoy::ConvoyQuery query{/*m=*/2, /*k=*/5, /*e=*/10.0};

  // Prepare validates the query and picks the physical algorithm (this
  // database is tiny, so the planner chooses exact CMC; pass an explicit
  // AlgorithmChoice to override). The plan is inspectable before running.
  convoy::ConvoyEngine engine(std::move(db));
  const auto plan = engine.Prepare(query);
  if (!plan.ok()) {
    std::cerr << "bad query: " << plan.status() << "\n";
    return 1;
  }
  std::cout << plan->Explain() << "\n";

  const auto result = engine.Execute(*plan);
  if (!result.ok()) {  // Execute reports any failure through StatusOr
    std::cerr << "execution failed: " << result.status() << "\n";
    return 1;
  }

  std::cout << "found " << result->Count() << " convoy(s)\n";
  for (const convoy::Convoy& c : *result) {
    std::cout << "  objects ";
    for (const convoy::ObjectId id : c.objects) std::cout << id << " ";
    std::cout << "traveled together during ticks [" << c.start_tick << ", "
              << c.end_tick << "]\n";
  }
  std::cout << "discovery took " << result->stats().total_seconds * 1e3
            << " ms\n";

  // The same result, computed by the free-function baseline:
  const auto reference = convoy::Cmc(engine.db(), query);
  std::cout << "CMC agrees: "
            << (convoy::SameResultSet(reference, result->convoys()) ? "yes"
                                                                    : "NO")
            << "\n";
  return 0;
}
