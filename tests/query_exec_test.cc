// End-to-end tests of the planner/executor API: Execute(Prepare(q)) is
// bit-identical to the free-function algorithms (every CuTS variant, CMC
// and MC2), at 1, 2 and 8 threads, and the result set carries its plan and
// stats.

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/cmc.h"
#include "core/cuts.h"
#include "core/engine.h"
#include "core/mc2.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

TrajectoryDatabase SeededDb(uint64_t seed, size_t objects = 24,
                            Tick ticks = 80) {
  Rng rng(seed);
  return RandomClumpyDb(rng, objects, ticks, 60.0, 0.8);
}

AlgorithmChoice ChoiceFor(CutsVariant variant) {
  switch (variant) {
    case CutsVariant::kCuts:
      return AlgorithmChoice::kCuts;
    case CutsVariant::kCutsPlus:
      return AlgorithmChoice::kCutsPlus;
    case CutsVariant::kCutsStar:
      return AlgorithmChoice::kCutsStar;
  }
  return AlgorithmChoice::kCutsStar;
}

// The acceptance property: Execute(Prepare(q)) returns *bit-identical*
// convoys (EXPECT_EQ on the vectors, not just set equality) to the free
// functions, for every variant and for exact CMC, over seeded random
// databases.
TEST(QueryExecTest, ExecutePrepareMatchesFreeFunctionsBitIdentical) {
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const ConvoyEngine engine(SeededDb(seed));
    const ConvoyQuery query{3, 6, 4.0};

    for (const CutsVariant variant :
         {CutsVariant::kCuts, CutsVariant::kCutsPlus,
          CutsVariant::kCutsStar}) {
      const auto plan = engine.Prepare(query, ChoiceFor(variant));
      ASSERT_TRUE(plan.ok());
      const auto executed = engine.Execute(*plan);
      ASSERT_TRUE(executed.ok());
      const std::vector<Convoy> direct = Cuts(engine.db(), query, variant);
      EXPECT_EQ(executed->convoys(), direct)
          << "seed " << seed << " variant " << ToString(variant);
    }

    const auto plan = engine.Prepare(query, AlgorithmChoice::kCmc);
    ASSERT_TRUE(plan.ok());
    const auto executed = engine.Execute(*plan);
    ASSERT_TRUE(executed.ok());
    EXPECT_EQ(executed->convoys(), Cmc(engine.db(), query)) << seed;
  }
}

// Each thread count on a fresh engine, so every one clusters (the first
// Execute misses the clustering memo); the second Execute of the same plan
// is served by the memo and must give the same answer.
TEST(QueryExecTest, ExecuteMatchesAtMultipleThreadCounts) {
  const TrajectoryDatabase db = SeededDb(44);
  ConvoyQuery query{3, 6, 4.0};
  std::optional<std::vector<Convoy>> serial;
  for (const size_t threads : {1u, 2u, 8u}) {
    query.num_threads = threads;
    const ConvoyEngine engine(db);
    const auto plan = engine.Prepare(query, AlgorithmChoice::kCutsStar);
    ASSERT_TRUE(plan.ok());
    const auto first = engine.Execute(*plan);
    ASSERT_TRUE(first.ok());
    const auto again = engine.Execute(*plan);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->convoys(), first->convoys()) << threads;
    if (!serial.has_value()) serial = first->convoys();
    EXPECT_EQ(first->convoys(), *serial) << threads;
  }
}

TEST(QueryExecTest, Mc2PlanMatchesFreeFunction) {
  const ConvoyEngine engine(SeededDb(55));
  const ConvoyQuery query{3, 4, 4.0};
  Mc2Options mc2;
  mc2.theta = 0.6;
  const auto plan =
      engine.Prepare(query, AlgorithmChoice::kMc2, {}, mc2);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, AlgorithmId::kMc2);
  const auto executed = engine.Execute(*plan);
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(executed->convoys(), Mc2(engine.db(), query, mc2));
}

TEST(QueryExecTest, ResultSetCarriesPlanAndStats) {
  const ConvoyEngine engine(SeededDb(66));
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  const auto executed = engine.Execute(*plan);
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(executed->plan().algorithm, plan->algorithm);
  EXPECT_EQ(executed->stats().num_convoys, executed->Count());
  EXPECT_GT(executed->stats().total_seconds, 0.0);
}

}  // namespace
}  // namespace convoy
