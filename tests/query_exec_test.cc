// End-to-end tests of the planner/executor API: Execute(Prepare(q)) is
// bit-identical to the free-function algorithms (every CuTS variant, CMC
// and MC2), at 1, 2 and 8 threads, and the result set carries its plan and
// stats.

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

TEST(QueryExecTest, ExecuteMatchesAtMultipleThreadCounts) {
  const ConvoyEngine engine(SeededDb(44));
  ConvoyQuery query{3, 6, 4.0};
  const auto serial =
      engine.Execute(engine.Prepare(query, AlgorithmChoice::kCutsStar)
                         .value());
  ASSERT_TRUE(serial.ok());
  for (const size_t threads : {2u, 8u}) {
    query.num_threads = threads;
    const auto plan = engine.Prepare(query, AlgorithmChoice::kCutsStar);
    ASSERT_TRUE(plan.ok());
    const auto parallel = engine.Execute(*plan);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->convoys(), serial->convoys()) << threads;
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
