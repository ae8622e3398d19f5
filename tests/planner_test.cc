#include "query/planner.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "query/algorithm.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

TrajectoryDatabase TinyDb() {
  Rng rng(7);
  // 10 objects x 30 ticks = at most 300 points: far below the auto-exact
  // threshold.
  return RandomClumpyDb(rng, 10, 30, 40.0, 0.8);
}

TrajectoryDatabase LargeDb() {
  Rng rng(8);
  // 30 objects x 300 ticks ≈ 9000 points: above the threshold.
  return RandomClumpyDb(rng, 30, 300, 80.0, 0.8);
}

TEST(PlannerTest, ChooseAutoThreshold) {
  DatabaseStats stats;
  stats.total_points = kAutoExactMaxPoints;
  EXPECT_EQ(QueryPlanner::ChooseAuto(stats), AlgorithmId::kCmc);
  stats.total_points = kAutoExactMaxPoints + 1;
  EXPECT_EQ(QueryPlanner::ChooseAuto(stats), AlgorithmId::kCutsStar);
  stats.total_points = 0;  // empty database
  EXPECT_EQ(QueryPlanner::ChooseAuto(stats), AlgorithmId::kCmc);
}

TEST(PlannerTest, AutoPicksCmcForTinyInput) {
  const ConvoyEngine engine(TinyDb());
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, AlgorithmId::kCmc);
  EXPECT_EQ(plan->requested, AlgorithmChoice::kAuto);
  EXPECT_EQ(plan->cache, PlanCacheStatus::kNotApplicable);
  EXPECT_EQ(plan->delta, 0.0);
  EXPECT_EQ(plan->lambda, 0);
}

TEST(PlannerTest, AutoPicksCutsStarForLargeInput) {
  const ConvoyEngine engine(LargeDb());
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, AlgorithmId::kCutsStar);
  EXPECT_GT(plan->delta, 0.0);
  EXPECT_GE(plan->lambda, 2);
  EXPECT_TRUE(plan->delta_derived);
  EXPECT_TRUE(plan->lambda_derived);
}

TEST(PlannerTest, ExplicitChoicePassesThrough) {
  const ConvoyEngine engine(TinyDb());
  const ConvoyQuery query{3, 6, 4.0};
  const struct {
    AlgorithmChoice choice;
    AlgorithmId id;
  } cases[] = {
      {AlgorithmChoice::kCmc, AlgorithmId::kCmc},
      {AlgorithmChoice::kCuts, AlgorithmId::kCuts},
      {AlgorithmChoice::kCutsPlus, AlgorithmId::kCutsPlus},
      {AlgorithmChoice::kCutsStar, AlgorithmId::kCutsStar},
      {AlgorithmChoice::kMc2, AlgorithmId::kMc2},
  };
  for (const auto& c : cases) {
    const auto plan = engine.Prepare(query, c.choice);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->algorithm, c.id) << ToString(c.choice);
    EXPECT_EQ(plan->requested, c.choice);
  }
}

TEST(PlannerTest, VariantConfiguresFilter) {
  const ConvoyEngine engine(TinyDb());
  const ConvoyQuery query{3, 6, 4.0};
  const auto cuts = engine.Prepare(query, AlgorithmChoice::kCuts);
  ASSERT_TRUE(cuts.ok());
  EXPECT_EQ(cuts->filter.simplifier, SimplifierKind::kDp);
  EXPECT_EQ(cuts->filter.distance, SegmentDistanceKind::kDll);
  const auto star = engine.Prepare(query, AlgorithmChoice::kCutsStar);
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->filter.simplifier, SimplifierKind::kDpStar);
  EXPECT_EQ(star->filter.distance, SegmentDistanceKind::kDStar);
}

TEST(PlannerTest, PrepareRejectsInvalidQueries) {
  const ConvoyEngine engine(TinyDb());
  EXPECT_EQ(engine.Prepare(ConvoyQuery{1, 2, 1.0}).status().code(),
            StatusCode::kInvalidArgument);  // m < 2
  EXPECT_EQ(engine.Prepare(ConvoyQuery{2, 0, 1.0}).status().code(),
            StatusCode::kInvalidArgument);  // k < 1
  EXPECT_EQ(engine.Prepare(ConvoyQuery{2, 2, 0.0}).status().code(),
            StatusCode::kInvalidArgument);  // e <= 0
  EXPECT_EQ(engine.Prepare(ConvoyQuery{2, 2, std::nan("")}).status().code(),
            StatusCode::kInvalidArgument);
  CutsFilterOptions bad;
  bad.delta = std::nan("");
  EXPECT_EQ(engine
                .Prepare(ConvoyQuery{2, 2, 1.0}, AlgorithmChoice::kCutsStar,
                         bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PlannerTest, ExplicitParametersAreNotRederived) {
  const ConvoyEngine engine(LargeDb());
  CutsFilterOptions options;
  options.delta = 1.25;
  options.lambda = 7;
  const auto plan =
      engine.Prepare(ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCutsStar,
                     options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->delta, 1.25);
  EXPECT_EQ(plan->lambda, 7);
  EXPECT_FALSE(plan->delta_derived);
  EXPECT_FALSE(plan->lambda_derived);
  EXPECT_EQ(plan->filter.delta, 1.25);
  EXPECT_EQ(plan->filter.lambda, 7);
}

TEST(PlannerTest, SimplificationCacheHitMissRecorded) {
  const ConvoyEngine engine(LargeDb());
  CutsFilterOptions options;
  options.delta = 2.0;
  const ConvoyQuery query{3, 6, 4.0};
  const auto first =
      engine.Prepare(query, AlgorithmChoice::kCutsStar, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->cache, PlanCacheStatus::kMiss);
  const auto second =
      engine.Prepare(query, AlgorithmChoice::kCutsStar, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cache, PlanCacheStatus::kHit);
}

TEST(PlannerTest, ExplainNamesAlgorithmAndParameters) {
  const ConvoyEngine engine(LargeDb());
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->Explain();
  EXPECT_NE(text.find("CuTS*"), std::string::npos) << text;
  EXPECT_NE(text.find("delta"), std::string::npos) << text;
  EXPECT_NE(text.find("lambda"), std::string::npos) << text;
  EXPECT_NE(text.find("auto"), std::string::npos) << text;
  const auto exact = engine.Prepare(ConvoyQuery{3, 6, 4.0},
                                    AlgorithmChoice::kCmc);
  ASSERT_TRUE(exact.ok());
  EXPECT_NE(exact->Explain().find("CMC"), std::string::npos);
  EXPECT_NE(exact->Explain().find("explicit"), std::string::npos);
}

TEST(PlannerTest, StandalonePlannerWorksWithoutEngine) {
  const TrajectoryDatabase db = LargeDb();
  const QueryPlanner planner(db);
  const QueryPlan plan = planner.Plan(ConvoyQuery{3, 6, 4.0});
  EXPECT_EQ(plan.algorithm, AlgorithmId::kCutsStar);
  EXPECT_GT(plan.delta, 0.0);
  // No cache bound: status stays n/a.
  EXPECT_EQ(plan.cache, PlanCacheStatus::kNotApplicable);
  EXPECT_GT(plan.estimated_clusterings, 0u);
}

TEST(AlgorithmRegistryTest, AllAlgorithmsRegistered) {
  const auto& all = AllAlgorithms();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(GetAlgorithm(AlgorithmId::kCmc).Name(), "CMC");
  EXPECT_EQ(GetAlgorithm(AlgorithmId::kCuts).Name(), "CuTS");
  EXPECT_EQ(GetAlgorithm(AlgorithmId::kCutsPlus).Name(), "CuTS+");
  EXPECT_EQ(GetAlgorithm(AlgorithmId::kCutsStar).Name(), "CuTS*");
  EXPECT_EQ(GetAlgorithm(AlgorithmId::kMc2).Name(), "MC2");
  for (const ConvoyAlgorithm* algo : all) {
    EXPECT_EQ(&GetAlgorithm(algo->Id()), algo);
  }
  // The approximate baseline advertises itself as such.
  EXPECT_FALSE(GetAlgorithm(AlgorithmId::kMc2).Capabilities().exact);
  EXPECT_TRUE(GetAlgorithm(AlgorithmId::kCutsStar).Capabilities().exact);
}

TEST(AlgorithmRegistryTest, ParseAlgorithmChoiceRoundTrips) {
  EXPECT_EQ(ParseAlgorithmChoice("auto"), AlgorithmChoice::kAuto);
  EXPECT_EQ(ParseAlgorithmChoice("cmc"), AlgorithmChoice::kCmc);
  EXPECT_EQ(ParseAlgorithmChoice("cuts"), AlgorithmChoice::kCuts);
  EXPECT_EQ(ParseAlgorithmChoice("cuts+"), AlgorithmChoice::kCutsPlus);
  EXPECT_EQ(ParseAlgorithmChoice("cuts*"), AlgorithmChoice::kCutsStar);
  EXPECT_EQ(ParseAlgorithmChoice("mc2"), AlgorithmChoice::kMc2);
  EXPECT_FALSE(ParseAlgorithmChoice("nonsense").has_value());
  EXPECT_FALSE(ParseAlgorithmChoice("CMC").has_value());
}

}  // namespace
}  // namespace convoy
