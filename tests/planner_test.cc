#include "query/planner.h"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "io/result_io.h"
#include "obs/trace.h"
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
  EXPECT_EQ(ChooseAuto(stats), AlgorithmId::kCmc);
  stats.total_points = kAutoExactMaxPoints + 1;
  EXPECT_EQ(ChooseAuto(stats), AlgorithmId::kCutsStar);
  stats.total_points = 0;  // empty database
  EXPECT_EQ(ChooseAuto(stats), AlgorithmId::kCmc);
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

// What a query exposes, pinned byte for byte per AlgorithmChoice: the
// full EXPLAIN text, the "plan" object of the JSON report, and the span
// names one traced Prepare + Execute records. delta and lambda are given,
// so the expected text holds no derived floating-point value.
struct PinnedSurface {
  AlgorithmChoice choice;
  const char* explain;
  const char* plan_json;
  std::vector<std::string> spans;
};

TEST(PlannerTest, PlanSurfaceIsPinnedPerChoice) {
  const PinnedSurface pinned[] = {
      {AlgorithmChoice::kAuto,
       "plan\n"
       "  algorithm:   CuTS* (auto: 7131 points > 4096)\n"
       "  query:       m=3 k=6 e=4 threads=1\n"
       "  database:    N=30 T=300 points=7131\n"
       "  snapshot store: n/a (row-oriented path)\n"
       "  delta:       1.25 (given)\n"
       "  lambda:      7 (given)\n"
       "  simplification cache: miss\n"
       "  clustering memo: miss (0 refinement window(s); 0 of 228192 bytes "
       "held)\n"
       "  estimated work: 43 partition clustering(s), ~1290 object-clustering "
       "units (refinement excluded)\n"
       "  capabilities: exact, simplification, threads\n",
       R"("plan":{"algorithm":"CuTS*","requested":"auto",)"
       R"("query":{"m":3,"k":6,"e":4,"threads":1},"delta":1.25,)"
       R"("delta_derived":false,"lambda":7,"lambda_derived":false,)"
       R"("cache":"miss","exact":true,)"
       R"("database":{"objects":30,"ticks":300,"points":7131},)"
       R"("estimated_clusterings":43,"estimated_work":1290})",
       {"algorithm.cuts*", "cmc.finalize", "execute", "filter.partition",
       "prepare", "prepare.simplify", "refine.unit", "snapshot.cluster"}},
      {AlgorithmChoice::kCmc,
       "plan\n"
       "  algorithm:   CMC (explicit)\n"
       "  query:       m=3 k=6 e=4 threads=1\n"
       "  database:    N=30 T=300 points=7131\n"
       "  snapshot store: built (300 ticks, 7131 columnar points)\n"
       "  delta:       n/a\n"
       "  lambda:      n/a\n"
       "  clustering memo: miss (0 of 228192 bytes held)\n"
       "  estimated work: 300 snapshot clustering(s), ~7131 "
       "object-clustering units (exact columnar alive counts)\n"
       "  capabilities: exact, threads\n",
       R"("plan":{"algorithm":"CMC","requested":"CMC",)"
       R"("query":{"m":3,"k":6,"e":4,"threads":1},"cache":"n/a",)"
       R"("exact":true,"database":{"objects":30,"ticks":300,"points":7131},)"
       R"("estimated_clusterings":300,"estimated_work":7131})",
       {"algorithm.cmc", "cmc.finalize", "execute", "prepare",
        "snapshot.cluster"}},
      {AlgorithmChoice::kCuts,
       "plan\n"
       "  algorithm:   CuTS (explicit)\n"
       "  query:       m=3 k=6 e=4 threads=1\n"
       "  database:    N=30 T=300 points=7131\n"
       "  snapshot store: n/a (row-oriented path)\n"
       "  delta:       1.25 (given)\n"
       "  lambda:      7 (given)\n"
       "  simplification cache: miss\n"
       "  clustering memo: miss (0 refinement window(s); 0 of 228192 bytes "
       "held)\n"
       "  estimated work: 43 partition clustering(s), ~1290 object-clustering "
       "units (refinement excluded)\n"
       "  capabilities: exact, simplification, threads\n",
       R"("plan":{"algorithm":"CuTS","requested":"CuTS",)"
       R"("query":{"m":3,"k":6,"e":4,"threads":1},"delta":1.25,)"
       R"("delta_derived":false,"lambda":7,"lambda_derived":false,)"
       R"("cache":"miss","exact":true,)"
       R"("database":{"objects":30,"ticks":300,"points":7131},)"
       R"("estimated_clusterings":43,"estimated_work":1290})",
       {"algorithm.cuts", "cmc.finalize", "execute", "filter.partition",
       "prepare", "prepare.simplify", "refine.unit", "snapshot.cluster"}},
      {AlgorithmChoice::kCutsPlus,
       "plan\n"
       "  algorithm:   CuTS+ (explicit)\n"
       "  query:       m=3 k=6 e=4 threads=1\n"
       "  database:    N=30 T=300 points=7131\n"
       "  snapshot store: n/a (row-oriented path)\n"
       "  delta:       1.25 (given)\n"
       "  lambda:      7 (given)\n"
       "  simplification cache: miss\n"
       "  clustering memo: miss (0 refinement window(s); 0 of 228192 bytes "
       "held)\n"
       "  estimated work: 43 partition clustering(s), ~1290 object-clustering "
       "units (refinement excluded)\n"
       "  capabilities: exact, simplification, threads\n",
       R"("plan":{"algorithm":"CuTS+","requested":"CuTS+",)"
       R"("query":{"m":3,"k":6,"e":4,"threads":1},"delta":1.25,)"
       R"("delta_derived":false,"lambda":7,"lambda_derived":false,)"
       R"("cache":"miss","exact":true,)"
       R"("database":{"objects":30,"ticks":300,"points":7131},)"
       R"("estimated_clusterings":43,"estimated_work":1290})",
       {"algorithm.cuts+", "cmc.finalize", "execute", "filter.partition",
       "prepare", "prepare.simplify", "refine.unit", "snapshot.cluster"}},
      {AlgorithmChoice::kCutsStar,
       "plan\n"
       "  algorithm:   CuTS* (explicit)\n"
       "  query:       m=3 k=6 e=4 threads=1\n"
       "  database:    N=30 T=300 points=7131\n"
       "  snapshot store: n/a (row-oriented path)\n"
       "  delta:       1.25 (given)\n"
       "  lambda:      7 (given)\n"
       "  simplification cache: miss\n"
       "  clustering memo: miss (0 refinement window(s); 0 of 228192 bytes "
       "held)\n"
       "  estimated work: 43 partition clustering(s), ~1290 object-clustering "
       "units (refinement excluded)\n"
       "  capabilities: exact, simplification, threads\n",
       R"("plan":{"algorithm":"CuTS*","requested":"CuTS*",)"
       R"("query":{"m":3,"k":6,"e":4,"threads":1},"delta":1.25,)"
       R"("delta_derived":false,"lambda":7,"lambda_derived":false,)"
       R"("cache":"miss","exact":true,)"
       R"("database":{"objects":30,"ticks":300,"points":7131},)"
       R"("estimated_clusterings":43,"estimated_work":1290})",
       {"algorithm.cuts*", "cmc.finalize", "execute", "filter.partition",
       "prepare", "prepare.simplify", "refine.unit", "snapshot.cluster"}},
      {AlgorithmChoice::kMc2,
       "plan\n"
       "  algorithm:   MC2 (explicit)\n"
       "  query:       m=3 k=6 e=4 threads=1\n"
       "  database:    N=30 T=300 points=7131\n"
       "  snapshot store: built (300 ticks, 7131 columnar points)\n"
       "  delta:       n/a\n"
       "  lambda:      n/a\n"
       "  clustering memo: miss (0 of 228192 bytes held)\n"
       "  estimated work: 300 snapshot clustering(s), ~7131 "
       "object-clustering units (exact columnar alive counts)\n"
       "  capabilities: approximate, threads\n",
       R"("plan":{"algorithm":"MC2","requested":"MC2",)"
       R"("query":{"m":3,"k":6,"e":4,"threads":1},"cache":"n/a",)"
       R"("exact":false,"database":{"objects":30,"ticks":300,"points":7131},)"
       R"("estimated_clusterings":300,"estimated_work":7131})",
       {"algorithm.mc2", "execute", "prepare", "snapshot.cluster"}},
  };
  CutsFilterOptions options;
  options.delta = 1.25;
  options.lambda = 7;
  const ConvoyQuery query{3, 6, 4.0};
  for (const PinnedSurface& want : pinned) {
    SCOPED_TRACE(ToString(want.choice));
    const ConvoyEngine engine(LargeDb());
    TraceSession trace;
    const auto plan = engine.Prepare(query, want.choice, options, {}, &trace);
    ASSERT_TRUE(plan.ok());
    ExecHooks hooks;
    hooks.trace = &trace;
    const auto result = engine.Execute(*plan, hooks);
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(plan->Explain(), want.explain);
    std::ostringstream json;
    SaveResultSetJson(*result, json);
    const std::string doc = json.str();
    const size_t begin = doc.find("\"plan\":");
    const size_t end = doc.find(",\n\"stats\"");
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(doc.substr(begin, end - begin), want.plan_json);
    std::vector<std::string> spans;  // Metrics() sorts its spans by name
    for (const QueryMetrics::SpanAggregate& span : trace.Metrics().spans) {
      spans.push_back(span.name);
    }
    EXPECT_EQ(spans, want.spans);
  }
}

TEST(AlgorithmRegistryTest, EveryAlgorithmHasANameAndCapabilities) {
  EXPECT_EQ(ToString(AlgorithmId::kCmc), "CMC");
  EXPECT_EQ(ToString(AlgorithmId::kCuts), "CuTS");
  EXPECT_EQ(ToString(AlgorithmId::kCutsPlus), "CuTS+");
  EXPECT_EQ(ToString(AlgorithmId::kCutsStar), "CuTS*");
  EXPECT_EQ(ToString(AlgorithmId::kMc2), "MC2");
  // The approximate baseline advertises itself as such.
  EXPECT_FALSE(CapabilitiesOf(AlgorithmId::kMc2).exact);
  EXPECT_TRUE(CapabilitiesOf(AlgorithmId::kCutsStar).exact);
  // Only the snapshot algorithms build the store; only the CuTS family
  // simplifies.
  for (const AlgorithmId id :
       {AlgorithmId::kCmc, AlgorithmId::kCuts, AlgorithmId::kCutsPlus,
        AlgorithmId::kCutsStar, AlgorithmId::kMc2}) {
    const AlgorithmCapabilities caps = CapabilitiesOf(id);
    const bool snapshots = id == AlgorithmId::kCmc || id == AlgorithmId::kMc2;
    EXPECT_EQ(caps.uses_snapshot_store, snapshots) << ToString(id);
    EXPECT_EQ(caps.uses_simplification, !snapshots) << ToString(id);
  }
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
