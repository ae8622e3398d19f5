// Full preset x variant exactness matrix at small scale: every CuTS
// variant against CMC on every dataset shape the paper evaluates, through
// every default entry point and at several thread counts. Complements
// cuts_test.cc's random-workload sweep with the actual workload *shapes*
// (short scattered trajectories, dense herding, variable lengths, sparse
// sampling).

#include <gtest/gtest.h>

#include "convoy/convoy.h"

namespace convoy {
namespace {

struct MatrixCase {
  std::string label;
  int preset;  // 0..3 = truck/cattle/car/taxi
  CutsVariant variant;
};

ScenarioConfig SmallPreset(int preset) {
  switch (preset) {
    case 0: {
      ScenarioConfig c = TruckLikeConfig(0.05);
      c.num_objects = 60;
      c.num_groups = 3;
      return c;
    }
    case 1: {
      ScenarioConfig c = CattleLikeConfig(0.006);
      c.group_duration_min = 250;
      c.group_duration_max = 450;
      return c;
    }
    case 2: {
      ScenarioConfig c = CarLikeConfig(0.06);
      c.num_objects = 40;
      c.num_groups = 2;
      return c;
    }
    default: {
      ScenarioConfig c = TaxiLikeConfig(0.35);
      c.num_objects = 80;
      c.query.k = 90;
      c.group_duration_min = 110;
      c.group_duration_max = 180;
      return c;
    }
  }
}

class PresetMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(PresetMatrixTest, VariantMatchesCmcOnPresetShape) {
  const MatrixCase& param = GetParam();
  const ScenarioData data =
      GenerateScenario(SmallPreset(param.preset), 3000 + param.preset);
  const auto exact = Cmc(data.db, data.query);

  const auto got = Cuts(data.db, data.query, param.variant);
  EXPECT_TRUE(SameResultSet(exact, got))
      << param.label << ": got " << got.size() << " vs " << exact.size();
}

std::vector<MatrixCase> MakeMatrix() {
  static const char* kNames[] = {"truck", "cattle", "car", "taxi"};
  std::vector<MatrixCase> cases;
  for (int preset = 0; preset < 4; ++preset) {
    for (const CutsVariant variant :
         {CutsVariant::kCuts, CutsVariant::kCutsPlus,
          CutsVariant::kCutsStar}) {
      const std::string label = std::string(kNames[preset]) + "_" +
                                std::to_string(static_cast<int>(variant));
      cases.push_back(MatrixCase{label, preset, variant});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetMatrixTest,
                         ::testing::ValuesIn(MakeMatrix()),
                         [](const auto& param_info) {
                           return param_info.param.label;
                         });

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

struct SeedCase {
  std::string label;
  int preset;
  uint64_t seed;
};

class PresetSeedTest : public ::testing::TestWithParam<SeedCase> {};

// Each preset at seeds 42 and 44, each variant through ConvoyEngine's
// Execute and the free Cuts(), at 1, 2 and 8 threads: every
// answer is CMC's, and refinement clusters no more snapshots than CMC
// does. Each thread count runs on a fresh engine, so its first Execute
// clusters (a clustering-memo miss); a second Execute, served by the memo,
// must give the same answer.
TEST_P(PresetSeedTest, DefaultPathsMatchCmc) {
  const SeedCase& param = GetParam();
  const ScenarioData data =
      GenerateScenario(SmallPreset(param.preset), param.seed);
  ConvoyQuery query = data.query;
  const ConvoyEngine engine(data.db);

  TraceSession cmc_trace;
  const StatusOr<QueryPlan> cmc_plan =
      engine.Prepare(query, AlgorithmChoice::kCmc);
  ASSERT_TRUE(cmc_plan.ok());
  ExecHooks cmc_hooks;
  cmc_hooks.trace = &cmc_trace;
  const StatusOr<ConvoyResultSet> cmc = engine.Execute(*cmc_plan, cmc_hooks);
  ASSERT_TRUE(cmc.ok());
  const std::vector<Convoy>& exact = cmc->convoys();
  ASSERT_TRUE(SameResultSet(exact, Cmc(data.db, query)));
  const uint64_t cmc_clusterings =
      cmc_trace.counter(TraceCounter::kSnapshotsClustered);

  for (const CutsVariant variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      const std::string where = param.label + " " + ToString(variant) + " " +
                                std::to_string(threads) + " thread(s)";
      query.num_threads = threads;

      TraceSession trace;
      const ConvoyEngine cuts_engine(data.db);
      const StatusOr<QueryPlan> plan =
          cuts_engine.Prepare(query, ChoiceFor(variant));
      ASSERT_TRUE(plan.ok()) << where;
      ExecHooks hooks;
      hooks.trace = &trace;
      const StatusOr<ConvoyResultSet> executed =
          cuts_engine.Execute(*plan, hooks);
      ASSERT_TRUE(executed.ok()) << where;
      EXPECT_TRUE(SameResultSet(exact, executed->convoys()))
          << where << ": Execute got " << executed->convoys().size()
          << " vs " << exact.size();
      // A CuTS execution clusters snapshots only in its refinement.
      EXPECT_LE(trace.counter(TraceCounter::kSnapshotsClustered),
                cmc_clusterings)
          << where;
      const StatusOr<ConvoyResultSet> again = cuts_engine.Execute(*plan);
      ASSERT_TRUE(again.ok()) << where;
      EXPECT_EQ(again->convoys(), executed->convoys()) << where << ": memo";

      EXPECT_TRUE(SameResultSet(exact, Cuts(data.db, query, variant)))
          << where << ": Cuts()";
    }
  }
}

std::vector<SeedCase> MakeSeedCases() {
  static const char* kNames[] = {"truck", "cattle", "car", "taxi"};
  std::vector<SeedCase> cases;
  for (int preset = 0; preset < 4; ++preset) {
    for (const uint64_t seed : {uint64_t{42}, uint64_t{44}}) {
      cases.push_back(SeedCase{
          std::string(kNames[preset]) + "_" + std::to_string(seed), preset,
          seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresetSeedTest,
                         ::testing::ValuesIn(MakeSeedCases()),
                         [](const auto& param_info) {
                           return param_info.param.label;
                         });

// Regression: TruckLike at bench scale (0.25), seed 44, CuTS+ with default
// options. The former default refinement (CMC per candidate over the
// candidate's objects only) returned a result different from CMC's here.
TEST(PresetRegressionTest, TruckLikeSeed44CutsPlusMatchesCmc) {
  const ScenarioData data = GenerateScenario(TruckLikeConfig(0.25), 44);
  const auto exact = Cmc(data.db, data.query);
  ASSERT_FALSE(exact.empty());
  const auto got = Cuts(data.db, data.query, CutsVariant::kCutsPlus);
  EXPECT_TRUE(SameResultSet(exact, got))
      << "got " << got.size() << " vs " << exact.size();
}

}  // namespace
}  // namespace convoy
