// End-to-end tests: generate full scenario datasets, run all discovery
// algorithms, and check (i) every planted convoy is recovered, (ii) all
// algorithms agree, (iii) every reported convoy verifies true.

#include <gtest/gtest.h>

#include "convoy/convoy.h"

namespace convoy {
namespace {

struct ScenarioCase {
  const char* label;
  ScenarioConfig config;
  uint64_t seed;
};

class ScenarioIntegrationTest : public ::testing::TestWithParam<ScenarioCase> {
};

TEST_P(ScenarioIntegrationTest, EveryAlgorithmFindsPlantedConvoysAndAgrees) {
  const ScenarioCase& param = GetParam();
  const ScenarioData data = GenerateScenario(param.config, param.seed);
  const ConvoyQuery query = data.query;

  const auto cmc = Cmc(data.db, query);

  // (i) Every planted convoy window is covered by a CMC result: the members
  // travel within the cohesion radius < e during the window.
  for (const PlantedGroup& group : data.planted) {
    if (group.members.size() < query.m) continue;
    if (group.window_end - group.window_start + 1 < query.k) continue;
    const Convoy expected = ToExpectedConvoy(group);
    EXPECT_TRUE(Uncovered({expected}, cmc).empty())
        << param.label << ": planted convoy missed " << ToString(expected);
  }

  // (ii) CuTS variants agree with CMC (default options).
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    const auto got = Cuts(data.db, query, variant);
    EXPECT_TRUE(SameResultSet(cmc, got))
        << param.label << ": " << ToString(variant) << " diverged ("
        << got.size() << " vs " << cmc.size() << " convoys)";
  }

  // (iii) Everything reported verifies against the definition.
  for (const Convoy& c : cmc) {
    EXPECT_TRUE(VerifyConvoy(data.db, query, c))
        << param.label << ": unverifiable convoy " << ToString(c);
  }
}

// Small scales keep each case around a second.
std::vector<ScenarioCase> MakeCases() {
  std::vector<ScenarioCase> cases;
  {
    ScenarioConfig c = TruckLikeConfig(0.08);
    c.num_objects = 60;
    c.num_groups = 3;
    cases.push_back({"TruckLike", c, 101});
  }
  {
    ScenarioConfig c = CattleLikeConfig(0.008);
    c.group_duration_min = 300;
    c.group_duration_max = 500;
    cases.push_back({"CattleLike", c, 102});
  }
  {
    ScenarioConfig c = CarLikeConfig(0.08);
    c.num_objects = 50;
    c.num_groups = 2;
    cases.push_back({"CarLike", c, 103});
  }
  {
    ScenarioConfig c = TaxiLikeConfig(0.5);
    c.num_objects = 120;
    c.query.k = 120;
    c.group_duration_min = 150;
    c.group_duration_max = 250;
    cases.push_back({"TaxiLike", c, 104});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Presets, ScenarioIntegrationTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const auto& param_info) {
                           return std::string(param_info.param.label);
                         });

TEST(IntegrationTest, ProjectedRefinementFindsPlantedConvoysToo) {
  ScenarioConfig config = CarLikeConfig(0.08);
  config.num_objects = 50;
  config.num_groups = 2;
  const ScenarioData data = GenerateScenario(config, 105);

  CutsFilterOptions options;  // default: projected refinement
  const auto got =
      Cuts(data.db, data.query, CutsVariant::kCutsStar, options);
  for (const PlantedGroup& group : data.planted) {
    EXPECT_TRUE(Uncovered({ToExpectedConvoy(group)}, got).empty());
  }
}

TEST(IntegrationTest, Mc2AccuracyDegradesWithTheta) {
  // The appendix B.1 shape: MC2's false positives are substantial because
  // chains without the k constraint get reported. The dense cattle-like
  // paddock produces plenty of short chance meetings.
  ScenarioConfig config = CattleLikeConfig(0.01);
  config.group_duration_min = 400;
  config.group_duration_max = 800;
  const ScenarioData data = GenerateScenario(config, 106);
  const auto exact = Cmc(data.db, data.query);
  ASSERT_FALSE(exact.empty());

  Mc2Options options;
  options.theta = 0.8;
  const Mc2Accuracy acc =
      MeasureMc2Accuracy(data.db, data.query, options, exact);
  EXPECT_GT(acc.reported, 0u);
  EXPECT_GT(acc.false_positive_pct, 0.0)
      << "MC2 without the lifetime constraint should over-report";
}

TEST(IntegrationTest, CliStyleWorkflowThroughCsv) {
  // Generate -> save -> load -> discover, as convoy_cli wires it together.
  ScenarioConfig config = TaxiLikeConfig(0.4);
  config.num_objects = 80;
  config.query.k = 100;
  config.group_duration_min = 120;
  config.group_duration_max = 200;
  const ScenarioData data = GenerateScenario(config, 107);

  const std::string path = ::testing::TempDir() + "/convoy_integration.csv";
  ASSERT_TRUE(SaveTrajectoriesCsv(data.db, path));
  const CsvLoadResult loaded = LoadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok);

  const auto from_disk = Cuts(loaded.db, data.query);
  const auto in_memory = Cuts(data.db, data.query);
  // CSV stores full double precision via operator<<? No: default precision.
  // The tolerance-free comparison still holds because discovery depends on
  // distances at far coarser scales than the round-trip error.
  EXPECT_EQ(from_disk.size(), in_memory.size());
}

}  // namespace
}  // namespace convoy
