// Cross-cutting randomized properties that tie the whole system together:
// soundness of every reported convoy, determinism, result-set algebra, and
// the structural invariants a result set must satisfy.

#include <gtest/gtest.h>

#include <sstream>

#include "convoy/convoy.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::RandomClumpyDb;

class SoundnessTest : public ::testing::TestWithParam<int> {};

// Every convoy any algorithm reports verifies against the definition, and
// the result set is dominance-free.
TEST_P(SoundnessTest, AllReportedConvoysVerifyTrue) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 16, 40, 40.0, 0.8, 0.9);
  const ConvoyQuery query{2, 4, 4.0};

  const auto check = [&](const std::vector<Convoy>& result,
                         const char* label) {
    for (const Convoy& c : result) {
      EXPECT_TRUE(VerifyConvoy(db, query, c))
          << label << " reported " << ToString(c);
    }
    for (size_t i = 0; i < result.size(); ++i) {
      for (size_t j = 0; j < result.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(Covers(result[j], result[i]))
              << label << " kept a dominated convoy";
        }
      }
    }
  };

  check(Cmc(db, query), "CMC");
  check(Cuts(db, query, CutsVariant::kCuts), "CuTS");
  check(Cuts(db, query, CutsVariant::kCutsStar), "CuTS*");
}

// The exact algorithms agree: every CuTS variant returns CMC's convoys,
// through the free function and through the engine's plan for it.
TEST_P(SoundnessTest, CutsFamilyEqualsCmc) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 16, 40, 40.0, 0.8, 0.9);
  const ConvoyQuery query{2, 4, 4.0};
  const auto exact = Cmc(db, query);
  const ConvoyEngine engine(db);
  for (const auto& [variant, choice] :
       {std::pair{CutsVariant::kCuts, AlgorithmChoice::kCuts},
        std::pair{CutsVariant::kCutsPlus, AlgorithmChoice::kCutsPlus},
        std::pair{CutsVariant::kCutsStar, AlgorithmChoice::kCutsStar}}) {
    EXPECT_TRUE(SameResultSet(exact, Cuts(db, query, variant)))
        << ToString(variant);
    EXPECT_TRUE(SameResultSet(
        exact, testutil::RunQuery(engine, query, choice).convoys()))
        << ToString(variant);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessTest, ::testing::Range(2000, 2010));

class MaximalityTest : public ::testing::TestWithParam<int> {};

// Completeness at the boundary: every reported convoy is *maximal* — it
// cannot be extended by one tick on either side, and no alive object can
// be added over its whole interval.
TEST_P(MaximalityTest, ReportedConvoysCannotBeExtended) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 14, 36, 40.0, 0.8);
  const ConvoyQuery query{2, 4, 4.0};
  for (const Convoy& c : Cmc(db, query)) {
    Convoy earlier = c;
    earlier.start_tick -= 1;
    EXPECT_FALSE(VerifyConvoy(db, query, earlier))
        << ToString(c) << " extends left";
    Convoy later = c;
    later.end_tick += 1;
    EXPECT_FALSE(VerifyConvoy(db, query, later))
        << ToString(c) << " extends right";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaximalityTest, ::testing::Range(2100, 2108));

class DeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismTest, RepeatedRunsAreIdentical) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 16, 40, 40.0, 0.8);
  const ConvoyQuery query{2, 4, 4.0};
  const auto a = Cuts(db, query, CutsVariant::kCutsStar);
  const auto b = Cuts(db, query, CutsVariant::kCutsStar);
  EXPECT_TRUE(SameResultSet(a, b));
  const auto c = Cmc(db, query);
  const auto d = Cmc(db, query);
  EXPECT_TRUE(SameResultSet(c, d));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Range(2200, 2205));

// Query-parameter monotonicity: loosening a query never loses coverage.
class MonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityTest, SmallerKCoversLargerK) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 14, 40, 40.0, 0.8);
  const auto strict = Cmc(db, ConvoyQuery{2, 8, 4.0});
  const auto loose = Cmc(db, ConvoyQuery{2, 4, 4.0});
  // Every k=8 convoy must be covered by some k=4 convoy.
  EXPECT_TRUE(Uncovered(strict, loose).empty());
}

TEST_P(MonotonicityTest, LargerMConvoysAreSubsetsOfSmallerMCoverage) {
  Rng rng(static_cast<uint64_t>(GetParam() + 50));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 16, 40, 40.0, 0.8);
  const auto m3 = Cmc(db, ConvoyQuery{3, 4, 4.0});
  const auto m2 = Cmc(db, ConvoyQuery{2, 4, 4.0});
  // Not exact containment (m changes DBSCAN's core threshold, which can
  // split clusters), but every m=3 convoy's objects travel together, so a
  // covering m=2 convoy must exist whenever density did not *increase*...
  // Density connection with smaller m is strictly weaker, so coverage
  // holds exactly:
  EXPECT_TRUE(Uncovered(m3, m2).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest,
                         ::testing::Range(2300, 2306));

// Result-set algebra sanity on random convoy sets.
class ConvoySetAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvoySetAlgebraTest, RemoveDominatedIsSoundAndIdempotent) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<Convoy> convoys;
  const size_t n = 5 + static_cast<size_t>(rng.UniformInt(0, 30));
  for (size_t i = 0; i < n; ++i) {
    Convoy c;
    const size_t size = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
    for (size_t j = 0; j < size; ++j) {
      c.objects.push_back(static_cast<ObjectId>(rng.UniformInt(0, 6)));
    }
    c.start_tick = rng.UniformInt(0, 20);
    c.end_tick = c.start_tick + rng.UniformInt(0, 20);
    convoys.push_back(std::move(c));
  }
  const auto pruned = RemoveDominated(convoys);
  // (1) nothing kept is dominated;
  for (size_t i = 0; i < pruned.size(); ++i) {
    for (size_t j = 0; j < pruned.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(Covers(pruned[j], pruned[i]));
      }
    }
  }
  // (2) everything dropped is covered by something kept;
  Canonicalize(&convoys);
  for (const Convoy& original : convoys) {
    bool covered = false;
    for (const Convoy& keep : pruned) {
      if (Covers(keep, original)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << ToString(original);
  }
  // (3) idempotent.
  EXPECT_TRUE(SameResultSet(pruned, RemoveDominated(pruned)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvoySetAlgebraTest,
                         ::testing::Range(2400, 2412));

// CSV round trip of discovery results through the trajectory format: the
// full "save data, reload, re-discover" loop is lossless.
class PersistenceLoopTest : public ::testing::TestWithParam<int> {};

TEST_P(PersistenceLoopTest, ReloadedDataGivesIdenticalConvoys) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 12, 30, 40.0, 0.8, 0.8);
  const ConvoyQuery query{2, 4, 4.0};
  std::stringstream buffer;
  SaveTrajectoriesCsv(db, buffer);
  const CsvLoadResult loaded = LoadTrajectoriesCsv(buffer);
  ASSERT_TRUE(loaded.ok);
  EXPECT_TRUE(SameResultSet(Cmc(db, query), Cmc(loaded.db, query)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceLoopTest,
                         ::testing::Range(2500, 2506));

}  // namespace
}  // namespace convoy
