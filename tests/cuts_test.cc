#include "core/cuts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "core/cmc.h"
#include "core/cuts_refine.h"
#include "core/verify.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::FromXRows;
using testutil::RandomClumpyDb;

TEST(CutsTest, VariantNames) {
  EXPECT_EQ(ToString(CutsVariant::kCuts), "CuTS");
  EXPECT_EQ(ToString(CutsVariant::kCutsPlus), "CuTS+");
  EXPECT_EQ(ToString(CutsVariant::kCutsStar), "CuTS*");
}

TEST(CutsTest, VariantConfigTable) {
  // The Section 6 summary table.
  const auto cuts = MakeFilterOptions(CutsVariant::kCuts);
  EXPECT_EQ(cuts.simplifier, SimplifierKind::kDp);
  EXPECT_EQ(cuts.distance, SegmentDistanceKind::kDll);
  const auto plus = MakeFilterOptions(CutsVariant::kCutsPlus);
  EXPECT_EQ(plus.simplifier, SimplifierKind::kDpPlus);
  EXPECT_EQ(plus.distance, SegmentDistanceKind::kDll);
  const auto star = MakeFilterOptions(CutsVariant::kCutsStar);
  EXPECT_EQ(star.simplifier, SimplifierKind::kDpStar);
  EXPECT_EQ(star.distance, SegmentDistanceKind::kDStar);
}

TEST(CutsTest, EmptyDatabase) {
  EXPECT_TRUE(
      Cuts(TrajectoryDatabase(), ConvoyQuery{2, 2, 1.0}).empty());
}

TEST(CutsTest, SimpleConvoyMatchesCmc) {
  const auto db = FromXRows({{0, 1, 2, 3, 4, 5, 6, 7},
                             {0, 1, 2, 3, 4, 5, 6, 7},
                             {50, 40, 30, 20, 10, 0, -10, -20}},
                            0.4);
  const ConvoyQuery query{2, 4, 1.0};
  const auto expected = Cmc(db, query);
  ASSERT_EQ(expected.size(), 1u);
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    const auto got = Cuts(db, query, variant);
    EXPECT_TRUE(SameResultSet(expected, got)) << ToString(variant);
  }
}

TEST(CutsTest, FilterProducesCandidatesAndStats) {
  const auto db = FromXRows({{0, 1, 2, 3, 4, 5, 6, 7},
                             {0, 1, 2, 3, 4, 5, 6, 7}},
                            0.4);
  DiscoveryStats stats;
  CutsFilterOptions options;
  options.lambda = 2;
  const auto result = Cuts(db, ConvoyQuery{2, 4, 1.0},
                           CutsVariant::kCutsStar, options, &stats);
  EXPECT_EQ(result.size(), 1u);
  EXPECT_GE(stats.num_candidates, 1u);
  EXPECT_GT(stats.refinement_unit, 0.0);
  EXPECT_GT(stats.num_clusterings, 0u);
  EXPECT_EQ(stats.lambda_used, 2);
  // Perfectly straight synthetic rows legitimately auto-derive delta = 0.
  EXPECT_GE(stats.delta_used, 0.0);
}

// ---------------------------------------------------------------------------
// The paper's central exactness guarantee: CuTS returns exactly CMC's
// convoys. Randomized sweep over variants, internal parameters, and
// workload shapes, through the default refinement.
// ---------------------------------------------------------------------------

struct ExactnessCase {
  CutsVariant variant;
  double delta;  // <= 0: auto
  Tick lambda;   // <= 0: auto
  bool actual_tolerance;
  bool box_pruning;
  int seed;
};

class CutsExactnessTest : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(CutsExactnessTest, MatchesCmcOnRandomWorkload) {
  const ExactnessCase param = GetParam();
  Rng rng(static_cast<uint64_t>(param.seed));
  const TrajectoryDatabase db =
      RandomClumpyDb(rng, /*num_objects=*/24, /*ticks=*/60, /*world=*/60.0,
                     /*step=*/0.8, /*keep_prob=*/0.9);
  const ConvoyQuery query{3, 6, 4.0};

  const auto expected = Cmc(db, query);

  CutsFilterOptions options;
  options.delta = param.delta;
  options.lambda = param.lambda;
  options.use_actual_tolerance = param.actual_tolerance;
  options.use_box_pruning = param.box_pruning;
  const auto got = Cuts(db, query, param.variant, options);

  EXPECT_TRUE(SameResultSet(expected, got))
      << ToString(param.variant) << " delta=" << param.delta
      << " lambda=" << param.lambda << " seed=" << param.seed
      << " expected=" << expected.size() << " got=" << got.size();
}

std::vector<ExactnessCase> MakeExactnessCases() {
  std::vector<ExactnessCase> cases;
  const CutsVariant variants[] = {CutsVariant::kCuts, CutsVariant::kCutsPlus,
                                  CutsVariant::kCutsStar};
  int seed = 100;
  for (const CutsVariant variant : variants) {
    for (const double delta : {-1.0, 0.5, 2.0}) {
      for (const Tick lambda : {Tick{-1}, Tick{3}, Tick{10}}) {
        cases.push_back(ExactnessCase{variant, delta, lambda,
                                      /*actual_tolerance=*/true,
                                      /*box_pruning=*/true, seed++});
      }
    }
    // Toggle the optimizations off as well.
    cases.push_back(ExactnessCase{variant, 1.0, 5, false, true, seed++});
    cases.push_back(ExactnessCase{variant, 1.0, 5, true, false, seed++});
    cases.push_back(ExactnessCase{variant, 1.0, 5, false, false, seed++});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CutsExactnessTest,
                         ::testing::ValuesIn(MakeExactnessCases()));

// The default options — auto delta and lambda — on gappy random inputs:
// the result is CMC's, and every convoy verifies against Definition 3.
class CutsDefaultRefinementTest : public ::testing::TestWithParam<int> {};

TEST_P(CutsDefaultRefinementTest, MatchesCmc) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db =
      RandomClumpyDb(rng, 20, 50, 50.0, 0.8, 0.85);
  const ConvoyQuery query{3, 5, 4.0};
  const auto exact = Cmc(db, query);

  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    const auto got = Cuts(db, query, variant);
    EXPECT_TRUE(SameResultSet(exact, got))
        << ToString(variant) << " seed=" << GetParam() << " got "
        << got.size() << " vs " << exact.size();
    for (const Convoy& c : got) {
      EXPECT_TRUE(VerifyConvoy(db, query, c))
          << ToString(variant) << " reported false convoy " << ToString(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutsDefaultRefinementTest,
                         ::testing::Range(500, 512));

// A convoy {A, C} whose members are never within e of each other: at
// every tick they are density-connected through a relay object sitting
// between them, and the relay changes every three ticks. No relay stays
// long enough to be in any candidate, so refining the candidate {A, C}
// over its own objects finds nothing; the refinement must cluster the
// relays too.
TEST(CutsTest, DensityChainThroughObjectInNoCandidate) {
  constexpr ObjectId kA = 0;
  constexpr ObjectId kC = 1;
  constexpr Tick kTicks = 12;
  TrajectoryDatabase db;
  Trajectory a(kA);
  Trajectory c(kC);
  for (Tick t = 0; t < kTicks; ++t) {
    const double x = static_cast<double>(t);
    a.Append(x, 0.0, t);
    c.Append(x, 1.6, t);
  }
  db.Add(std::move(a));
  db.Add(std::move(c));
  // Relay r sits between A and C during ticks [3r, 3r + 2] and far away
  // (each relay in its own lane) otherwise.
  for (ObjectId r = 0; r < 4; ++r) {
    Trajectory relay(2 + r);
    for (Tick t = 0; t < kTicks; ++t) {
      const bool relaying = t / 3 == static_cast<Tick>(r);
      relay.Append(static_cast<double>(t),
                   relaying ? 0.8 : 50.0 * static_cast<double>(r + 1), t);
    }
    db.Add(std::move(relay));
  }
  const ConvoyQuery query{2, 8, 1.0};

  const std::vector<Convoy> expected = {Convoy{{kA, kC}, 0, kTicks - 1}};
  ASSERT_TRUE(SameResultSet(Cmc(db, query), expected));
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    CutsFilterOptions options;
    options.lambda = 2;
    const CutsFilterResult filtered =
        CutsFilter(db, query, MakeFilterOptions(variant, options));
    for (const Candidate& cand : filtered.candidates) {
      for (const ObjectId id : cand.objects) {
        EXPECT_TRUE(id == kA || id == kC)
            << ToString(variant) << ": relay " << id << " is in a candidate";
      }
    }
    EXPECT_TRUE(SameResultSet(Cuts(db, query, variant, options), expected))
        << ToString(variant);
  }
}

// Eps-boundary inputs: coincident points, and a border point at exactly e
// from a core point. Core A has coincident twin B and a neighbour C at
// e/2; D sits at distance e from A (and from B), on the far side from C,
// so with m = 4 D is a border point held in the cluster only by the
// distance-equals-e case. Straight-line motion simplifies every object to
// one segment with a tolerance of (at most rounding-level) zero, so the
// filter's bound is met with no slack. In floating point the computed
// distance may land a few ulps either side of e (CMC's answer changes
// with the heading and e); whatever CMC decides, CuTS must decide the
// same.
TEST(CutsTest, EpsBoundaryCoincidentAndBorderAtExactlyE) {
  const Point kHeadings[] = {Point(1.0, 0.0), Point(0.0, 1.0),
                             Point(0.6, 0.8), Point(-0.28, 0.96)};
  for (const double e : {1.0, 0.7, 2.5}) {
    for (const Point& dir : kHeadings) {
      for (const bool gappy : {false, true}) {
        TrajectoryDatabase db;
        const Point velocity(0.3, 0.1);
        const Point offsets[] = {Point(0, 0), Point(0, 0), dir * (-e / 2),
                                 dir * e};
        for (ObjectId id = 0; id < 4; ++id) {
          Trajectory traj(id);
          for (Tick t = 0; t < 20; ++t) {
            // Gappy sampling: interior ticks thinned, so most positions
            // are virtual points interpolated by CMC.
            if (gappy && t % 3 != 0 && t != 19) continue;
            const Point p =
                Point(10.1, -3.7) + velocity * static_cast<double>(t) +
                offsets[id];
            traj.Append(p.x, p.y, t);
          }
          db.Add(std::move(traj));
        }
        const ConvoyQuery query{4, 10, e};
        const auto expected = Cmc(db, query);
        for (const auto variant : {CutsVariant::kCuts, CutsVariant::kCutsPlus,
                                   CutsVariant::kCutsStar}) {
          for (const Tick lambda : {Tick{-1}, Tick{1}, Tick{4}}) {
            CutsFilterOptions options;
            options.lambda = lambda;
            EXPECT_TRUE(
                SameResultSet(expected, Cuts(db, query, variant, options)))
                << ToString(variant) << " e=" << e << " dir=(" << dir.x
                << "," << dir.y << ") gappy=" << gappy
                << " lambda=" << lambda << " cmc=" << expected.size();
          }
        }
      }
    }
  }
}

// Irregular sampling (taxi-style) stresses the interpolation-aware bounds.
class CutsIrregularSamplingTest : public ::testing::TestWithParam<int> {};

TEST_P(CutsIrregularSamplingTest, ExactOnIrregularlySampledData) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db =
      RandomClumpyDb(rng, 18, 70, 50.0, 0.7, /*keep_prob=*/0.45);
  const ConvoyQuery query{2, 8, 4.0};
  const auto expected = Cmc(db, query);

  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    const auto got = Cuts(db, query, variant);
    EXPECT_TRUE(SameResultSet(expected, got))
        << ToString(variant) << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutsIrregularSamplingTest,
                         ::testing::Range(900, 910));

// Large lambda (sloppy filter) and tiny lambda (tight filter) must both be
// correct; only performance may differ.
TEST(CutsTest, ExtremeLambdaStillExact) {
  Rng rng(4242);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 16, 48, 40.0, 0.8);
  const ConvoyQuery query{2, 6, 4.0};
  const auto expected = Cmc(db, query);
  for (const Tick lambda : {Tick{1}, Tick{2}, Tick{48}, Tick{100}}) {
    CutsFilterOptions options;
    options.lambda = lambda;
    const auto got = Cuts(db, query, CutsVariant::kCutsStar, options);
    EXPECT_TRUE(SameResultSet(expected, got)) << "lambda=" << lambda;
  }
}

TEST(CutsTest, HugeDeltaStillExact) {
  // Absurd tolerance: everything collapses to 2-point lines, the filter
  // admits nearly everything, refinement still fixes it.
  Rng rng(777);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 14, 40, 40.0, 0.8);
  const ConvoyQuery query{2, 5, 4.0};
  const auto expected = Cmc(db, query);
  CutsFilterOptions options;
  options.delta = 1000.0;
  const auto got = Cuts(db, query, CutsVariant::kCuts, options);
  EXPECT_TRUE(SameResultSet(expected, got));
}

TEST(CutsTest, ActualToleranceNeverLoosensFilter) {
  // Figure 14's claim: actual tolerances yield no more candidates than the
  // global tolerance (they are <= the global delta everywhere).
  Rng rng(31);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 24, 60, 50.0, 0.8);
  const ConvoyQuery query{3, 6, 4.0};
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsStar}) {
    CutsFilterOptions with = MakeFilterOptions(variant);
    with.delta = 2.0;
    with.lambda = 5;
    CutsFilterOptions without = with;
    without.use_actual_tolerance = false;

    DiscoveryStats stats_with;
    DiscoveryStats stats_without;
    (void)CutsFilter(db, query, with, &stats_with);
    (void)CutsFilter(db, query, without, &stats_without);
    EXPECT_LE(stats_with.refinement_unit, stats_without.refinement_unit + 1e-6)
        << ToString(variant);
  }
}

TEST(CutsTest, ScanFilterGivesCmcConvoys) {
  Rng rng(606);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 24, 60, 50.0, 0.8);
  const ConvoyQuery query{3, 6, 4.0};
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsStar}) {
    EXPECT_TRUE(SameResultSet(Cmc(db, query), Cuts(db, query, variant)))
        << ToString(variant);
  }
}

TEST(CutsTest, ParallelRefinementGivesSameConvoys) {
  Rng rng(909);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 24, 60, 50.0, 0.8);
  ConvoyQuery query{2, 5, 4.0};
  const auto exact = Cmc(db, query);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    query.num_threads = threads;
    EXPECT_TRUE(SameResultSet(exact, Cuts(db, query, CutsVariant::kCutsStar)))
        << threads << " thread(s)";
  }
}

// The candidate-only overload (no member sets: every alive object per
// window) returns the same convoys as the filter-result overload, and the
// pruned refinement never clusters more ticks than the unpruned one.
TEST(CutsTest, CandidateOnlyRefinementMatchesPrunedRefinement) {
  Rng rng(4711);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 30, 80, 60.0, 0.8, 0.8);
  const ConvoyQuery query{3, 6, 4.0};
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    const CutsFilterResult filtered =
        CutsFilter(db, query, MakeFilterOptions(variant));
    DiscoveryStats pruned_stats;
    const auto pruned = CutsRefine(db, query, filtered, &pruned_stats);
    DiscoveryStats full_stats;
    const auto full = CutsRefine(db, query, filtered.candidates,
                                 RefineMode::kProjected, &full_stats);
    EXPECT_TRUE(SameResultSet(pruned, full)) << ToString(variant);
    EXPECT_TRUE(SameResultSet(pruned, Cmc(db, query))) << ToString(variant);
    EXPECT_LE(pruned_stats.num_clusterings, full_stats.num_clusterings)
        << ToString(variant);
  }
}

// The filter's member sets: one per partition, each ascending, and each
// the union of the objects of the candidates' clusters — every object of
// every candidate is a member of every partition the candidate spans.
TEST(CutsTest, FilterRecordsPartitionMembers) {
  Rng rng(5150);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 24, 60, 50.0, 0.8);
  const ConvoyQuery query{3, 6, 4.0};
  CutsFilterOptions options = MakeFilterOptions(CutsVariant::kCutsStar);
  options.lambda = 4;
  const CutsFilterResult filtered = CutsFilter(db, query, options);
  const PartitionMembers& members = filtered.members;
  EXPECT_EQ(members.begin, db.BeginTick());
  EXPECT_EQ(members.length, 4);
  EXPECT_EQ(members.NumPartitions(),
            static_cast<size_t>((db.EndTick() - db.BeginTick()) / 4 + 1));
  EXPECT_FALSE(members.PartitionOf(db.BeginTick() - 1).has_value());
  EXPECT_FALSE(members.PartitionOf(db.EndTick() + 4).has_value());
  for (size_t p = 0; p < members.NumPartitions(); ++p) {
    const auto ids = members.Of(p);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << p;
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << p;
  }
  ASSERT_FALSE(filtered.candidates.empty());
  for (const Candidate& cand : filtered.candidates) {
    for (Tick t = cand.start_tick; t <= cand.end_tick; ++t) {
      const std::optional<size_t> p = members.PartitionOf(t);
      ASSERT_TRUE(p.has_value()) << t;
      const auto ids = members.Of(*p);
      EXPECT_TRUE(std::includes(ids.begin(), ids.end(), cand.objects.begin(),
                                cand.objects.end()))
          << "tick " << t;
    }
  }
}

TEST(CutsTest, PhaseTimingsAccumulate) {
  Rng rng(8);
  const TrajectoryDatabase db = RandomClumpyDb(rng, 20, 60, 50.0, 0.8);
  DiscoveryStats stats;
  (void)Cuts(db, ConvoyQuery{3, 6, 4.0}, CutsVariant::kCutsStar, {}, &stats);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.simplify_seconds, 0.0);
  EXPECT_GT(stats.filter_seconds, 0.0);
  EXPECT_GE(stats.total_seconds, stats.simplify_seconds);
  EXPECT_GT(stats.vertex_reduction_percent, -1e-9);
}

}  // namespace
}  // namespace convoy
