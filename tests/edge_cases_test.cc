// Degenerate and boundary inputs across the whole discovery stack: the
// cases a production deployment will eventually feed the library.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "convoy/convoy.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::FromXRows;

// ------------------------------------------------------------ queries -----

TEST(EdgeCaseTest, MEqualsOneReportsSingletons) {
  // m = 1: every alive object is its own cluster; convoys of one object
  // spanning their lifetimes qualify.
  const auto db = FromXRows({{0, 1, 2}}, 0.0);
  const auto result = Cmc(db, ConvoyQuery{1, 3, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].objects, (std::vector<ObjectId>{0}));
  EXPECT_EQ(result[0].Lifetime(), 3);
}

TEST(EdgeCaseTest, KEqualsOneMeansSingleTickMeetings) {
  // Two objects meet only at tick 1.
  const auto db = FromXRows({{0, 5, 10}, {50, 5.4, 60}});
  const auto result = Cmc(db, ConvoyQuery{2, 1, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].start_tick, 1);
  EXPECT_EQ(result[0].end_tick, 1);
}

TEST(EdgeCaseTest, ZeroRangeRequiresExactCoincidence) {
  const auto coincident = FromXRows({{1, 2, 3}, {1, 2, 3}}, 0.0);
  EXPECT_EQ(Cmc(coincident, ConvoyQuery{2, 3, 0.0}).size(), 1u);
  const auto apart = FromXRows({{1, 2, 3}, {1, 2, 3}}, 0.001);
  EXPECT_TRUE(Cmc(apart, ConvoyQuery{2, 3, 0.0}).empty());
}

TEST(EdgeCaseTest, HugeRangeGroupsEverything) {
  const auto db = FromXRows({{0, 1, 2}, {500, 501, 502}, {900, 901, 902}});
  const auto result = Cmc(db, ConvoyQuery{3, 3, 1e9});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].objects.size(), 3u);
}

TEST(EdgeCaseTest, MLargerThanPopulation) {
  const auto db = FromXRows({{0, 1}, {0, 1}}, 0.1);
  EXPECT_TRUE(Cmc(db, ConvoyQuery{5, 2, 10.0}).empty());
  EXPECT_TRUE(Cuts(db, ConvoyQuery{5, 2, 10.0}).empty());
}

TEST(EdgeCaseTest, KLargerThanDomain) {
  const auto db = FromXRows({{0, 1, 2}, {0, 1, 2}}, 0.1);
  EXPECT_TRUE(Cmc(db, ConvoyQuery{2, 100, 1.0}).empty());
  EXPECT_TRUE(Cuts(db, ConvoyQuery{2, 100, 1.0}).empty());
}

// ------------------------------------------------------------ databases ---

TEST(EdgeCaseTest, SingleTickDatabase) {
  const auto db = FromXRows({{0}, {0.3}, {0.6}});
  const auto result = Cmc(db, ConvoyQuery{3, 1, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(Cuts(db, ConvoyQuery{3, 1, 1.0}).size() == 1u);
}

TEST(EdgeCaseTest, DatabaseWithEmptyTrajectories) {
  TrajectoryDatabase db;
  db.Add(Trajectory(0));
  Trajectory a(1);
  Trajectory b(2);
  for (Tick t = 0; t < 4; ++t) {
    a.Append(static_cast<double>(t), 0.0, t);
    b.Append(static_cast<double>(t), 0.4, t);
  }
  db.Add(std::move(a));
  db.Add(std::move(b));
  db.Add(Trajectory(3));
  const ConvoyQuery query{2, 4, 1.0};
  EXPECT_EQ(Cmc(db, query).size(), 1u);
  EXPECT_EQ(Cuts(db, query).size(), 1u);

  // Only empty trajectories: an empty time domain, so no filter partition.
  TrajectoryDatabase hollow;
  hollow.Add(Trajectory(0));
  hollow.Add(Trajectory(1));
  EXPECT_TRUE(Cmc(hollow, query).empty());
  EXPECT_TRUE(Cuts(hollow, query).empty());
  EXPECT_TRUE(testutil::RunQuery(ConvoyEngine(hollow), query,
                                 AlgorithmChoice::kCutsStar)
                  .convoys()
                  .empty());
}

TEST(EdgeCaseTest, SingleSampleTrajectoriesAreHandled) {
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 3; ++id) {
    Trajectory traj(id);
    traj.Append(0.2 * static_cast<double>(id), 0.0, 5);
    db.Add(std::move(traj));
  }
  const auto result = Cmc(db, ConvoyQuery{3, 1, 1.0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].start_tick, 5);
  EXPECT_TRUE(SameResultSet(result, Cuts(db, ConvoyQuery{3, 1, 1.0},
                                         CutsVariant::kCutsStar)));
}

TEST(EdgeCaseTest, NegativeTicksWork) {
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 2; ++id) {
    Trajectory traj(id);
    for (Tick t = -10; t <= -5; ++t) {
      traj.Append(static_cast<double>(t), 0.3 * static_cast<double>(id), t);
    }
    db.Add(std::move(traj));
  }
  const ConvoyQuery query{2, 6, 1.0};
  const auto result = Cmc(db, query);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].start_tick, -10);
  EXPECT_EQ(result[0].end_tick, -5);
  EXPECT_TRUE(SameResultSet(result, Cuts(db, query)));
}

TEST(EdgeCaseTest, IdenticalTrajectories) {
  // Five clones of the same path: one convoy of all five.
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 5; ++id) {
    Trajectory traj(id);
    for (Tick t = 0; t < 6; ++t) {
      traj.Append(static_cast<double>(t) * 2.0, 1.0, t);
    }
    db.Add(std::move(traj));
  }
  const ConvoyQuery query{5, 6, 0.5};
  const auto result = Cmc(db, query);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].objects.size(), 5u);
  EXPECT_TRUE(SameResultSet(result, Cuts(db, query)));
}

TEST(EdgeCaseTest, StationaryObjects) {
  // Parked vehicles form a convoy too (nothing in Definition 3 requires
  // motion) — and stationary data is a degenerate input for DP (all
  // interior points collapse).
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 3; ++id) {
    Trajectory traj(id);
    for (Tick t = 0; t < 10; ++t) {
      traj.Append(0.2 * static_cast<double>(id), 7.0, t);
    }
    db.Add(std::move(traj));
  }
  const ConvoyQuery query{3, 10, 1.0};
  const auto cmc = Cmc(db, query);
  ASSERT_EQ(cmc.size(), 1u);
  for (const auto variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    EXPECT_TRUE(SameResultSet(cmc, Cuts(db, query, variant)));
  }
}

TEST(EdgeCaseTest, DisjointLifetimesNeverMeet) {
  // Same positions, non-overlapping lifetimes: no convoy.
  TrajectoryDatabase db;
  Trajectory a(0);
  for (Tick t = 0; t < 5; ++t) a.Append(static_cast<double>(t), 0, t);
  Trajectory b(1);
  for (Tick t = 10; t < 15; ++t) {
    b.Append(static_cast<double>(t - 10), 0, t);
  }
  db.Add(std::move(a));
  db.Add(std::move(b));
  const ConvoyQuery query{2, 2, 5.0};
  EXPECT_TRUE(Cmc(db, query).empty());
  EXPECT_TRUE(Cuts(db, query).empty());
}

// ----------------------------------------------------------- streaming ----

TEST(EdgeCaseTest, StreamingSingleTick) {
  StreamingCmc stream(ConvoyQuery{2, 1, 1.0});
  ASSERT_TRUE(stream.BeginTick(0).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  const auto closed = stream.EndTick().value();
  const auto finished = stream.Finish().value();
  EXPECT_EQ(closed.size() + finished.size(), 1u);
}

// ----------------------------------------------------------- bad input ----

// Malformed-CSV fuzz table: every row is hostile in a different way. The
// loader must never crash, never produce a non-finite coordinate, and must
// account for every line as parsed, skipped, or collapsed — in release
// builds, where no assert is watching.
TEST(EdgeCaseTest, MalformedCsvFuzzTable) {
  struct Case {
    const char* name;
    const char* line;
    bool accepted;  // does the row survive into the database?
  };
  const Case kCases[] = {
      {"plain garbage", "complete garbage", false},
      {"too few fields", "1,2,3", false},
      {"too many fields", "1,2,3,4,5", false},
      {"empty fields", ",,,", false},
      {"nan x", "1,0,nan,2", false},
      {"nan y", "1,0,2,NaN", false},
      {"inf x", "1,0,inf,2", false},
      {"negative inf y", "1,0,2,-inf", false},
      {"infinity spelled out", "1,0,infinity,2", false},
      {"overflow double", "1,0,1e999,2", false},
      {"overflow tick", "1,99999999999999999999,1,2", false},
      {"negative id", "-7,0,1,2", false},
      {"float id", "1.5,0,1,2", false},
      {"float tick", "1,0.5,1,2", false},
      {"hex number", "1,0,0x10,2", false},
      {"trailing junk on number", "1,0,3.5abc,2", false},
      {"embedded null-ish", "1,0,,2", false},
      {"semicolon separators", "1;0;1;2", false},
      {"huge but finite", "1,0,1e300,-1e300", true},
      {"scientific notation", "1,0,1.5e-3,2.5E+2", true},
      {"whitespace everywhere", " 1 ,\t0 , 1.0 ,\t2.0 ", true},
      {"negative tick", "1,-5,1,2", true},
  };
  for (const Case& c : kCases) {
    // A valid first row pins the header heuristic so every fuzz line is
    // judged as data, not as a tolerated header.
    std::istringstream in(std::string("0,0,0,0\n") + c.line + "\n");
    const CsvLoadResult result = LoadTrajectoriesCsv(in);
    ASSERT_TRUE(result.ok) << c.name;
    EXPECT_EQ(result.lines_parsed, c.accepted ? 2u : 1u) << c.name;
    EXPECT_EQ(result.lines_skipped, c.accepted ? 0u : 1u) << c.name;
    if (!c.accepted) {
      ASSERT_EQ(result.diagnostics.size(), 1u) << c.name;
      EXPECT_EQ(result.diagnostics[0].line_number, 2u) << c.name;
    }
    for (const Trajectory& traj : result.db.trajectories()) {
      for (const TimedPoint& p : traj.samples()) {
        EXPECT_TRUE(std::isfinite(p.pos.x) && std::isfinite(p.pos.y))
            << c.name;
      }
    }
  }
}

// A file that is nothing but garbage must load as ok (the *file* was
// readable) with an empty database and full accounting — and running a
// discovery over that empty database must return no convoys, not crash.
TEST(EdgeCaseTest, AllGarbageCsvYieldsEmptyDatabase) {
  std::istringstream in("header,line,is,fine\njunk\n1,2\nnan,nan,nan,nan\n");
  const CsvLoadResult result = LoadTrajectoriesCsv(in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_parsed, 0u);
  EXPECT_EQ(result.lines_skipped, 3u);  // header tolerated, rest rejected
  EXPECT_TRUE(result.db.Empty());
  EXPECT_TRUE(Cmc(result.db, ConvoyQuery{2, 2, 1.0}).empty());
  EXPECT_TRUE(Cuts(result.db, ConvoyQuery{2, 2, 1.0}).empty());
}

// ------------------------------------------------------------ simplify ----

TEST(EdgeCaseTest, SimplifyStationaryTrajectory) {
  Trajectory traj(0);
  for (Tick t = 0; t < 100; ++t) traj.Append(3.0, 4.0, t);
  for (const auto kind : {SimplifierKind::kDp, SimplifierKind::kDpPlus,
                          SimplifierKind::kDpStar}) {
    const SimplifiedTrajectory simp = Simplify(traj, 0.5, kind);
    EXPECT_EQ(simp.NumVertices(), 2u) << ToString(kind);
    EXPECT_DOUBLE_EQ(simp.MaxTolerance(), 0.0);
  }
}

TEST(EdgeCaseTest, SimplifyZigZagWithZeroDelta) {
  // delta = 0 must keep every non-collinear point and stay within bounds.
  Trajectory traj(0);
  for (Tick t = 0; t < 50; ++t) {
    traj.Append(static_cast<double>(t), t % 2 == 0 ? 0.0 : 1.0, t);
  }
  EXPECT_EQ(DouglasPeucker(traj, 0.0).NumVertices(), 50u);
  EXPECT_EQ(DpStar(traj, 0.0).NumVertices(), 50u);
}

// ------------------------------------------------- top of the tick range ---

// Four objects 0.5 apart, sampled at every tick of [INT64_MAX - 40,
// INT64_MAX - 1]: a store block, filter partition or refinement window
// whose end is computed as start + length overflows there.
// A stream replay of `db` — every tick's interpolated positions fed in
// order — returning every convoy it closes, dominance-pruned. The ticks
// are stepped by offset, so a database ending at INT64_MAX replays too.
std::vector<Convoy> StreamReplay(const TrajectoryDatabase& db,
                                 const ConvoyQuery& query) {
  StreamingCmc stream(query);
  std::vector<Convoy> closed;
  const uint64_t last = static_cast<uint64_t>(db.EndTick()) -
                        static_cast<uint64_t>(db.BeginTick());
  for (uint64_t offset = 0; offset <= last; ++offset) {
    const Tick t = static_cast<Tick>(
        static_cast<uint64_t>(db.BeginTick()) + offset);
    EXPECT_TRUE(stream.BeginTick(t).ok());
    for (const Trajectory& traj : db.trajectories()) {
      if (const auto pos = InterpolateAt(traj, t)) {
        EXPECT_TRUE(stream.Report(traj.id(), *pos).ok());
      }
    }
    const auto ended = stream.EndTick();
    closed.insert(closed.end(), ended->begin(), ended->end());
  }
  const auto finished = stream.Finish();
  closed.insert(closed.end(), finished->begin(), finished->end());
  return RemoveDominated(std::move(closed));
}

// Four objects 0.5 apart at every tick of [INT64_MAX - 40, last], for a
// last tick of INT64_MAX - 1 and of INT64_MAX itself: every tick loop,
// partition, window and checkpoint interval ends at the top of the tick
// range there. Every path must return promptly with CMC's answer, and
// every answer must verify.
TEST(EdgeCaseTest, TopOfTickRangeEveryPathMatchesCmc) {
  for (const int ticks : {40, 41}) {
    std::vector<std::vector<double>> xs(4);
    for (std::vector<double>& row : xs) {
      for (int t = 0; t < ticks; ++t) row.push_back(static_cast<double>(t));
    }
    const TrajectoryDatabase db =
        FromXRows(xs, 0.5, std::numeric_limits<Tick>::max() - 40);
    SCOPED_TRACE("last tick INT64_MAX - " +
                 std::to_string(std::numeric_limits<Tick>::max() -
                                db.EndTick()));
    const ConvoyQuery query{2, 5, 2.0};
    const std::vector<Convoy> want = Cmc(db, query);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(want[0].objects, (std::vector<ObjectId>{0, 1, 2, 3}));
    EXPECT_EQ(want[0].end_tick, db.EndTick());
    const auto check = [&](const std::vector<Convoy>& got,
                           const std::string& what) {
      EXPECT_EQ(got, want) << what;
      for (const Convoy& convoy : got) {
        EXPECT_TRUE(VerifyConvoy(db, query, convoy)) << what;
      }
    };

    const ConvoyEngine engine(db);
    for (const AlgorithmChoice choice :
         {AlgorithmChoice::kAuto, AlgorithmChoice::kCmc,
          AlgorithmChoice::kCuts, AlgorithmChoice::kCutsPlus,
          AlgorithmChoice::kCutsStar, AlgorithmChoice::kMc2}) {
      check(testutil::RunQuery(engine, query, choice).convoys(),
            std::string(ToString(choice)));
    }
    for (const Tick lambda : {Tick{-1}, Tick{7}}) {
      CutsFilterOptions options;
      options.lambda = lambda;
      check(Cuts(db, query, CutsVariant::kCutsStar, options),
            "Cuts(), lambda " + std::to_string(lambda));
    }
    check(FlockDiscovery(db, FlockQuery{query.m, query.k, 1.0}),
          "FlockDiscovery");
    check(StreamReplay(db, query), "StreamingCmc replay");

    // The live refresh, first over the rows up to 20 ticks before the end
    // and then over all of them, so the second refresh resumes from a
    // checkpoint near the top of the range.
    const auto rows_through = [&db](Tick last) {
      RowTable rows;
      for (const Trajectory& traj : db.trajectories()) {
        for (const TimedPoint& p : traj.samples()) {
          if (p.t <= last) AcceptReport(&rows, traj.id(), p.pos, p.t);
        }
      }
      return rows;
    };
    IncrementalCmc live(query);
    const RowTable partial = rows_through(db.EndTick() - 20);
    EXPECT_EQ(live.Refresh(live.Plan(partial)),
              Cmc(testutil::FromRowTable(partial), query));
    const RowTable rows = rows_through(db.EndTick());
    check(live.Refresh(live.Plan(rows)), "IncrementalCmc");
  }
}

// --------------------------------------------------------------- verify ---

TEST(EdgeCaseTest, VerifyEmptyConvoyRejected) {
  const auto db = FromXRows({{0, 1}, {0, 1}}, 0.1);
  EXPECT_FALSE(VerifyConvoy(db, ConvoyQuery{2, 1, 1.0}, Convoy{{}, 0, 1}));
}

TEST(EdgeCaseTest, VerifyUnknownObjectRejected) {
  const auto db = FromXRows({{0, 1}, {0, 1}}, 0.1);
  EXPECT_FALSE(
      VerifyConvoy(db, ConvoyQuery{2, 1, 1.0}, Convoy{{0, 99}, 0, 1}));
}

}  // namespace
}  // namespace convoy
