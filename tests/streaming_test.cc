#include "core/streaming.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/cmc.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "traj/interpolate.h"

namespace convoy {
namespace {

using testutil::FromXRows;
using testutil::RandomClumpyDb;

// Feeds a database tick by tick (with the same interpolated virtual points
// CMC would use) and collects everything the stream emits.
std::vector<Convoy> RunStream(const TrajectoryDatabase& db,
                              const ConvoyQuery& query,
                              StreamingCmc::Options options = {}) {
  StreamingCmc stream(query, options);
  std::vector<Convoy> out;
  for (Tick t = db.BeginTick(); t <= db.EndTick(); ++t) {
    EXPECT_TRUE(stream.BeginTick(t).ok());
    for (const Trajectory& traj : db.trajectories()) {
      const auto pos = InterpolateAt(traj, t);
      if (pos.has_value()) {
        EXPECT_TRUE(stream.Report(traj.id(), *pos).ok());
      }
    }
    for (Convoy& c : stream.EndTick().value()) out.push_back(std::move(c));
  }
  for (Convoy& c : stream.Finish().value()) out.push_back(std::move(c));
  return RemoveDominated(std::move(out));
}

TEST(StreamingCmcTest, EmptyStream) {
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  EXPECT_TRUE(stream.Finish().value().empty());
}

TEST(StreamingCmcTest, SimpleConvoyEmittedAtFinish) {
  StreamingCmc stream(ConvoyQuery{2, 3, 1.0});
  for (Tick t = 0; t < 5; ++t) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(static_cast<double>(t), 0.0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(static_cast<double>(t), 0.5)).ok());
    EXPECT_TRUE(stream.EndTick().value().empty());  // still alive
  }
  const auto result = stream.Finish().value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].objects, (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(result[0].start_tick, 0);
  EXPECT_EQ(result[0].end_tick, 4);
}

TEST(StreamingCmcTest, ConvoyEmittedWhenGroupDisperses) {
  StreamingCmc stream(ConvoyQuery{2, 3, 1.0});
  for (Tick t = 0; t < 4; ++t) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(static_cast<double>(t), 0.0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(static_cast<double>(t), 0.5)).ok());
    ASSERT_TRUE(stream.EndTick().ok());
  }
  // Tick 4: they split; the convoy closes *now*, not at Finish.
  ASSERT_TRUE(stream.BeginTick(4).ok());
  ASSERT_TRUE(stream.Report(0, Point(4, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(400, 0)).ok());
  const auto closed = stream.EndTick().value();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].end_tick, 3);
  EXPECT_TRUE(stream.Finish().value().empty());
}

TEST(StreamingCmcTest, SkippedTicksBreakConsecutiveness) {
  StreamingCmc stream(ConvoyQuery{2, 3, 1.0});
  for (const Tick t : {0, 1, 2}) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    ASSERT_TRUE(stream.EndTick().ok());
  }
  // Jump to tick 5: ticks 3 and 4 are processed as empty, closing the
  // 3-tick convoy.
  ASSERT_TRUE(stream.BeginTick(5).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  const auto closed = stream.EndTick().value();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].start_tick, 0);
  EXPECT_EQ(closed[0].end_tick, 2);
  // The restarted pair has only 1 tick so far.
  EXPECT_TRUE(stream.Finish().value().empty());
}

// A gap is one empty step however long: it closes what explicitly empty
// ticks close, with and without carry-forward. A skipped tick carries no
// position, so the feed goes silent for the carry window before its gap.
TEST(StreamingCmcTest, GapClosesWhatExplicitEmptyTicksClose) {
  for (const Tick carry : {Tick{0}, Tick{2}}) {
    SCOPED_TRACE("carry_forward_ticks " + std::to_string(carry));
    StreamingCmc::Options options;
    options.carry_forward_ticks = carry;
    // The pair {0, 1} travels over ticks [0, 5], is silent while a lone
    // object 9 reports for `carry` ticks, and travels again after ten
    // ticks that the gap stream skips and the explicit one feeds empty.
    const Tick gap_begin = 6 + carry;
    const Tick gap_end = gap_begin + 9;
    const auto run = [&](bool skip_gap) {
      StreamingCmc stream(ConvoyQuery{2, 3, 1.0}, options);
      std::vector<Convoy> closed;
      for (Tick t = 0; t <= gap_end + 6; ++t) {
        const bool in_gap = t >= gap_begin && t <= gap_end;
        if (in_gap && skip_gap) continue;
        EXPECT_TRUE(stream.BeginTick(t).ok());
        if (t < 6 || t > gap_end) {
          EXPECT_TRUE(stream.Report(0, Point(0, 0)).ok());
          EXPECT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
        } else if (!in_gap) {
          EXPECT_TRUE(stream.Report(9, Point(100, 100)).ok());
        }
        const auto ended = stream.EndTick();
        closed.insert(closed.end(), ended->begin(), ended->end());
      }
      const auto finished = stream.Finish();
      closed.insert(closed.end(), finished->begin(), finished->end());
      return closed;
    };
    const std::vector<Convoy> explicit_ticks = run(/*skip_gap=*/false);
    EXPECT_EQ(run(/*skip_gap=*/true), explicit_ticks);
    ASSERT_EQ(explicit_ticks.size(), 2u);
    EXPECT_EQ(explicit_ticks[0], (Convoy{{0, 1}, 0, 5 + carry}));
    EXPECT_EQ(explicit_ticks[1], (Convoy{{0, 1}, gap_end + 1, gap_end + 6}));
  }
}

// A jump to the top of the tick range costs one tracker step, not one per
// skipped tick.
TEST(StreamingCmcTest, FarTickJumpIsOneStep) {
  TraceSession trace;
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  stream.set_trace(&trace);
  for (const Tick t : {Tick{0}, std::numeric_limits<Tick>::max()}) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    EXPECT_TRUE(stream.EndTick().value().empty());  // lifetime 1 < k
  }
  EXPECT_TRUE(stream.Finish().value().empty());
  // Tick 0, the gap, and INT64_MAX.
  EXPECT_EQ(trace.counter(TraceCounter::kTrackerSteps), 3u);
}

TEST(StreamingCmcTest, SilentObjectVanishesWithoutCarry) {
  StreamingCmc stream(ConvoyQuery{2, 3, 1.0});
  for (const Tick t : {0, 1}) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    ASSERT_TRUE(stream.EndTick().ok());
  }
  ASSERT_TRUE(stream.BeginTick(2).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());  // object 1 silent -> pair broken
  ASSERT_TRUE(stream.EndTick().ok());
  EXPECT_TRUE(stream.Finish().value().empty());  // lifetime 2 < k
}

TEST(StreamingCmcTest, CarryForwardBridgesSilence) {
  StreamingCmc::Options options;
  options.carry_forward_ticks = 2;
  StreamingCmc stream(ConvoyQuery{2, 4, 1.0}, options);
  for (const Tick t : {0, 1}) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    ASSERT_TRUE(stream.EndTick().ok());
  }
  ASSERT_TRUE(stream.BeginTick(2).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());  // 1 carried forward at (0, 0.5)
  ASSERT_TRUE(stream.EndTick().ok());
  ASSERT_TRUE(stream.BeginTick(3).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  const auto result = stream.Finish().value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].Lifetime(), 4);
}

TEST(StreamingCmcTest, LastReportPerTickWins) {
  StreamingCmc stream(ConvoyQuery{2, 1, 1.0});
  ASSERT_TRUE(stream.BeginTick(0).ok());
  ASSERT_TRUE(stream.Report(0, Point(500, 500)).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());  // corrected fix
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  const auto result = stream.Finish().value();
  ASSERT_EQ(result.size(), 1u);
}

TEST(StreamingCmcTest, LiveCandidatesVisible) {
  StreamingCmc stream(ConvoyQuery{2, 10, 1.0});
  ASSERT_TRUE(stream.BeginTick(0).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  EXPECT_EQ(stream.LiveCandidates(), 1u);
}

// The headline property: streaming output == batch CMC output, when fed
// the same virtual points.
class StreamingEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingEquivalenceTest, MatchesBatchCmc) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const TrajectoryDatabase db = RandomClumpyDb(rng, 18, 50, 50.0, 0.8, 0.9);
  const ConvoyQuery query{2, 5, 4.0};
  const auto batch = Cmc(db, query);
  const auto streamed = RunStream(db, query);
  EXPECT_TRUE(SameResultSet(batch, streamed))
      << "batch=" << batch.size() << " streamed=" << streamed.size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalenceTest,
                         ::testing::Range(700, 712));

// Regression for the NDEBUG contract gap: a non-increasing tick used to be
// an assert (compiled out in release builds, silently corrupting candidate
// lifetimes). It must be a recoverable error that leaves the stream intact.
TEST(StreamingCmcTest, OutOfOrderTicksRejectedAndRecoverable) {
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  for (const Tick t : {0, 1}) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    ASSERT_TRUE(stream.EndTick().ok());
  }

  // A replayed tick and a tick from the past are both rejected...
  const Status replay = stream.BeginTick(1);
  EXPECT_EQ(replay.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.message().find("increasing"), std::string::npos);
  EXPECT_EQ(stream.BeginTick(-5).code(), StatusCode::kInvalidArgument);
  // ...without opening a tick or corrupting state.
  EXPECT_FALSE(stream.CurrentTick().has_value());
  EXPECT_EQ(stream.EndTick().status().code(),
            StatusCode::kFailedPrecondition);

  // The stream continues as if the bad input never arrived.
  ASSERT_TRUE(stream.BeginTick(2).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  const auto result = stream.Finish().value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].start_tick, 0);
  EXPECT_EQ(result[0].end_tick, 2);
}

TEST(StreamingCmcTest, ProtocolViolationsAreStatusErrors) {
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  // Report/EndTick outside a tick.
  EXPECT_EQ(stream.Report(0, Point(0, 0)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(stream.EndTick().status().code(),
            StatusCode::kFailedPrecondition);
  // Double BeginTick and Finish with a tick still open.
  ASSERT_TRUE(stream.BeginTick(0).ok());
  EXPECT_EQ(stream.BeginTick(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stream.Finish().status().code(),
            StatusCode::kFailedPrecondition);
  // The open tick is still usable after the rejected calls.
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  EXPECT_TRUE(stream.Finish().ok());
}

// ---------------------------------------------------------------------------
// Session-lifecycle edges the server's ingest path relies on: every
// misuse is a recoverable Status, never UB, and the documented behaviors
// below are what src/server/session.cc builds its state machine on.

TEST(StreamingCmcTest, ReportAfterFinishIsRecoverableError) {
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  for (const Tick t : {0, 1, 2}) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    ASSERT_TRUE(stream.EndTick().ok());
  }
  ASSERT_EQ(stream.Finish().value().size(), 1u);

  // Reports and EndTicks after Finish are rejected exactly like any
  // no-tick-open misuse — kFailedPrecondition, state untouched.
  EXPECT_EQ(stream.Report(0, Point(1, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(stream.EndTick().status().code(),
            StatusCode::kFailedPrecondition);
  // A second Finish is harmless: the tracker was already flushed.
  EXPECT_TRUE(stream.Finish().ok());
  EXPECT_TRUE(stream.Finish().value().empty());

  // Documented behavior (not an error): the stream may resume after
  // Finish with a later tick — monotonicity still holds across the
  // flush, and lifetimes restart from scratch.
  ASSERT_TRUE(stream.BeginTick(1).code() == StatusCode::kInvalidArgument);
  ASSERT_TRUE(stream.BeginTick(3).ok());
  ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
  ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
  ASSERT_TRUE(stream.EndTick().ok());
  EXPECT_TRUE(stream.Finish().value().empty());  // lifetime 1 < k
}

TEST(StreamingCmcTest, EndTickWithZeroReportsBreaksCandidates) {
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0});
  for (const Tick t : {0, 1}) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    ASSERT_TRUE(stream.EndTick().ok());
  }
  // An explicitly empty tick is valid input (the server forwards ticks
  // whose every report was dropped); it ends the running convoy.
  ASSERT_TRUE(stream.BeginTick(2).ok());
  const auto closed = stream.EndTick();
  ASSERT_TRUE(closed.ok());
  ASSERT_EQ(closed->size(), 1u);
  EXPECT_EQ((*closed)[0].start_tick, 0);
  EXPECT_EQ((*closed)[0].end_tick, 1);
  EXPECT_EQ(stream.LiveCandidates(), 0u);
  EXPECT_TRUE(stream.Finish().value().empty());
}

TEST(StreamingCmcTest, CarryForwardVanishAndReturn) {
  // Object 1 goes silent for two ticks, then returns. With
  // carry_forward_ticks = 2 the silence is bridged both times, so the
  // convoy spans the whole feed as one group.
  StreamingCmc::Options options;
  options.carry_forward_ticks = 2;
  StreamingCmc stream(ConvoyQuery{2, 2, 1.0}, options);
  std::vector<Convoy> closed;
  for (Tick t = 0; t < 7; ++t) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    const bool silent = t == 2 || t == 3;
    if (!silent) {
      ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    }
    const auto result = stream.EndTick();
    ASSERT_TRUE(result.ok());
    closed.insert(closed.end(), result->begin(), result->end());
  }
  EXPECT_TRUE(closed.empty());
  const auto final_result = stream.Finish().value();
  ASSERT_EQ(final_result.size(), 1u);
  EXPECT_EQ(final_result[0].objects, (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(final_result[0].start_tick, 0);
  EXPECT_EQ(final_result[0].end_tick, 6);
}

TEST(StreamingCmcTest, CarryForwardExpiryEndsTheConvoy) {
  // Same feed, but the silence (two ticks) outlives carry_forward = 1:
  // the group breaks at the vanish and reforms at the return.
  StreamingCmc::Options options;
  options.carry_forward_ticks = 1;
  StreamingCmc stream(ConvoyQuery{2, 3, 1.0}, options);
  std::vector<Convoy> closed;
  for (Tick t = 0; t < 8; ++t) {
    ASSERT_TRUE(stream.BeginTick(t).ok());
    ASSERT_TRUE(stream.Report(0, Point(0, 0)).ok());
    const bool silent = t == 3 || t == 4;
    if (!silent) {
      ASSERT_TRUE(stream.Report(1, Point(0, 0.5)).ok());
    }
    const auto result = stream.EndTick();
    ASSERT_TRUE(result.ok());
    closed.insert(closed.end(), result->begin(), result->end());
  }
  const auto final_result = stream.Finish().value();
  closed.insert(closed.end(), final_result.begin(), final_result.end());
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].start_tick, 0);
  EXPECT_EQ(closed[0].end_tick, 3);  // tick 3 bridged by carry-forward
  EXPECT_EQ(closed[1].start_tick, 5);
  EXPECT_EQ(closed[1].end_tick, 7);
}

TEST(StreamingCmcTest, HandcraftedEquivalence) {
  const auto db = FromXRows({{0, 1, 2, 3, 4, 5, 6},
                             {50, 20, 2.2, 3.2, 4.2, 30, 60},
                             {0.4, 1.4, 2.4, 3.4, 4.4, 5.4, 6.4}});
  const ConvoyQuery query{2, 3, 1.0};
  EXPECT_TRUE(SameResultSet(Cmc(db, query), RunStream(db, query)));
}

}  // namespace
}  // namespace convoy
