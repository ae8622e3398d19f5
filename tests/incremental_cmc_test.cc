// Incremental CMC (core/incremental_cmc.h) against Cmc(): on row tables
// that grow the way a live stream's do, the answer after every refresh
// must equal a from-scratch Cmc() over the same rows.

#include "core/incremental_cmc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cmc.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace convoy {
namespace {

using testutil::FromRowTable;

/// The shape of a seeded live feed. Objects travel in groups (so convoys
/// form and break) and report per tick in `batches` batches; a refresh
/// may follow any batch, so some land between the batches of one tick.
struct FeedShape {
  size_t objects = 18;
  size_t groups = 3;
  Tick ticks = 240;
  size_t batches = 3;
  double report_prob = 0.92;     ///< per alive object and tick
  double overwrite_prob = 0.05;  ///< a second report in the same tick
  Tick join_spread = 0;          ///< first reports spread over [0, this)
  double silence_prob = 0.0;     ///< per object and tick: fall silent...
  Tick silence_min = 0;          ///< ...for this many ticks at least
  Tick silence_max = 0;          ///< ...and at most
  double empty_tick_prob = 0.0;  ///< per tick: nobody reports
  Tick thin_from = -1;           ///< in [thin_from, thin_to) only objects
  Tick thin_to = -1;             ///< 0 and 1 report (fewer than m = 3)
  double refresh_prob = 0.25;    ///< per batch
};

struct FeedRun {
  size_t refreshes = 0;
  size_t nonempty_answers = 0;
  size_t rewinds_past_two_checkpoints = 0;
  size_t mid_tick_refreshes = 0;
  size_t max_checkpoints = 0;
};

/// Streams a seeded feed into a row table and refreshes an IncrementalCmc
/// along the way, comparing every answer with Cmc() over the rows.
FeedRun RunFeed(const FeedShape& shape, const ConvoyQuery& query,
                uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> centers(shape.groups);
  for (Point& c : centers) c = Point(rng.Uniform(0, 40), rng.Uniform(0, 40));
  std::vector<Point> offsets(shape.objects);
  std::vector<Tick> first(shape.objects);
  std::vector<Tick> silent_until(shape.objects, -1);
  for (size_t o = 0; o < shape.objects; ++o) {
    offsets[o] = Point(rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5));
    first[o] = shape.join_spread > 0 ? rng.UniformInt(0, shape.join_spread - 1)
                                     : 0;
  }

  RowTable rows;
  IncrementalCmc inc(query);
  FeedRun run;
  const auto refresh = [&](bool mid_tick) {
    IncrementalReport report;
    const std::vector<Convoy> got = inc.Refresh(inc.Plan(rows), &report);
    const std::vector<Convoy> want = Cmc(FromRowTable(rows), query);
    EXPECT_EQ(got, want) << "seed " << seed << " refresh " << run.refreshes
                         << " at tick " << report.window.end << " resumed at "
                         << report.window.resume;
    ++run.refreshes;
    run.nonempty_answers += got.empty() ? 0 : 1;
    run.mid_tick_refreshes += mid_tick ? 1 : 0;
    if (!report.window.fresh &&
        report.window.end - report.window.resume >
            2 * IncrementalCmc::kCheckpointTicks) {
      ++run.rewinds_past_two_checkpoints;
    }
    run.max_checkpoints = std::max(run.max_checkpoints, report.checkpoints);
  };

  for (Tick t = 0; t < shape.ticks; ++t) {
    for (Point& c : centers) {
      c = c + Point(rng.Uniform(-0.6, 0.6), rng.Uniform(-0.6, 0.6));
    }
    const bool empty_tick = rng.Chance(shape.empty_tick_prob);
    const bool thin = t >= shape.thin_from && t < shape.thin_to;
    // Each tick's reports, in a shuffled order, cut into batches.
    std::vector<size_t> order;
    for (size_t o = 0; o < shape.objects; ++o) {
      if (empty_tick || t < first[o] || (thin && o >= 2)) continue;
      if (t < silent_until[o]) continue;
      if (shape.silence_max > 0 && rng.Chance(shape.silence_prob)) {
        silent_until[o] =
            t + rng.UniformInt(shape.silence_min, shape.silence_max);
        continue;
      }
      if (!rng.Chance(shape.report_prob)) continue;
      order.push_back(o);
      if (rng.Chance(shape.overwrite_prob)) order.push_back(o);
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(i) - 1))]);
    }
    for (size_t b = 0; b < shape.batches; ++b) {
      const size_t lo = order.size() * b / shape.batches;
      const size_t hi = order.size() * (b + 1) / shape.batches;
      for (size_t i = lo; i < hi; ++i) {
        const size_t o = order[i];
        const Point jitter(rng.Uniform(-0.2, 0.2), rng.Uniform(-0.2, 0.2));
        AcceptReport(&rows, static_cast<ObjectId>(o),
               centers[o % shape.groups] + offsets[o] + jitter, t);
      }
      if (rng.Chance(shape.refresh_prob)) refresh(b + 1 < shape.batches);
    }
  }
  refresh(false);  // the stream's end: the last tick is closed
  EXPECT_GT(run.nonempty_answers, 0u) << "seed " << seed << " found no convoy";
  return run;
}

const ConvoyQuery kQuery{3, 6, 2.0};

TEST(IncrementalCmcTest, AppendsAndMidTickRefreshesMatchCmc) {
  FeedShape shape;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const FeedRun run = RunFeed(shape, kQuery, seed);
    EXPECT_GT(run.mid_tick_refreshes, 0u);
    // ~240 ticks at one checkpoint per 32 ticks, plus the first tick's.
    EXPECT_GE(run.max_checkpoints, 7u);
  }
}

TEST(IncrementalCmcTest, SameTickOverwritesMatchCmc) {
  FeedShape shape;
  shape.overwrite_prob = 0.4;
  shape.batches = 4;
  shape.refresh_prob = 0.5;
  for (uint64_t seed = 11; seed <= 13; ++seed) RunFeed(shape, kQuery, seed);
}

TEST(IncrementalCmcTest, ObjectsFirstAppearingMidStreamMatchCmc) {
  FeedShape shape;
  shape.join_spread = 200;
  for (uint64_t seed = 21; seed <= 23; ++seed) RunFeed(shape, kQuery, seed);
}

TEST(IncrementalCmcTest, SilencesReopeningAcrossCheckpointsMatchCmc) {
  // Objects fall silent for 70-200 ticks — two to six checkpoints — and
  // their next report rewinds the sweep to before the silence began.
  FeedShape shape;
  shape.ticks = 400;
  shape.silence_prob = 0.004;
  shape.silence_min = 70;
  shape.silence_max = 200;
  size_t deep_rewinds = 0;
  for (uint64_t seed = 31; seed <= 34; ++seed) {
    deep_rewinds += RunFeed(shape, kQuery, seed).rewinds_past_two_checkpoints;
  }
  EXPECT_GT(deep_rewinds, 0u);
}

TEST(IncrementalCmcTest, AllSilentTicksMatchCmc) {
  // Whole ticks without a report: objects are interpolated across them,
  // and refreshes land while the rows' last tick stands still.
  FeedShape shape;
  shape.empty_tick_prob = 0.15;
  for (uint64_t seed = 41; seed <= 43; ++seed) RunFeed(shape, kQuery, seed);
}

TEST(IncrementalCmcTest, TicksWithFewerThanMObjectsMatchCmc) {
  FeedShape shape;
  shape.thin_from = 60;
  shape.thin_to = 130;
  for (uint64_t seed = 51; seed <= 53; ++seed) RunFeed(shape, kQuery, seed);
}

TEST(IncrementalCmcTest, EverythingAtOnceMatchesCmc) {
  FeedShape shape;
  shape.ticks = 360;
  shape.overwrite_prob = 0.2;
  shape.join_spread = 150;
  shape.silence_prob = 0.003;
  shape.silence_min = 40;
  shape.silence_max = 120;
  shape.empty_tick_prob = 0.05;
  shape.thin_from = 200;
  shape.thin_to = 240;
  for (uint64_t seed = 61; seed <= 64; ++seed) RunFeed(shape, kQuery, seed);
}

TEST(IncrementalCmcTest, RefreshesOnlyTheChangedTail) {
  // Two objects reporting every tick: a refresh after tick t clusters
  // from the checkpoint at or before t (the last tick may still change)
  // through t + 1, never the history before it.
  RowTable rows;
  IncrementalCmc inc(ConvoyQuery{2, 3, 1.0});
  const auto tick = [&rows](Tick t) {
    AcceptReport(&rows, 1, Point(0.0, 0.1 * static_cast<double>(t)), t);
    AcceptReport(&rows, 2, Point(0.5, 0.1 * static_cast<double>(t)), t);
  };
  for (Tick t = 0; t < 100; ++t) tick(t);
  IncrementalReport report;
  inc.Refresh(inc.Plan(rows), &report);
  EXPECT_TRUE(report.window.fresh);
  EXPECT_EQ(report.ticks_clustered, 100u);
  // Checkpoints at ticks 0, 32, 64 and 96.
  EXPECT_EQ(report.checkpoints, 4u);
  EXPECT_GT(report.checkpoint_bytes, 0u);

  tick(100);
  const std::vector<Convoy> got = inc.Refresh(inc.Plan(rows), &report);
  EXPECT_FALSE(report.window.fresh);
  EXPECT_EQ(report.window.dirty_from, 99);
  EXPECT_EQ(report.window.resume, 96);
  EXPECT_EQ(report.window.checkpoint, 3u);
  EXPECT_EQ(report.ticks_clustered, 5u);
  EXPECT_EQ(report.tail_objects, 2u);
  EXPECT_EQ(got, Cmc(FromRowTable(rows), ConvoyQuery{2, 3, 1.0}));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].end_tick, 100);

  const std::string explain = report.Explain(ConvoyQuery{2, 3, 1.0}, true);
  EXPECT_NE(explain.find("CMC, live incremental"), std::string::npos);
  EXPECT_NE(explain.find("resume:      tick 96 from checkpoint 3"),
            std::string::npos);
  EXPECT_NE(explain.find("clustered:   5 of 101 ticks"), std::string::npos);
}

TEST(IncrementalCmcTest, EmptyRowsAnswerNothing) {
  IncrementalCmc inc(kQuery);
  IncrementalReport report;
  EXPECT_TRUE(inc.Refresh(inc.Plan(RowTable{}), &report).empty());
  EXPECT_EQ(report.ticks_clustered, 0u);
  // The first rows then start a fresh sweep.
  RowTable rows;
  AcceptReport(&rows, 4, Point(0, 0), 7);
  inc.Refresh(inc.Plan(rows), &report);
  EXPECT_TRUE(report.window.fresh);
  EXPECT_EQ(report.window.resume, 7);
}

}  // namespace
}  // namespace convoy
