#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>

namespace perfbench {

using convoy::ConvoyQuery;
using convoy::Tick;

namespace {

/// Scenes come from one fixed seed — the one the workloads were sized
/// at — while --seed draws the query lists and feeds. Scenes from other
/// seeds differ by up to 50% in refinement cost (CattleLike p50 87-132 ms
/// over seeds 101-105), which would swamp every regression bound.
constexpr uint64_t kSceneSeed = 43;

}  // namespace

QueryWorkload MakeCattleSweep(uint64_t seed, Scale scale) {
  QueryWorkload w;
  w.name = "cattle_sweep";
  const convoy::ScenarioConfig config =
      convoy::CattleLikeConfig(scale == Scale::kToy ? 0.01 : 0.125);
  w.db = convoy::GenerateScenario(config, kSceneSeed).db;
  const ConvoyQuery base = config.query;  // m=2, k=180, e=25
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(0.95, 1.05);
  // Eight k values per m, log-spaced over [k/2, 4k]: a smooth latency
  // distribution, so its quantiles do not sit in a gap between two
  // query shapes.
  for (size_t m : {size_t{2}, size_t{3}, size_t{4}}) {
    for (int j = 0; j < 8; ++j) {
      const double k = 0.5 * static_cast<double>(base.k) *
                       std::pow(2.0, 3.0 * j / 7.0) * jitter(rng);
      w.queries.push_back(ConvoyQuery{m, static_cast<Tick>(std::llround(k)),
                                      base.e});
    }
  }
  std::shuffle(w.queries.begin(), w.queries.end(), rng);
  return w;
}

QueryWorkload MakeDenseESweep(uint64_t seed, Scale scale) {
  QueryWorkload w;
  w.name = "dense_esweep";
  w.fresh_engine_per_query = true;
  convoy::ScenarioConfig c = convoy::CarLikeConfig(1.0);
  c.num_objects = scale == Scale::kToy ? 200 : 1000;
  c.time_domain = scale == Scale::kToy ? 120 : 300;
  c.lifetime_fraction = 1.0;
  c.num_groups = scale == Scale::kToy ? 5 : 25;
  c.query.k = 60;
  c.group_duration_min = 80;
  c.group_duration_max = 200;
  w.db = convoy::GenerateScenario(c, kSceneSeed).db;
  // Distinct e values spread over [0.6, 1.4] x the preset's e, each
  // jittered inside its slot by the seed so no two runs share a list.
  const size_t n = scale == Scale::kToy ? 6 : 32;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const double slot =
        (static_cast<double>(i) + jitter(rng)) / static_cast<double>(n);
    w.queries.push_back(ConvoyQuery{c.query.m, c.query.k,
                                    c.query.e * (0.6 + 0.8 * slot)});
  }
  std::shuffle(w.queries.begin(), w.queries.end(), rng);
  return w;
}

LiveWorkload MakeIngestLive(uint64_t seed, Scale scale, double seconds) {
  LiveWorkload w;
  const bool toy = scale == Scale::kToy;
  w.tick_period_s = 0.01;  // 100 ticks/s
  w.prefix_ticks = toy ? 40 : 400;
  const auto live_ticks =
      static_cast<size_t>(std::ceil(std::max(seconds, 0.1) / w.tick_period_s));
  convoy::StreamFeedConfig config;
  config.num_objects = toy ? 60 : 250;
  config.ticks = static_cast<Tick>(w.prefix_ticks + live_ticks);
  config.batch_rows = 50;
  config.num_groups = toy ? 4 : 20;
  config.group_size = 5;
  config.group_spread = 5.0;
  // Churn and dropout as convoy_loadgen feeds them.
  config.dropout = 0.05;
  config.leave_prob = 0.02;
  config.rejoin_prob = 0.3;
  w.feed = convoy::GenerateStreamFeed(config, seed);
  // The generator sizes k to a quarter of the feed; a live stream wants
  // convoys that close while it runs.
  w.feed.query.k = 40;
  w.analyst_query = w.feed.query;
  w.carry_forward = 2;
  w.think_s = 0.2;
  return w;
}

convoy::StreamFeed FeedFromScene(const convoy::TrajectoryDatabase& db,
                                 const ConvoyQuery& query, size_t max_ticks,
                                 size_t batch_rows, uint64_t seed) {
  std::map<Tick, std::vector<convoy::FeedRow>> by_tick;
  const Tick begin = db.BeginTick();
  const Tick end = begin + static_cast<Tick>(max_ticks);
  for (const convoy::Trajectory& traj : db.trajectories()) {
    for (const convoy::TimedPoint& p : traj.samples()) {
      if (p.t >= begin && p.t < end) {
        by_tick[p.t].push_back(convoy::FeedRow{traj.id(), p.pos});
      }
    }
  }
  convoy::StreamFeed feed;
  feed.query = query;
  std::mt19937_64 rng(seed);
  // Feed ticks are renumbered from 0 so they index the producer's arrays.
  for (auto& [tick, rows] : by_tick) {
    std::shuffle(rows.begin(), rows.end(), rng);
    convoy::FeedTick ft;
    ft.tick = tick - begin;
    ft.total_rows = rows.size();
    for (size_t i = 0; i < rows.size(); i += batch_rows) {
      ft.batches.emplace_back(
          rows.begin() + static_cast<std::ptrdiff_t>(i),
          rows.begin() +
              static_cast<std::ptrdiff_t>(std::min(rows.size(), i + batch_rows)));
    }
    feed.ticks.push_back(std::move(ft));
  }
  return feed;
}

convoy::TrajectoryDatabase DbFromFeed(const convoy::StreamFeed& feed,
                                      size_t ticks) {
  std::map<convoy::ObjectId, std::vector<convoy::TimedPoint>> rows;
  for (size_t t = 0; t < std::min(ticks, feed.ticks.size()); ++t) {
    const convoy::FeedTick& ft = feed.ticks[t];
    for (const auto& batch : ft.batches) {
      for (const convoy::FeedRow& row : batch) {
        rows[row.id].emplace_back(row.pos.x, row.pos.y, ft.tick);
      }
    }
  }
  convoy::TrajectoryDatabase db;
  for (auto& [id, samples] : rows) {
    db.Add(convoy::Trajectory(id, std::move(samples)));
  }
  return db;
}

size_t FeedRows(const convoy::StreamFeed& feed, size_t from, size_t to) {
  size_t rows = 0;
  for (size_t t = from; t < std::min(to, feed.ticks.size()); ++t) {
    rows += feed.ticks[t].total_rows;
  }
  return rows;
}

}  // namespace perfbench
