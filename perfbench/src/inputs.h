// Workload inputs, generated from the run's seed: the same seed always
// gives the same scene, query list and feed. Generation is never timed.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "convoy/convoy.h"

namespace perfbench {

/// kToy shrinks every workload to a few seconds of work for the
/// benchmark's own tests; kBench is what the recorded runs use.
enum class Scale { kBench, kToy };

/// A query workload: one scene plus the query list a pass walks through.
struct QueryWorkload {
  std::string name;
  convoy::TrajectoryDatabase db;
  std::vector<convoy::ConvoyQuery> queries;
  /// True when every query runs on a freshly opened engine (opened
  /// untimed), so every query misses the simplification cache. Distinct e
  /// values alone do not guarantee that: ComputeDelta is piecewise
  /// constant in e, and on the dense scene 32 distinct e values map to
  /// only a handful of deltas.
  bool fresh_engine_per_query = false;
};

/// CattleLike at bench scale 0.125 (N=13, T~22k); m and k (jittered by
/// the seed) swept at the preset's e, in a seed-shuffled order.
QueryWorkload MakeCattleSweep(uint64_t seed, Scale scale);

/// The N=1000, T=300 CarLike-derived scene of bench/scalability's
/// end-to-end rows; distinct e values, drawn by the seed, swept at fixed m
/// and k.
QueryWorkload MakeDenseESweep(uint64_t seed, Scale scale);

/// A live feed and the clients that drive it.
struct LiveWorkload {
  convoy::StreamFeed feed;
  /// Ticks [0, prefix_ticks) are logged to the WAL before the measured
  /// restart; the producer resumes with tick prefix_ticks.
  size_t prefix_ticks = 0;
  double tick_period_s = 0.01;
  convoy::Tick carry_forward = 2;
  convoy::ConvoyQuery analyst_query;
  double think_s = 0.05;
};

/// One producer on a fixed tick clock plus churn and dropout as in
/// convoy_loadgen; the live part lasts `seconds` at the tick rate.
LiveWorkload MakeIngestLive(uint64_t seed, Scale scale, double seconds);

/// A query scene replayed as a live feed (ticks in order, rows shuffled
/// into batches), at most `max_ticks` ticks from the scene's first tick.
convoy::StreamFeed FeedFromScene(const convoy::TrajectoryDatabase& db,
                                 const convoy::ConvoyQuery& query,
                                 size_t max_ticks, size_t batch_rows,
                                 uint64_t seed);

/// The rows of feed ticks [0, ticks) as a database — what the server's
/// row table holds after accepting them.
convoy::TrajectoryDatabase DbFromFeed(const convoy::StreamFeed& feed,
                                      size_t ticks);

size_t FeedRows(const convoy::StreamFeed& feed, size_t from, size_t to);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
