#ifndef CONVOY_TESTS_TEST_UTIL_H_
#define CONVOY_TESTS_TEST_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/candidate.h"
#include "core/engine.h"
#include "core/incremental_cmc.h"
#include "traj/database.h"
#include "util/random.h"

namespace convoy::testutil {

/// Builds a database where each row of `positions` gives the per-tick x
/// coordinates of one object (y = object index * `row_gap`), starting at
/// tick `t0`. A NaN-free, compact way to script convoy scenarios.
inline TrajectoryDatabase FromXRows(const std::vector<std::vector<double>>& xs,
                                    double row_gap = 0.0, Tick t0 = 0) {
  TrajectoryDatabase db;
  for (size_t i = 0; i < xs.size(); ++i) {
    Trajectory traj(static_cast<ObjectId>(i));
    for (size_t j = 0; j < xs[i].size(); ++j) {
      traj.Append(xs[i][j], row_gap * static_cast<double>(i),
                  t0 + static_cast<Tick>(j));
    }
    db.Add(std::move(traj));
  }
  return db;
}

/// A clumpy random database: `num_objects` objects over `ticks` ticks in a
/// `world` x `world` square; objects are biased toward a handful of shared
/// anchor routes so density-connected groups actually form. Good stress
/// input for CMC-vs-CuTS equivalence testing.
inline TrajectoryDatabase RandomClumpyDb(Rng& rng, size_t num_objects,
                                         Tick ticks, double world,
                                         double step, double keep_prob = 1.0) {
  TrajectoryDatabase db;
  const size_t num_anchors = 3;
  std::vector<Point> anchor_start(num_anchors);
  std::vector<Point> anchor_vel(num_anchors);
  for (size_t a = 0; a < num_anchors; ++a) {
    anchor_start[a] = Point(rng.Uniform(0, world), rng.Uniform(0, world));
    anchor_vel[a] = Point(rng.Gaussian(0, step), rng.Gaussian(0, step));
  }
  for (size_t i = 0; i < num_objects; ++i) {
    Trajectory traj(static_cast<ObjectId>(i));
    const Tick lifetime = rng.UniformInt(ticks / 2, ticks);
    const Tick start = rng.UniformInt(0, ticks - lifetime);
    const bool follows_anchor = rng.Chance(0.6);
    const size_t anchor = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(num_anchors) - 1));
    Point pos = follows_anchor
                    ? anchor_start[anchor] + Point(rng.Gaussian(0, step * 2),
                                                   rng.Gaussian(0, step * 2))
                    : Point(rng.Uniform(0, world), rng.Uniform(0, world));
    for (Tick t = 0; t < lifetime; ++t) {
      const bool boundary = t == 0 || t == lifetime - 1;
      if (boundary || rng.Chance(keep_prob)) {
        traj.Append(pos.x, pos.y, start + t);
      }
      const Point drift = follows_anchor ? anchor_vel[anchor] : Point(0, 0);
      pos = pos + drift +
            Point(rng.Gaussian(0, step), rng.Gaussian(0, step));
    }
    db.Add(std::move(traj));
  }
  return db;
}

/// Prepare + Execute on `engine` with an explicit algorithm choice — the
/// one-call query form for tests. An error Status fails the call through
/// StatusOr::value().
inline ConvoyResultSet RunQuery(const ConvoyEngine& engine,
                                const ConvoyQuery& query,
                                AlgorithmChoice choice,
                                const CutsFilterOptions& options = {}) {
  const QueryPlan plan = engine.Prepare(query, choice, options).value();
  return engine.Execute(plan).value();
}

/// A database over a row table (core/incremental_cmc.h): the input a
/// live answer over those rows must match Cmc() on.
inline TrajectoryDatabase FromRowTable(const RowTable& rows) {
  TrajectoryDatabase db;
  for (const auto& [id, samples] : rows) db.Add(Trajectory(id, samples));
  return db;
}

/// One tracker step's clusters written as a brace list:
/// tracker.Advance(Step({{1, 2}, {3, 4}}), t, t, 1, &done). Holds them as
/// the one step of a FlatClusters and reads as that step's ClusterSpans,
/// the form every clusterer hands its consumer.
struct Step {
  Step(const std::vector<std::vector<ObjectId>>& clusters) {  // NOLINT
    flat.AddStep(clusters);
  }
  operator ClusterSpans() const { return flat.Step(0); }  // NOLINT

  FlatClusters flat;
};

/// Lowercase hex of a byte string, for pinning encodings as literals.
inline std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto byte = static_cast<unsigned char>(ch);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xfu]);
  }
  return out;
}

}  // namespace convoy::testutil

#endif  // CONVOY_TESTS_TEST_UTIL_H_
