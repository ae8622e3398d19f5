#ifndef CONVOY_TRAJ_DATABASE_H_
#define CONVOY_TRAJ_DATABASE_H_

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "traj/trajectory.h"

namespace convoy {

/// Aggregate statistics of a trajectory database, matching the rows of the
/// paper's Table 3 (number of objects N, time-domain length T, average
/// trajectory length, total data size in points).
struct DatabaseStats {
  size_t num_objects = 0;
  Tick time_domain_begin = 0;
  Tick time_domain_end = 0;
  /// Number of ticks spanned by the database: T in the paper.
  Tick time_domain_length = 0;
  /// Mean number of stored samples per trajectory.
  double avg_trajectory_length = 0.0;
  /// Total number of stored samples across all trajectories.
  size_t total_points = 0;
  /// Fraction of lifetime ticks that lack a sample, averaged over objects —
  /// how irregular the sampling is (high for the taxi-like workload).
  double avg_missing_ratio = 0.0;
};

/// A collection of trajectories: the "set of trajectories O" every query in
/// the paper ranges over. Object ids inside one database are unique.
class TrajectoryDatabase {
 public:
  TrajectoryDatabase() = default;
  explicit TrajectoryDatabase(std::vector<Trajectory> trajectories);

  /// Adds a trajectory; empty trajectories are stored too (harmless, but
  /// they never participate in clustering).
  void Add(Trajectory traj);

  size_t Size() const { return trajectories_.size(); }
  bool Empty() const { return trajectories_.empty(); }

  const std::vector<Trajectory>& trajectories() const { return trajectories_; }
  const Trajectory& operator[](size_t i) const { return trajectories_[i]; }

  /// Index of the trajectory with the given object id, or nullopt. O(1)
  /// via the id map maintained by Add; if several trajectories share an id
  /// (out of contract — ids are documented unique) the first one wins.
  std::optional<size_t> IndexOf(ObjectId id) const;

  /// The trajectory with the given object id, or nullptr.
  const Trajectory* Find(ObjectId id) const;

  /// Earliest tick across all trajectories (0 when empty).
  Tick BeginTick() const;

  /// Latest tick across all trajectories (-1 when empty so that the usual
  /// `for (t = BeginTick(); t <= EndTick(); ...)` loop body never runs).
  Tick EndTick() const;

  /// Computes Table 3-style statistics in one pass.
  DatabaseStats Stats() const;

 private:
  std::vector<Trajectory> trajectories_;
  std::unordered_map<ObjectId, size_t> id_index_;
};

}  // namespace convoy

#endif  // CONVOY_TRAJ_DATABASE_H_
