#include "traj/database.h"

#include <algorithm>
#include <limits>

namespace convoy {

TrajectoryDatabase::TrajectoryDatabase(std::vector<Trajectory> trajectories)
    : trajectories_(std::move(trajectories)) {
  id_index_.reserve(trajectories_.size());
  for (size_t i = 0; i < trajectories_.size(); ++i) {
    id_index_.try_emplace(trajectories_[i].id(), i);
  }
}

void TrajectoryDatabase::Add(Trajectory traj) {
  id_index_.try_emplace(traj.id(), trajectories_.size());
  trajectories_.push_back(std::move(traj));
}

std::optional<size_t> TrajectoryDatabase::IndexOf(ObjectId id) const {
  const auto it = id_index_.find(id);
  if (it == id_index_.end()) return std::nullopt;
  return it->second;
}

const Trajectory* TrajectoryDatabase::Find(ObjectId id) const {
  const auto idx = IndexOf(id);
  return idx.has_value() ? &trajectories_[*idx] : nullptr;
}

Tick TrajectoryDatabase::BeginTick() const {
  Tick lo = std::numeric_limits<Tick>::max();
  for (const Trajectory& traj : trajectories_) {
    if (!traj.Empty()) lo = std::min(lo, traj.BeginTick());
  }
  return lo == std::numeric_limits<Tick>::max() ? 0 : lo;
}

Tick TrajectoryDatabase::EndTick() const {
  Tick hi = std::numeric_limits<Tick>::min();
  for (const Trajectory& traj : trajectories_) {
    if (!traj.Empty()) hi = std::max(hi, traj.EndTick());
  }
  return hi == std::numeric_limits<Tick>::min() ? -1 : hi;
}

DatabaseStats TrajectoryDatabase::Stats() const {
  DatabaseStats stats;
  stats.num_objects = trajectories_.size();
  stats.time_domain_begin = BeginTick();
  stats.time_domain_end = EndTick();
  stats.time_domain_length =
      Empty() ? 0 : stats.time_domain_end - stats.time_domain_begin + 1;

  size_t nonempty = 0;
  double missing_sum = 0.0;
  for (const Trajectory& traj : trajectories_) {
    stats.total_points += traj.Size();
    if (traj.Empty()) continue;
    ++nonempty;
    const double lifetime = static_cast<double>(traj.DurationTicks());
    missing_sum += 1.0 - static_cast<double>(traj.Size()) / lifetime;
  }
  if (nonempty > 0) {
    stats.avg_trajectory_length =
        static_cast<double>(stats.total_points) / static_cast<double>(nonempty);
    stats.avg_missing_ratio = missing_sum / static_cast<double>(nonempty);
  }
  return stats;
}

}  // namespace convoy
