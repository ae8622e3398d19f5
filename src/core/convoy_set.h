#ifndef CONVOY_CORE_CONVOY_SET_H_
#define CONVOY_CORE_CONVOY_SET_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "traj/trajectory.h"

namespace convoy {

/// Parameters of a convoy query (paper Definition 3): at least `m` objects
/// density-connected with respect to distance `e` during at least `k`
/// consecutive time points.
struct ConvoyQuery {
  size_t m = 2;   ///< minimum number of objects in a convoy
  Tick k = 2;     ///< minimum lifetime in consecutive ticks
  double e = 1.0; ///< neighborhood range for density connection

  /// Worker-thread count for every discovery phase that can run in
  /// parallel — the only thread setting of a query: CMC's snapshot
  /// clustering, the CuTS simplification, the filter's partition
  /// clustering and CuTS refinement. 0 means "all hardware threads".
  /// Results are identical for every value — parallelism never changes the
  /// output.
  size_t num_threads = 1;
};

/// One discovered convoy: a set of objects together with the maximal time
/// interval during which they travel density-connected.
struct Convoy {
  std::vector<ObjectId> objects;  ///< sorted, unique
  Tick start_tick = 0;
  Tick end_tick = 0;

  /// Number of ticks in [start_tick, end_tick], inclusive.
  Tick Lifetime() const { return end_tick - start_tick + 1; }

  bool operator==(const Convoy& o) const {
    return objects == o.objects && start_tick == o.start_tick &&
           end_tick == o.end_tick;
  }
};

std::ostream& operator<<(std::ostream& os, const Convoy& c);

/// Compact "{1,2,3}@[t0,t9]" rendering for reports and test failures.
std::string ToString(const Convoy& c);

/// True if `big` covers `small`: big's objects are a superset and big's
/// interval contains small's. Every covered convoy is implied by the
/// covering one, so reporting both is redundant.
bool Covers(const Convoy& big, const Convoy& small);

/// Sorts convoys canonically (by start tick, then end tick, then objects)
/// and removes exact duplicates.
void Canonicalize(std::vector<Convoy>* convoys);

/// Removes every convoy that is covered by a different convoy in the set
/// (dominance pruning: the candidate algebra can emit a convoy and, from
/// another lineage, a sub-convoy of it; only the maximal one is an
/// answer). Also canonicalizes.
/// When two convoys cover each other they are identical and one survives.
std::vector<Convoy> RemoveDominated(std::vector<Convoy> convoys);

/// True if the two result sets are equal after canonicalization — the
/// equality the CuTS == CMC exactness property tests assert.
bool SameResultSet(std::vector<Convoy> a, std::vector<Convoy> b);

/// Result-set difference used by the appendix B.1 accuracy study: returns
/// the convoys of `expected` that are not covered by any convoy in `got`.
std::vector<Convoy> Uncovered(const std::vector<Convoy>& expected,
                              const std::vector<Convoy>& got);

}  // namespace convoy

#endif  // CONVOY_CORE_CONVOY_SET_H_
