#ifndef CONVOY_CORE_CUTS_FILTER_H_
#define CONVOY_CORE_CUTS_FILTER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/polyline_dbscan.h"
#include "core/candidate.h"
#include "core/convoy_set.h"
#include "core/cuts_refine.h"
#include "core/discovery_stats.h"
#include "core/exec_hooks.h"
#include "simplify/simplifier.h"
#include "traj/database.h"

namespace convoy {

/// Tuning knobs of the CuTS filter step (paper Algorithm 2). The variant
/// table of Section 6 maps onto `simplifier` + `distance`:
///
///   CuTS   = kDp     + kDll
///   CuTS+  = kDpPlus + kDll
///   CuTS*  = kDpStar + kDStar
struct CutsFilterOptions {
  SimplifierKind simplifier = SimplifierKind::kDp;
  SegmentDistanceKind distance = SegmentDistanceKind::kDll;

  /// Simplification tolerance; <= 0 means derive it with ComputeDelta.
  double delta = -1.0;

  /// Time-partition length; <= 0 means derive it with ComputeLambda.
  Tick lambda = -1;

  /// Use per-segment actual tolerances in the range-search bounds (the
  /// paper's Figure 14 optimization). When false the global delta is
  /// charged for every segment — still correct, just looser.
  bool use_actual_tolerance = true;

  /// Apply the Lemma 2 bounding-box pre-test per polyline pair.
  bool use_box_pruning = true;

  /// No effect (see RefineMode): CuTS has one refinement, exact on every
  /// input. Kept so that callers which still set it compile.
  RefineMode refine_mode = RefineMode::kProjected;
};

/// Per time partition, the objects the partition's polyline DBSCAN placed
/// in some cluster: the union of the partition's clusters, ascending. The
/// filter hands these sets to the refinement as a semi-join reducer. An
/// object outside partition p's set is DBSCAN noise, and within e of no
/// core point, at every tick of p (the Lemma 1-3 bound: within e at a
/// tick implies polyline neighbours in that tick's partition), so the
/// refinement clusters only the set. Derived from the per-partition
/// clusterings alone, so identical at every filter thread count.
struct PartitionMembers {
  Tick begin = 0;   ///< first tick of partition 0
  Tick length = 1;  ///< ticks per partition (the last one may be shorter)
  /// CSR: partition p's objects are ids[offsets[p], offsets[p + 1]).
  std::vector<size_t> offsets{0};
  std::vector<ObjectId> ids;

  size_t NumPartitions() const { return offsets.size() - 1; }

  /// The partition holding tick t; nullopt outside the partitioned domain.
  std::optional<size_t> PartitionOf(Tick t) const {
    if (t < begin) return std::nullopt;
    // Unsigned: t - begin may exceed the largest Tick.
    const size_t p = static_cast<size_t>(
        (static_cast<uint64_t>(t) - static_cast<uint64_t>(begin)) /
        static_cast<uint64_t>(length));
    if (p >= NumPartitions()) return std::nullopt;
    return p;
  }

  /// Partition p's objects, ascending. Precondition: p < NumPartitions().
  std::span<const ObjectId> Of(size_t p) const {
    return {ids.data() + offsets[p], offsets[p + 1] - offsets[p]};
  }
};

/// The clustering half of the filter step: every time partition's polyline
/// clusters, one step per partition, and the PartitionMembers derived from
/// them. It depends on the simplification, the filter options, lambda, e
/// and m, but not on k, so ConvoyEngine memoizes it (core/cluster_memo.h);
/// the candidate tracker, which reads k, runs over it on every query.
struct FilterClusters {
  FlatClusters partitions;
  PartitionMembers members;

  /// Heap bytes held.
  size_t Bytes() const;
};

/// Output of the filter step: candidate convoys (object sets with the tick
/// span of the partitions that produced them) and the objects each
/// partition clustered.
struct CutsFilterResult {
  std::vector<Candidate> candidates;
  PartitionMembers members;
  double delta_used = 0.0;
  Tick lambda_used = 0;
};

/// Runs trajectory simplification and the partition-by-partition
/// TRAJ-DBSCAN candidate generation of Algorithm 2. Every actual convoy is
/// contained in some candidate (no false dismissal — the exactness the
/// Lemma 1/2/3 bounds guarantee); candidates may be larger or spurious.
/// The result also records each partition's clustered objects
/// (PartitionMembers). The refinement step, CutsRefine(db, query, result),
/// turns both into exactly CMC's convoys.
CutsFilterResult CutsFilter(const TrajectoryDatabase& db,
                            const ConvoyQuery& query,
                            const CutsFilterOptions& options,
                            DiscoveryStats* stats = nullptr);

/// Gathers each object's sub-polyline for the partition
/// [part_start, part_end]: the simplified segments whose time intervals
/// intersect the partition (a segment spanning a boundary goes into both
/// partitions, as in paper Figure 9(b)). The reference form of the
/// filter's per-partition input; the filter builds the same data in SoA
/// form (BuildPolylineSoa), and tests compare the two.
std::vector<PartitionPolyline> BuildPartitionPolylines(
    const std::vector<SimplifiedTrajectory>& simplified, Tick part_start,
    Tick part_end, bool use_actual_tolerance, double delta_used);

/// Variant that reuses already-simplified trajectories (index-aligned with
/// `db`, produced with `delta_used` and the simplifier matching
/// `options.simplifier`), borrowed for the call. `ConvoyEngine` uses this
/// to amortize the simplification cost across repeated queries. `hooks`
/// (optional, core/exec_hooks.h) carries the trace; results are
/// unaffected. `store` (optional; must be built from `db`) supplies the
/// precomputed time domain, so partitioning skips the O(N)
/// BeginTick/EndTick rescans; partition boundaries — and results — are
/// identical either way.
class SnapshotStore;
CutsFilterResult CutsFilterPresimplified(
    const TrajectoryDatabase& db, const ConvoyQuery& query,
    const CutsFilterOptions& options,
    const std::vector<SimplifiedTrajectory>& simplified, double delta_used,
    DiscoveryStats* stats = nullptr, const ExecHooks* hooks = nullptr,
    const SnapshotStore* store = nullptr);

/// CutsFilterPresimplified through a clustering memo — ConvoyEngine's
/// path. The partitions' clusters come from `memo` when it holds them
/// under its key, and are clustered and published to it otherwise; the
/// candidate tracker always runs. The result is the same either way.
/// `memo->key` must be ClusterMemoKey::Of(options, query) with options'
/// delta equal to `delta_used` and lambda positive. A null `memo` is
/// CutsFilterPresimplified.
struct MemoSlot;
CutsFilterResult CutsFilterWithMemo(
    const TrajectoryDatabase& db, const ConvoyQuery& query,
    const CutsFilterOptions& options,
    const std::vector<SimplifiedTrajectory>& simplified, double delta_used,
    const MemoSlot* memo, DiscoveryStats* stats = nullptr,
    const ExecHooks* hooks = nullptr, const SnapshotStore* store = nullptr);

}  // namespace convoy

#endif  // CONVOY_CORE_CUTS_FILTER_H_
