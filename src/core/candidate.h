#ifndef CONVOY_CORE_CANDIDATE_H_
#define CONVOY_CORE_CANDIDATE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/convoy_set.h"
#include "traj/trajectory.h"

namespace convoy {

/// A convoy candidate being grown across consecutive steps (timestamps for
/// CMC, time partitions for the CuTS filter).
struct Candidate {
  std::vector<ObjectId> objects;  ///< sorted, unique
  Tick start_tick = 0;            ///< first tick covered by the candidate
  Tick end_tick = 0;              ///< last tick covered so far
  Tick lifetime = 0;              ///< accumulated lifetime in the caller's
                                  ///< unit (ticks for CMC, lambda per
                                  ///< partition for the CuTS filter)

  Convoy ToConvoy() const { return Convoy{objects, start_tick, end_tick}; }
};

/// One step's clusters read out of a FlatClusters: cluster i holds
/// ids[bounds[i], bounds[i + 1]), sorted ascending. A view: the storage it
/// reads must outlive it.
class ClusterSpans {
 public:
  ClusterSpans() = default;
  ClusterSpans(const uint32_t* bounds, size_t count, const ObjectId* ids)
      : bounds_(bounds), count_(count), ids_(ids) {}

  size_t size() const { return count_; }
  std::span<const ObjectId> operator[](size_t i) const {
    return {ids_ + bounds_[i], ids_ + bounds_[i + 1]};
  }

 private:
  const uint32_t* bounds_ = nullptr;
  size_t count_ = 0;
  const ObjectId* ids_ = nullptr;
};

/// A run of steps' clusters in three flat arrays — the one form in which
/// clusters pass from a clusterer to its consumer: a snapshot's clusters,
/// a filter's partitions, a refinement window's ticks as the CuTS
/// clustering memo keeps them (core/cluster_memo.h). Step s's clusters are
/// the entries [steps_[s], steps_[s + 1]) of bounds_, and cluster c's
/// objects are ids_[bounds_[c], bounds_[c + 1]). Clusters need not be
/// disjoint. Offsets are 32-bit, so one instance holds fewer than 2^32
/// object ids; appending more throws std::length_error rather than wrap.
class FlatClusters {
 public:
  /// Appends one step whose clusters are `clusters`: any indexable list of
  /// sorted object-id ranges (another step's view, a list of spans).
  template <typename Clusters>
  void AddStep(const Clusters& clusters) {
    for (size_t c = 0; c < clusters.size(); ++c) {
      const auto& ids = clusters[c];
      ids_.insert(ids_.end(), ids.begin(), ids.end());
      bounds_.push_back(Offset(ids_.size()));
    }
    steps_.push_back(Offset(bounds_.size() - 1));
  }

  /// Appends one step of point-index clusters (a DBSCAN result's
  /// `clusters`), each index i standing for object ids[i]; every cluster's
  /// ids are stored sorted.
  void AddStep(const std::vector<std::vector<size_t>>& clusters,
               const ObjectId* ids);

  /// Drops every step, keeping the capacity for the next ones.
  void Clear() {
    steps_.resize(1);
    bounds_.resize(1);
    ids_.clear();
  }

  size_t NumSteps() const { return steps_.size() - 1; }

  /// Step s's clusters. Precondition: s < NumSteps().
  ClusterSpans Step(size_t s) const {
    return ClusterSpans(bounds_.data() + steps_[s], steps_[s + 1] - steps_[s],
                        ids_.data());
  }

  /// Heap bytes held (capacities, not sizes).
  size_t Bytes() const {
    return (steps_.capacity() + bounds_.capacity()) * sizeof(uint32_t) +
           ids_.capacity() * sizeof(ObjectId);
  }

  /// Drops spare capacity, so Bytes() counts only what the steps hold.
  void ShrinkToFit() {
    steps_.shrink_to_fit();
    bounds_.shrink_to_fit();
    ids_.shrink_to_fit();
  }

 private:
  static uint32_t Offset(size_t n);

  std::vector<uint32_t> steps_{0};
  std::vector<uint32_t> bounds_{0};
  std::vector<ObjectId> ids_;
};

/// Dense object -> cluster-label map over one step's clusters. The clusters
/// a snapshot DBSCAN produces are disjoint, so "which cluster holds object
/// o" is a single label per object — which turns intersecting a candidate
/// against *all* clusters of a step into one O(|candidate|) pass instead of
/// one set_intersection per cluster. Object ids map to dense slots that
/// persist across steps (database order for dense id spaces, a hash map for
/// adversarial ones), and labels are epoch-stamped so relabeling a step is
/// O(members), never O(universe).
///
/// Shared by CandidateTracker (CMC / the CuTS filter) and the MC2 chain
/// overlap test.
class ClusterLabeler {
 public:
  static constexpr uint32_t kNoLabel = 0xFFFFFFFFu;

  /// Labels every member of `clusters` with its cluster index. Returns
  /// false when the clusters are not disjoint (an object appears twice) —
  /// labels are then meaningless and the caller must fall back to pairwise
  /// intersection. DBSCAN partitions are disjoint; Flock's maximal disc
  /// groups, and the clusters of a database with duplicate ids, may not be.
  bool Label(const ClusterSpans& clusters);

  /// The cluster index `id` belongs to in the step most recently passed to
  /// Label, or kNoLabel when it is in no cluster.
  uint32_t LabelOf(ObjectId id) const {
    const uint32_t slot = LookupSlot(id);
    if (slot == kNoSlot || epoch_of_[slot] != epoch_) return kNoLabel;
    return label_[slot];
  }

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Ids below this index a flat array directly (the expected dense-id
  /// regime, per ObjectId's contract); larger ids — 64 MB of slots would
  /// otherwise be charged to one stray id — go through the overflow map.
  static constexpr ObjectId kDenseIdCap = ObjectId{1} << 24;

  uint32_t LookupSlot(ObjectId id) const {
    if (id < kDenseIdCap) {
      return id < dense_.size() ? dense_[id] : kNoSlot;
    }
    const auto it = overflow_.find(id);
    return it == overflow_.end() ? kNoSlot : it->second;
  }
  uint32_t EnsureSlot(ObjectId id);

  std::vector<uint32_t> dense_;  ///< id -> slot for ids < kDenseIdCap
  std::unordered_map<ObjectId, uint32_t> overflow_;
  std::vector<uint32_t> label_;     ///< slot -> cluster index
  std::vector<uint32_t> epoch_of_;  ///< slot -> epoch label_ was written at
  uint32_t epoch_ = 0;
};

/// Accumulated work tallies of a CandidateTracker — the observability
/// layer's view into the candidate algebra (obs/trace.h). Maintained
/// unconditionally (a handful of integer adds per step, noise next to the
/// intersections themselves); the sequential consumer reads it once per
/// run, so totals are deterministic at every thread count (the tracker
/// only ever advances on the sequential pass).
struct TrackerTally {
  uint64_t steps = 0;              ///< Advance calls
  uint64_t candidates_offered = 0; ///< successors + fresh candidates offered
  uint64_t dedup_probes = 0;       ///< open-addressing probe steps
  uint64_t dedup_hits = 0;         ///< offers collapsing onto an existing set
  uint64_t completed = 0;          ///< candidates retired with lifetime >= k
  uint64_t live_max = 0;           ///< high water mark of the live set
};

/// The candidate bookkeeping shared by Algorithm 1 (CMC) and the filter step
/// of Algorithm 2 (CuTS): at every step, snapshot clusters are intersected
/// with live candidates; intersections with at least m objects continue,
/// candidates that fail to continue are emitted when their lifetime reaches
/// k, and clusters seed new candidates.
///
/// Two deliberate deviations from the published pseudocode, both needed
/// to report every maximal convoy:
///  * a candidate intersecting several clusters (cluster split) spawns one
///    successor per qualifying cluster instead of being updated in place,
///    so no lineage is lost when a group splits;
///  * every step cluster also *always* starts a fresh candidate, because a
///    convoy may begin at this step inside a cluster that happens to extend
///    an unrelated older candidate. Successor deduplication (by object set,
///    keeping the earliest start) keeps the candidate set small.
/// tests/candidate_test.cc pins both (ClusterSplitSpawnsBothSuccessors,
/// FreshClusterCandidateEvenWhenAssigned).
///
/// Hot path: because a step's clusters are disjoint, each live candidate is
/// intersected against all of them in one labeled pass (see ClusterLabeler),
/// and successors dedup through an open-addressing table keyed on the object
/// set instead of an ordered map of vectors. Results — content and order —
/// are identical to the historical set_intersection/std::map implementation
/// (the live set is kept in its lexicographic order), which tests retain as
/// a reference (tests/reference_impl.h).
class CandidateTracker {
 public:
  /// `m` and `k` are the convoy query parameters.
  CandidateTracker(size_t m, Tick k) : m_(m), k_(k) {}

  /// Advances one step covering ticks [step_start, step_end] whose clusters
  /// (as object-id sets, each sorted ascending) are `clusters`, read from
  /// whatever flat storage the clusterer or the clustering memo wrote them
  /// to. `step_weight` is the lifetime increment (1 for CMC, lambda for
  /// CuTS). Candidates that ended at this step with lifetime >= k are
  /// appended to `completed`.
  void Advance(const ClusterSpans& clusters, Tick step_start, Tick step_end,
               Tick step_weight, std::vector<Candidate>* completed);

  /// Ends the stream: every live candidate with lifetime >= k is appended
  /// to `completed`; the live set is cleared.
  void Flush(std::vector<Candidate>* completed);

  /// Replaces the live set with `live`, a set some tracker of the same m
  /// and k returned from live(). The tracker then advances exactly as that
  /// one would have: the live set is the only state one Advance hands the
  /// next — the labeler, buckets and dedup table are per-step scratch.
  /// Tallies keep counting. Lets a caller checkpoint a CMC sweep and
  /// resume it later (core/incremental_cmc.h).
  void Restore(std::vector<Candidate> live) { live_ = std::move(live); }

  /// Number of currently live candidates.
  size_t LiveCount() const { return live_.size(); }

  /// Read-only view of the live candidate set, in its canonical
  /// lexicographic-by-object-set order. Used by StreamingCmc to expose the
  /// convoys that are open (lifetime >= k but not yet closed) so the server
  /// can emit new/extended subscription events between ticks.
  const std::vector<Candidate>& live() const { return live_; }

  /// Work tallies accumulated since construction (see TrackerTally).
  const TrackerTally& tally() const { return tally_; }

 private:
  void Offer(Candidate&& cand);
  void GrowTable();

  size_t m_;
  Tick k_;
  std::vector<Candidate> live_;  ///< lexicographic by object set

  ClusterLabeler labeler_;
  /// Per-cluster intersection buffers for the labeled pass (cleared after
  /// each candidate; sized to the step's cluster count).
  std::vector<std::vector<ObjectId>> buckets_;
  std::vector<uint32_t> touched_;

  /// Successor dedup: open addressing over `pool_` keyed on the object
  /// set. `table_` holds pool indices + 1 (0 = empty slot); `hash_` caches
  /// each pooled successor's object-set hash so growth never re-hashes.
  std::vector<Candidate> pool_;
  std::vector<uint64_t> hash_;
  std::vector<uint32_t> table_;

  TrackerTally tally_;
};

/// Sorted-range intersection helper shared with the MC2 baseline.
std::vector<ObjectId> IntersectSorted(std::span<const ObjectId> a,
                                      std::span<const ObjectId> b);

}  // namespace convoy

#endif  // CONVOY_CORE_CANDIDATE_H_
