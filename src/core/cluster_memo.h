#ifndef CONVOY_CORE_CLUSTER_MEMO_H_
#define CONVOY_CORE_CLUSTER_MEMO_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/polyline_dbscan.h"
#include "core/cmc.h"
#include "core/convoy_set.h"
#include "core/cuts_filter.h"
#include "simplify/simplifier.h"

namespace convoy {

/// What one query's clusterings depend on. For CuTS: the resolved filter
/// (simplifier, distance bound, delta, lambda and the two pruning toggles)
/// and the query's e and m. For CMC and MC2, which share their per-tick
/// DBSCAN: e and m alone (Snapshots). Not k — only the candidate tracker
/// reads k — and not the thread count, which changes no clustering. delta
/// and e are keyed on their bit patterns, as the simplification cache
/// keys delta.
struct ClusterMemoKey {
  SimplifierKind simplifier = SimplifierKind::kDp;
  SegmentDistanceKind distance = SegmentDistanceKind::kDll;
  uint64_t delta_bits = 0;
  Tick lambda = 0;
  bool use_actual_tolerance = true;
  bool use_box_pruning = true;
  uint64_t e_bits = 0;
  size_t m = 0;

  /// The key of `query` under `options`, whose delta and lambda must be
  /// the resolved (positive) values the filter runs with.
  static ClusterMemoKey Of(const CutsFilterOptions& options,
                           const ConvoyQuery& query);

  /// The key of the snapshot sweeps' clusters at query's e and m. Its
  /// lambda is 0, which no CuTS key has (they key a resolved, positive
  /// lambda).
  static ClusterMemoKey Snapshots(const ConvoyQuery& query);

  auto operator<=>(const ClusterMemoKey&) const = default;
};

/// The clustering memo's byte budget per stored point of the engine's
/// database (DatabaseStats::total_points). A key's refinement windows hold
/// at most one object id per (object, tick) pair they cover, so on a
/// densely sampled database one key costs at most ~12 bytes per point;
/// the budget keeps a few keys of such a database.
inline constexpr size_t kClusterMemoBytesPerPoint = 32;

/// ConvoyEngine's memo of clusterings, per ClusterMemoKey: the CuTS
/// filter's partition clusterings (FilterClusters), the refinement
/// windows' per-tick clusterings (WindowClusters), and the whole-domain
/// per-tick clusterings of CMC and MC2 sweeps (one WindowClusters under a
/// Snapshots key) of earlier queries, so a later query at the same key
/// clusters only what the memo lacks and re-runs only the k-dependent
/// tracker.
///
/// Refinement windows nest within a key. Candidates at a larger k are a
/// subset of those at a smaller k (the tracker's live set evolves the
/// same for every k; k only picks which retiring candidates are
/// reported), so every window at the larger k lies inside one window at
/// the smaller k. A new window therefore lies inside a held window (a
/// hit), or contains every held window it overlaps (a miss, which may
/// read their ticks); publishing it drops the windows it overlaps. Each
/// key's windows stay disjoint.
///
/// Bounded: all keys share `budget` bytes. A publish that would overrun
/// it evicts least recently used keys first, never the key it publishes
/// under; what would overrun the budget even then is not kept.
///
/// Thread-safe. Entries are immutable once published and handed out as
/// shared_ptr<const ...>, so readers never hold the lock while they read.
/// Two racing misses on one key may both compute a clustering; the first
/// to publish a filter clustering wins, and a later window replaces the
/// windows it overlaps (a racing twin holds the same clusters).
class ClusterMemo {
 public:
  explicit ClusterMemo(size_t budget) : budget_(budget) {}

  size_t budget() const { return budget_; }

  /// The filter clustering held under `key`, or null.
  std::shared_ptr<const FilterClusters> Filter(const ClusterMemoKey& key);

  /// Keeps `clusters` under `key` unless a filter clustering is already
  /// held there, and returns the held one (or `clusters` when the budget
  /// declined it).
  std::shared_ptr<const FilterClusters> PublishFilter(
      const ClusterMemoKey& key,
      std::shared_ptr<const FilterClusters> clusters);

  /// The refinement windows held under `key`, ascending and disjoint.
  std::vector<std::shared_ptr<const WindowClusters>> Windows(
      const ClusterMemoKey& key);

  /// Keeps the non-empty `window` under `key`, dropping the held windows
  /// it overlaps.
  void PublishWindow(const ClusterMemoKey& key,
                     std::shared_ptr<const WindowClusters> window);

  /// What a key holds, without counting as a use (EXPLAIN).
  struct Held {
    bool filter = false;
    size_t windows = 0;
  };
  Held Peek(const ClusterMemoKey& key) const;

  /// Bytes and keys held across all keys.
  size_t Bytes() const;
  size_t NumKeys() const;

 private:
  struct Entry {
    std::shared_ptr<const FilterClusters> filter;
    /// Keyed on each window's first tick.
    std::map<Tick, std::shared_ptr<const WindowClusters>> windows;
    size_t bytes = 0;
    uint64_t last_use = 0;
  };

  /// Evicts least recently used keys other than `keep` until the memo
  /// fits its budget or only `keep` is left. Caller holds mu_.
  void EvictFor(const ClusterMemoKey& keep);

  const size_t budget_;
  mutable std::mutex mu_;
  std::map<ClusterMemoKey, Entry> entries_;  // GUARDED_BY(mu_)
  size_t bytes_ = 0;                         // GUARDED_BY(mu_)
  uint64_t clock_ = 0;                       // GUARDED_BY(mu_)
};

/// One query's access to a ClusterMemo: the memo and the key its
/// clusterings are filed under — the optional last argument of
/// CutsFilterPresimplified, CutsRefine, Cmc and Mc2.
struct MemoSlot {
  ClusterMemo* memo = nullptr;
  ClusterMemoKey key;
};

}  // namespace convoy

#endif  // CONVOY_CORE_CLUSTER_MEMO_H_
