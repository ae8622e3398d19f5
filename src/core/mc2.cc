#include "core/mc2.h"

#include <algorithm>
#include <map>
#include <span>
#include <utility>

#include "core/candidate.h"
#include "core/cmc.h"
#include "core/verify.h"

namespace convoy {

namespace {

// One live moving-cluster chain: the most recent snapshot cluster plus the
// intersection of every cluster seen so far.
struct Chain {
  std::vector<ObjectId> current;  ///< cluster at the previous tick
  std::vector<ObjectId> common;   ///< intersection across the chain
  Tick start_tick = 0;
  Tick end_tick = 0;
};

double Jaccard(std::span<const ObjectId> a, std::span<const ObjectId> b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t common = IntersectSorted(a, b).size();
  const size_t uni = a.size() + b.size() - common;
  return static_cast<double>(common) / static_cast<double>(uni);
}

// MC2's per-tick consume step: extends the live chains, reporting those
// that end.
class ChainTracker {
 public:
  explicit ChainTracker(const Mc2Options& options) : options_(options) {}

  void Advance(Tick t, const ClusterSpans& clusters);

  /// The sweep's consume step: Advance at each tick.
  TickConsumer Consume() {
    return [this](Tick t, const ClusterSpans& clusters) {
      Advance(t, clusters);
    };
  }

  std::vector<Convoy> Finish() {
    for (const Chain& chain : live_) Report(chain);
    live_.clear();
    Canonicalize(&reports_);
    return std::move(reports_);
  }

 private:
  void Report(const Chain& chain) {
    if (chain.end_tick - chain.start_tick + 1 < options_.min_duration) return;
    if (chain.common.size() < 2) return;
    reports_.push_back(Convoy{chain.common, chain.start_tick, chain.end_tick});
  }

  const Mc2Options options_;
  std::vector<Convoy> reports_;
  std::vector<Chain> live_;
  ClusterLabeler labeler_;
  std::vector<size_t> overlap_count_;
  std::vector<uint32_t> touched_;
};

void ChainTracker::Advance(Tick t, const ClusterSpans& clusters) {
  // Extend chains whose previous cluster overlaps a current cluster by at
  // least theta; like the convoy tracker, splits spawn one successor per
  // qualifying pair and identical successors collapse.
  std::map<std::vector<ObjectId>, Chain> next;
  const auto offer = [&next](Chain chain) {
    auto [it, inserted] = next.try_emplace(chain.current, chain);
    if (!inserted && chain.start_tick < it->second.start_tick) {
      it->second = chain;
    }
  };

  // Snapshot clusters are disjoint, so every |chain.current ∩ cluster| of
  // the tick falls out of one labeled pass over chain.current — and the
  // Jaccard screen needs only those counts. Clusters the chain never
  // touches have overlap 0 and a Jaccard of 0, so they qualify only for
  // theta <= 0, where (like overlapping clusters) the pairwise loop below
  // handles them instead.
  const bool labeled = options_.theta > 0.0 && labeler_.Label(clusters);
  if (overlap_count_.size() < clusters.size()) {
    overlap_count_.resize(clusters.size(), 0);
  }

  std::vector<bool> cluster_used(clusters.size(), false);
  const auto extend = [&](const Chain& chain, size_t ci, bool* extended) {
    *extended = true;
    cluster_used[ci] = true;
    Chain successor;
    successor.current.assign(clusters[ci].begin(), clusters[ci].end());
    successor.common = IntersectSorted(chain.common, clusters[ci]);
    successor.start_tick = chain.start_tick;
    successor.end_tick = t;
    offer(std::move(successor));
  };

  for (const Chain& chain : live_) {
    bool extended = false;
    if (labeled) {
      touched_.clear();
      for (const ObjectId id : chain.current) {
        const uint32_t c = labeler_.LabelOf(id);
        if (c == ClusterLabeler::kNoLabel) continue;
        if (overlap_count_[c] == 0) touched_.push_back(c);
        ++overlap_count_[c];
      }
      std::sort(touched_.begin(), touched_.end());
      for (const uint32_t ci : touched_) {
        // The same arithmetic Jaccard() applies, fed by the counted
        // intersection size instead of a materialized intersection.
        const size_t common = overlap_count_[ci];
        overlap_count_[ci] = 0;
        const size_t uni = chain.current.size() + clusters[ci].size() - common;
        const double jaccard =
            static_cast<double>(common) / static_cast<double>(uni);
        if (jaccard < options_.theta) continue;
        extend(chain, ci, &extended);
      }
    } else {
      for (size_t ci = 0; ci < clusters.size(); ++ci) {
        if (Jaccard(chain.current, clusters[ci]) < options_.theta) continue;
        extend(chain, ci, &extended);
      }
    }
    if (!extended) Report(chain);
  }
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    if (cluster_used[ci]) continue;
    Chain fresh;
    fresh.current.assign(clusters[ci].begin(), clusters[ci].end());
    fresh.common = fresh.current;
    fresh.start_tick = t;
    fresh.end_tick = t;
    offer(std::move(fresh));
  }

  live_.clear();
  live_.reserve(next.size());
  for (auto& [key, chain] : next) live_.push_back(std::move(chain));
}

}  // namespace

std::vector<Convoy> Mc2(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const Mc2Options& options, const ExecHooks* hooks,
                        const MemoSlot* memo) {
  if (db.Empty()) return {};
  ChainTracker chains(options);
  SweepSnapshots(db, db.BeginTick(), db.EndTick(), query.num_threads,
                 DbscanClusterer(query, hooks), chains.Consume(),
                 /*stats=*/nullptr, hooks, memo);
  return chains.Finish();
}

std::vector<Convoy> Mc2(const SnapshotStore& store, const ConvoyQuery& query,
                        const Mc2Options& options, const ExecHooks* hooks,
                        const MemoSlot* memo) {
  if (store.Empty()) return {};
  ChainTracker chains(options);
  SweepSnapshots(store, query, store.begin_tick(), store.end_tick(),
                 chains.Consume(), /*stats=*/nullptr, hooks, memo);
  return chains.Finish();
}

Mc2Accuracy MeasureMc2Accuracy(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const Mc2Options& options,
                               const std::vector<Convoy>& exact_result) {
  Mc2Accuracy acc;
  const std::vector<Convoy> reported = Mc2(db, query, options);
  acc.reported = reported.size();
  acc.actual = exact_result.size();

  size_t false_pos = 0;
  for (const Convoy& r : reported) {
    if (!VerifyConvoy(db, query, r)) ++false_pos;
  }
  if (!reported.empty()) {
    acc.false_positive_pct =
        100.0 * static_cast<double>(false_pos) /
        static_cast<double>(reported.size());
  }

  const std::vector<Convoy> missed = Uncovered(exact_result, reported);
  if (!exact_result.empty()) {
    acc.false_negative_pct = 100.0 * static_cast<double>(missed.size()) /
                             static_cast<double>(exact_result.size());
  }
  return acc;
}

}  // namespace convoy
