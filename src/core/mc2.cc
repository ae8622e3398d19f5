#include "core/mc2.h"

#include <algorithm>
#include <map>

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

double Jaccard(const std::vector<ObjectId>& a,
               const std::vector<ObjectId>& b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t common = IntersectSorted(a, b).size();
  const size_t uni = a.size() + b.size() - common;
  return static_cast<double>(common) / static_cast<double>(uni);
}

// The moving-cluster chaining loop, generic over how a tick's clusters are
// produced so the row-oriented and store-backed entry points share one
// implementation (and the same snapshot path as CMC — RowSnapshots /
// the store's cached grid indexes).
template <typename ClusterAt>
std::vector<Convoy> Mc2Impl(Tick begin_tick, Tick end_tick,
                            const Mc2Options& options, ClusterAt&& cluster_at) {
  std::vector<Convoy> reports;
  std::vector<Chain> live;
  ClusterLabeler labeler;
  std::vector<size_t> overlap_count;
  std::vector<uint32_t> touched;

  const auto finish = [&](const Chain& chain) {
    if (chain.end_tick - chain.start_tick + 1 < options.min_duration) return;
    if (chain.common.size() < 2) return;
    reports.push_back(Convoy{chain.common, chain.start_tick, chain.end_tick});
  };

  for (Tick t = begin_tick; t <= end_tick; ++t) {
    const std::vector<std::vector<ObjectId>> clusters = cluster_at(t);

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

    // Snapshot clusters are disjoint, so every |chain.current ∩ cluster|
    // of the tick falls out of one labeled pass over chain.current — and
    // the Jaccard screen needs only those counts. Clusters the chain never
    // touches have overlap 0 and a Jaccard of 0, so they qualify only for
    // theta <= 0, where (like the overlapping-cluster API edge) the
    // pairwise loop below handles them instead.
    const bool labeled = options.theta > 0.0 && labeler.Label(clusters);
    if (overlap_count.size() < clusters.size()) {
      overlap_count.resize(clusters.size(), 0);
    }

    const auto extend = [&](const Chain& chain, size_t ci, bool* extended,
                            std::vector<bool>* cluster_used) {
      *extended = true;
      (*cluster_used)[ci] = true;
      Chain successor;
      successor.current = clusters[ci];
      successor.common = IntersectSorted(chain.common, clusters[ci]);
      successor.start_tick = chain.start_tick;
      successor.end_tick = t;
      offer(std::move(successor));
    };

    std::vector<bool> cluster_used(clusters.size(), false);
    for (const Chain& chain : live) {
      bool extended = false;
      if (labeled) {
        touched.clear();
        for (const ObjectId id : chain.current) {
          const uint32_t c = labeler.LabelOf(id);
          if (c == ClusterLabeler::kNoLabel) continue;
          if (overlap_count[c] == 0) touched.push_back(c);
          ++overlap_count[c];
        }
        std::sort(touched.begin(), touched.end());
        for (const uint32_t ci : touched) {
          // The same arithmetic Jaccard() applies, fed by the counted
          // intersection size instead of a materialized intersection.
          const size_t common = overlap_count[ci];
          overlap_count[ci] = 0;
          const size_t uni =
              chain.current.size() + clusters[ci].size() - common;
          const double jaccard =
              static_cast<double>(common) / static_cast<double>(uni);
          if (jaccard < options.theta) continue;
          extend(chain, ci, &extended, &cluster_used);
        }
      } else {
        for (size_t ci = 0; ci < clusters.size(); ++ci) {
          if (Jaccard(chain.current, clusters[ci]) < options.theta) continue;
          extend(chain, ci, &extended, &cluster_used);
        }
      }
      if (!extended) finish(chain);
    }
    for (size_t ci = 0; ci < clusters.size(); ++ci) {
      if (cluster_used[ci]) continue;
      Chain fresh;
      fresh.current = clusters[ci];
      fresh.common = clusters[ci];
      fresh.start_tick = t;
      fresh.end_tick = t;
      offer(std::move(fresh));
    }

    live.clear();
    live.reserve(next.size());
    for (auto& [key, chain] : next) live.push_back(std::move(chain));
  }
  for (const Chain& chain : live) finish(chain);

  Canonicalize(&reports);
  return reports;
}

}  // namespace

std::vector<Convoy> Mc2(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const Mc2Options& options) {
  if (db.Empty()) return {};
  RowSnapshots rows(db);
  SnapshotScratch scratch;
  return Mc2Impl(db.BeginTick(), db.EndTick(), options, [&](Tick t) {
    return rows.Cluster(t, query, /*selected=*/nullptr, /*clustered=*/nullptr,
                        &scratch);
  });
}

std::vector<Convoy> Mc2(const SnapshotStore& store, const ConvoyQuery& query,
                        const Mc2Options& options) {
  if (store.Empty()) return {};
  return Mc2Impl(store.begin_tick(), store.end_tick(), options, [&](Tick t) {
    return SnapshotClusters(store, t, query);
  });
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
