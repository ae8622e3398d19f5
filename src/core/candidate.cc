#include "core/candidate.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace convoy {

namespace {

// 64-bit FNV-1a over the object ids, finished with a Murmur-style mix so
// the open-addressing probe sees well-scattered high bits even for the
// near-sequential id sets real snapshots produce.
uint64_t HashObjects(const std::vector<ObjectId>& objects) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const ObjectId id : objects) {
    h = (h ^ id) * 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::vector<ObjectId> IntersectSorted(std::span<const ObjectId> a,
                                      std::span<const ObjectId> b) {
  std::vector<ObjectId> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

uint32_t FlatClusters::Offset(size_t n) {
  if (n > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("FlatClusters: more than 2^32 - 1 entries");
  }
  return static_cast<uint32_t>(n);
}

void FlatClusters::AddStep(const std::vector<std::vector<size_t>>& clusters,
                           const ObjectId* ids) {
  for (const std::vector<size_t>& cluster : clusters) {
    const size_t first = ids_.size();
    for (const size_t idx : cluster) ids_.push_back(ids[idx]);
    std::sort(ids_.begin() + static_cast<std::ptrdiff_t>(first), ids_.end());
    bounds_.push_back(Offset(ids_.size()));
  }
  steps_.push_back(Offset(bounds_.size() - 1));
}

uint32_t ClusterLabeler::EnsureSlot(ObjectId id) {
  uint32_t slot = LookupSlot(id);
  if (slot != kNoSlot) return slot;
  slot = static_cast<uint32_t>(label_.size());
  label_.push_back(kNoLabel);
  epoch_of_.push_back(0);
  if (id < kDenseIdCap) {
    if (id >= dense_.size()) dense_.resize(id + 1, kNoSlot);
    dense_[id] = slot;
  } else {
    overflow_.emplace(id, slot);
  }
  return slot;
}

bool ClusterLabeler::Label(const ClusterSpans& clusters) {
  if (++epoch_ == 0) {
    // Epoch counter wrapped (once per 2^32 steps): stale stamps could
    // alias, so reset them all and restart at 1.
    std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
    epoch_ = 1;
  }
  for (uint32_t ci = 0; ci < clusters.size(); ++ci) {
    for (const ObjectId id : clusters[ci]) {
      const uint32_t slot = EnsureSlot(id);
      if (epoch_of_[slot] == epoch_) return false;  // overlapping clusters
      label_[slot] = ci;
      epoch_of_[slot] = epoch_;
    }
  }
  return true;
}

void CandidateTracker::GrowTable() {
  size_t size = table_.empty() ? 64 : table_.size() * 2;
  table_.assign(size, 0);
  const size_t mask = size - 1;
  for (uint32_t i = 0; i < pool_.size(); ++i) {
    size_t at = static_cast<size_t>(hash_[i]) & mask;
    while (table_[at] != 0) at = (at + 1) & mask;
    table_[at] = i + 1;
  }
}

void CandidateTracker::Offer(Candidate&& cand) {
  // Successors dedup by object set; the earliest start (largest lifetime)
  // wins, so dominated duplicates never multiply. Equal lifetimes keep the
  // first offer — the same tie-break the ordered-map implementation's
  // try_emplace applied, and offers arrive in the same order.
  if ((pool_.size() + 1) * 4 >= table_.size() * 3) GrowTable();
  ++tally_.candidates_offered;
  const uint64_t h = HashObjects(cand.objects);
  const size_t mask = table_.size() - 1;
  size_t at = static_cast<size_t>(h) & mask;
  while (table_[at] != 0) {
    ++tally_.dedup_probes;
    Candidate& existing = pool_[table_[at] - 1];
    if (hash_[table_[at] - 1] == h && existing.objects == cand.objects) {
      ++tally_.dedup_hits;
      if (cand.lifetime > existing.lifetime) existing = std::move(cand);
      return;
    }
    at = (at + 1) & mask;
  }
  table_[at] = static_cast<uint32_t>(pool_.size()) + 1;
  pool_.push_back(std::move(cand));
  hash_.push_back(h);
}

void CandidateTracker::Advance(const ClusterSpans& clusters, Tick step_start,
                               Tick step_end, Tick step_weight,
                               std::vector<Candidate>* completed) {
  ++tally_.steps;
  const size_t completed_before = completed->size();
  pool_.clear();
  hash_.clear();
  std::fill(table_.begin(), table_.end(), 0);

  // One pass labels every cluster member; disjointness (guaranteed for
  // DBSCAN partitions) makes "intersect v with every cluster" a single
  // O(|v|) bucketing sweep per candidate below. Overlapping clusters —
  // Flock's disc groups, duplicate ids — fall back to the pairwise
  // set_intersection the labels replace.
  const bool disjoint = labeler_.Label(clusters);
  if (buckets_.size() < clusters.size()) buckets_.resize(clusters.size());

  for (Candidate& v : live_) {
    bool continued_intact = false;  // some successor kept v's full object set
    if (disjoint) {
      touched_.clear();
      for (const ObjectId id : v.objects) {
        const uint32_t c = labeler_.LabelOf(id);
        if (c == ClusterLabeler::kNoLabel) continue;
        if (buckets_[c].empty()) touched_.push_back(c);
        buckets_[c].push_back(id);  // v is sorted, so each bucket is sorted
      }
      // Ascending cluster index: the order the historical per-cluster loop
      // offered successors in.
      std::sort(touched_.begin(), touched_.end());
      for (const uint32_t c : touched_) {
        std::vector<ObjectId>& common = buckets_[c];
        if (common.size() >= m_) {
          continued_intact |= common.size() == v.objects.size();
          Candidate successor;
          successor.objects = common;
          successor.start_tick = v.start_tick;
          successor.end_tick = step_end;
          successor.lifetime = v.lifetime + step_weight;
          Offer(std::move(successor));
        }
        common.clear();
      }
    } else {
      for (size_t ci = 0; ci < clusters.size(); ++ci) {
        const std::span<const ObjectId> c = clusters[ci];
        std::vector<ObjectId> common;
        std::set_intersection(v.objects.begin(), v.objects.end(), c.begin(),
                              c.end(), std::back_inserter(common));
        if (common.size() < m_) continue;
        continued_intact |= common.size() == v.objects.size();
        Candidate successor;
        successor.objects = std::move(common);
        successor.start_tick = v.start_tick;
        successor.end_tick = step_end;
        successor.lifetime = v.lifetime + step_weight;
        Offer(std::move(successor));
      }
    }
    // Emit v when it dies — and also when every successor lost members
    // ("emit on shrink"): otherwise a maximal convoy whose subgroup keeps
    // traveling would be narrowed away and never reported. The paper's
    // Algorithm 1 drops v here; candidate_test's
    // EmitOnShrinkReportsMaximalConvoy pins the correction.
    if (!continued_intact && v.lifetime >= k_) {
      completed->push_back(std::move(v));
    }
  }

  // Every cluster also begins its own candidate: a convoy may be born at
  // this step. If an identical successor already exists it has an earlier
  // start and wins the dedup above.
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    const std::span<const ObjectId> c = clusters[ci];
    if (c.size() < m_) continue;
    Candidate fresh;
    fresh.objects.assign(c.begin(), c.end());
    fresh.start_tick = step_start;
    fresh.end_tick = step_end;
    fresh.lifetime = step_weight;
    Offer(std::move(fresh));
  }

  // Keep the live set in lexicographic object-set order — the iteration
  // order the ordered-map implementation handed every downstream consumer
  // (and the next step's emission order). Keys are unique post-dedup.
  live_.swap(pool_);
  std::sort(live_.begin(), live_.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.objects < b.objects;
            });
  tally_.completed += completed->size() - completed_before;
  tally_.live_max = std::max<uint64_t>(tally_.live_max, live_.size());
}

void CandidateTracker::Flush(std::vector<Candidate>* completed) {
  const size_t completed_before = completed->size();
  for (Candidate& v : live_) {
    if (v.lifetime >= k_) completed->push_back(std::move(v));
  }
  tally_.completed += completed->size() - completed_before;
  live_.clear();
}

}  // namespace convoy
