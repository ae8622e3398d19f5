#include "core/cluster_memo.h"

#include <bit>
#include <iterator>
#include <utility>

namespace convoy {

namespace {

size_t BytesOf(const WindowClusters& window) { return window.ticks.Bytes(); }

}  // namespace

ClusterMemoKey ClusterMemoKey::Of(const CutsFilterOptions& options,
                                  const ConvoyQuery& query) {
  ClusterMemoKey key;
  key.simplifier = options.simplifier;
  key.distance = options.distance;
  key.delta_bits = std::bit_cast<uint64_t>(options.delta);
  key.lambda = options.lambda;
  key.use_actual_tolerance = options.use_actual_tolerance;
  key.use_box_pruning = options.use_box_pruning;
  key.e_bits = std::bit_cast<uint64_t>(query.e);
  key.m = query.m;
  return key;
}

ClusterMemoKey ClusterMemoKey::Snapshots(const ConvoyQuery& query) {
  ClusterMemoKey key;
  key.lambda = 0;
  key.e_bits = std::bit_cast<uint64_t>(query.e);
  key.m = query.m;
  return key;
}

std::shared_ptr<const FilterClusters> ClusterMemo::Filter(
    const ClusterMemoKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.filter == nullptr) return nullptr;
  it->second.last_use = ++clock_;
  return it->second.filter;
}

std::shared_ptr<const FilterClusters> ClusterMemo::PublishFilter(
    const ClusterMemoKey& key,
    std::shared_ptr<const FilterClusters> clusters) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto found = entries_.find(key);
  if (found != entries_.end() && found->second.filter != nullptr) {
    found->second.last_use = ++clock_;
    return found->second.filter;  // a racing miss published first
  }
  const size_t added = clusters->Bytes();
  const size_t key_bytes = found != entries_.end() ? found->second.bytes : 0;
  if (key_bytes + added > budget_) return clusters;  // never fits
  Entry& entry = entries_[key];
  entry.filter = clusters;
  entry.bytes += added;
  entry.last_use = ++clock_;
  bytes_ += added;
  EvictFor(key);
  return clusters;
}

std::vector<std::shared_ptr<const WindowClusters>> ClusterMemo::Windows(
    const ClusterMemoKey& key) {
  std::vector<std::shared_ptr<const WindowClusters>> windows;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return windows;
  it->second.last_use = ++clock_;
  windows.reserve(it->second.windows.size());
  for (const auto& [begin, window] : it->second.windows) {
    windows.push_back(window);
  }
  return windows;
}

void ClusterMemo::PublishWindow(const ClusterMemoKey& key,
                                std::shared_ptr<const WindowClusters> window) {
  const Tick first = window->begin;
  const Tick last = window->end();
  const size_t added = BytesOf(*window);
  std::lock_guard<std::mutex> lock(mu_);
  const auto found = entries_.find(key);
  // The held windows `window` overlaps: from the last one starting at or
  // before `first` (it may reach into the window) through the last one
  // starting at or before `last`.
  size_t dropped = 0;
  std::map<Tick, std::shared_ptr<const WindowClusters>>::iterator lo{}, hi{};
  if (found != entries_.end()) {
    auto& windows = found->second.windows;
    lo = windows.upper_bound(first);
    if (lo != windows.begin() && std::prev(lo)->second->end() >= first) --lo;
    hi = windows.upper_bound(last);
    for (auto it = lo; it != hi; ++it) dropped += BytesOf(*it->second);
  }
  const size_t key_bytes = found != entries_.end() ? found->second.bytes : 0;
  if (key_bytes - dropped + added > budget_) return;  // never fits
  Entry& entry = found != entries_.end() ? found->second : entries_[key];
  if (found != entries_.end()) entry.windows.erase(lo, hi);
  entry.windows.emplace(first, std::move(window));
  entry.bytes = entry.bytes - dropped + added;
  entry.last_use = ++clock_;
  bytes_ = bytes_ - dropped + added;
  EvictFor(key);
}

void ClusterMemo::EvictFor(const ClusterMemoKey& keep) {
  while (bytes_ > budget_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // only `keep` is left
    // convoy-lint: allow-line(guarded-member) — caller holds mu_.
    bytes_ -= victim->second.bytes;
    // convoy-lint: allow-line(guarded-member) — caller holds mu_.
    entries_.erase(victim);
  }
}

ClusterMemo::Held ClusterMemo::Peek(const ClusterMemoKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  Held held;
  if (const auto it = entries_.find(key); it != entries_.end()) {
    held.filter = it->second.filter != nullptr;
    held.windows = it->second.windows.size();
  }
  return held;
}

size_t ClusterMemo::Bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t ClusterMemo::NumKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace convoy
