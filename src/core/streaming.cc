#include "core/streaming.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/cmc.h"
#include "core/validate.h"
#include "obs/trace.h"

namespace convoy {

StreamingCmc::StreamingCmc(const ConvoyQuery& query, const Options& options)
    : query_(query),
      options_(options),
      query_status_(ValidateQuery(query)),
      tracker_(query.m, query.k) {}

Status StreamingCmc::BeginTick(Tick t) {
  if (!query_status_.ok()) {
    return query_status_.WithContext("StreamingCmc has an invalid query");
  }
  if (current_tick_.has_value()) {
    return Status::FailedPrecondition(
        "BeginTick(" + std::to_string(t) + ") while tick " +
        std::to_string(*current_tick_) + " is still open (EndTick() missing)");
  }
  if (last_processed_.has_value() && t <= *last_processed_) {
    return Status::InvalidArgument(
        "BeginTick(" + std::to_string(t) + ") is not after the last " +
        "processed tick " + std::to_string(*last_processed_) +
        "; ticks must be fed in strictly increasing order");
  }
  // Skipped ticks are empty snapshots, so candidate lifetimes remain
  // strictly consecutive. The first empty step retires every live
  // candidate and an empty tracker stays empty over empty ticks, so one
  // step stands for the whole gap, however far the jump. (t > last here,
  // so t - 1 cannot overflow.)
  if (last_processed_.has_value() && t - 1 > *last_processed_) {
    tracker_.Advance(ClusterSpans(), *last_processed_ + 1,
                     *last_processed_ + 1, /*step_weight=*/1, &completed_);
  }
  current_tick_ = t;
  snapshot_.clear();
  return Status::Ok();
}

Status StreamingCmc::Report(ObjectId id, const Point& position) {
  if (!current_tick_.has_value()) {
    return Status::FailedPrecondition(
        "Report(" + std::to_string(id) + ") outside a tick "
        "(BeginTick() missing)");
  }
  if (!std::isfinite(position.x) || !std::isfinite(position.y)) {
    return Status::InvalidArgument(
        "Report(" + std::to_string(id) + ") at tick " +
        std::to_string(*current_tick_) + ": non-finite position (" +
        std::to_string(position.x) + ", " + std::to_string(position.y) + ")");
  }
  snapshot_[id] = position;
  return Status::Ok();
}

StatusOr<std::vector<Convoy>> StreamingCmc::EndTick() {
  if (!current_tick_.has_value()) {
    return Status::FailedPrecondition(
        "EndTick() outside a tick (BeginTick() missing)");
  }
  const Tick t = *current_tick_;
  // One trace branch per tick; the clock only runs with a trace attached.
  const uint64_t tick_start = trace_ != nullptr ? trace_->NowNs() : 0;

  // Record last-seen for the objects actually reported this tick BEFORE
  // carrying silent ones forward: a carried entry must keep the tick of
  // its last real report, or one tick of carry allowance would refresh
  // itself and bridge unbounded silence.
  // Keyed upsert per id; the resulting last_seen_ contents are
  // iteration-order-free.
  // convoy-lint: allow-line(unordered-iter)
  for (const auto& [id, pos] : snapshot_) {
    last_seen_[id] = LastSeen{pos, t};
  }
  // Carry forward recently seen objects that stayed silent this tick.
  if (options_.carry_forward_ticks > 0) {
    // Keyed inserts into snapshot_; the resulting map contents are
    // iteration-order-free.
    // convoy-lint: allow-line(unordered-iter)
    for (const auto& [id, seen] : last_seen_) {
      if (snapshot_.count(id) > 0) continue;
      if (t - seen.tick <= options_.carry_forward_ticks) {
        snapshot_.emplace(id, seen.position);
      }
    }
  }

  // The snapshot path shared with batch CMC / MC2 (ClusterSnapshot): the
  // stream differs only in where the positions come from, never in how a
  // snapshot is clustered. Under-m ticks skip the gather entirely — on a
  // sparse stream most ticks end here — and advance over no clusters.
  ClusterSpans clusters;
  bool clustered = false;
  if (snapshot_.size() >= query_.m) {
    gather_points_.clear();
    gather_ids_.clear();
    gather_points_.reserve(snapshot_.size());
    gather_ids_.reserve(snapshot_.size());
    // Gather in ascending id order, never hash-map order: DBSCAN assigns
    // a border point to whichever core point reaches it first, so the
    // cluster input order must be a pure function of the reported
    // (id, position) set. unordered_map iteration order depends on
    // bucket history (and standard-library version) — feeding it to the
    // clusterer made identical ticks potentially cluster differently.
    // convoy-lint: allow-line(unordered-iter) — keys only; sorted below.
    for (const auto& [id, pos] : snapshot_) gather_ids_.push_back(id);
    std::sort(gather_ids_.begin(), gather_ids_.end());
    for (const ObjectId id : gather_ids_) {
      gather_points_.push_back(snapshot_.find(id)->second);
    }
    clusters_.Clear();
    clustered = ClusterSnapshot(gather_points_, gather_ids_, query_,
                                &dbscan_scratch_, &clusters_);
    clusters = clusters_.Step(0);
  }
  tracker_.Advance(clusters, t, t, /*step_weight=*/1, &completed_);

  last_processed_ = t;
  current_tick_.reset();
  if (trace_ != nullptr) {
    if (clustered) {
      trace_->Count(TraceCounter::kSnapshotsClustered, 1);
      TraceDbscanRun(trace_, dbscan_scratch_.tally);
    }
    const uint64_t tick_end = trace_->NowNs();
    trace_->RecordSpan("stream.tick", tick_start, tick_end);
    trace_->Observe("stream.tick_ms",
                    static_cast<double>(tick_end - tick_start) / 1e6);
  }
  return DrainCompleted();
}

StatusOr<std::vector<Convoy>> StreamingCmc::Finish() {
  if (current_tick_.has_value()) {
    return Status::FailedPrecondition(
        "Finish() while tick " + std::to_string(*current_tick_) +
        " is still open (EndTick() missing)");
  }
  tracker_.Flush(&completed_);
  last_seen_.clear();
  TraceTrackerTally(trace_, tracker_.tally());
  return DrainCompleted();
}

std::vector<Convoy> StreamingCmc::OpenConvoys() const {
  std::vector<Convoy> open;
  for (const Candidate& cand : tracker_.live()) {
    if (cand.lifetime >= query_.k) open.push_back(cand.ToConvoy());
  }
  return open;
}

std::vector<Convoy> StreamingCmc::DrainCompleted() {
  std::vector<Convoy> out;
  out.reserve(completed_.size());
  for (const Candidate& cand : completed_) out.push_back(cand.ToConvoy());
  completed_.clear();
  return RemoveDominated(std::move(out));
}

}  // namespace convoy
