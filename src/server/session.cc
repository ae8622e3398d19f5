#include "server/session.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace convoy::server {

namespace {

ConvoyQuery QueryFrom(const IngestBeginMsg& begin) {
  ConvoyQuery q;
  q.m = begin.m;
  q.k = begin.k;
  q.e = begin.e;
  q.num_threads = 1;  // the stream worker is the unit of parallelism
  return q;
}

StreamingCmc::Options StreamOptionsFrom(const IngestBeginMsg& begin) {
  StreamingCmc::Options options;
  options.carry_forward_ticks = begin.carry_forward_ticks;
  return options;
}

}  // namespace

IngestStream::IngestStream(const IngestBeginMsg& begin, size_t ring_capacity,
                           StreamSink* sink, TraceSession* trace,
                           wal::WalWriter* wal, bool replaying)
    : stream_id_(begin.stream_id),
      query_(QueryFrom(begin)),
      sink_(sink),
      trace_(trace),
      wal_(wal),
      ring_(ring_capacity),
      stream_(query_, StreamOptionsFrom(begin)),
      replaying_(replaying),
      worker_("stream-worker", [this] { WorkerLoop(); }) {}

IngestStream::~IngestStream() { Close(); }

PushResult IngestStream::Submit(WorkItem item) {
  return ring_.TryPush(std::move(item));
}

void IngestStream::Close() {
  ring_.Close();
  worker_.Join();
}

void IngestStream::WorkerLoop() {
  while (std::optional<WorkItem> item = ring_.Pop()) {
    TraceCountMax(trace_, TraceCounter::kServerRingHighWater,
                  ring_.HighWater());
    Process(*item);
  }
}

void IngestStream::ReplayRecord(const wal::WalRecord& record) {
  WorkItem item;
  item.seq = record.seq;
  item.tick = record.tick;
  switch (record.kind) {
    case wal::WalRecordKind::kBegin:
      return;  // consumed by stream creation
    case wal::WalRecordKind::kBatch:
      item.kind = WorkItem::Kind::kBatch;
      item.rows.reserve(record.rows.size());
      for (const wal::WalRow& row : record.rows) {
        item.rows.push_back(PositionReport{row.id, row.x, row.y});
      }
      break;
    case wal::WalRecordKind::kEndTick:
      item.kind = WorkItem::Kind::kEndTick;
      break;
    case wal::WalRecordKind::kFinish:
      item.kind = WorkItem::Kind::kFinish;
      break;
  }
  Process(item);
}

void IngestStream::Process(WorkItem& item) {
  // Seq-dedup: a producer resending after a reconnect (or a duplicate WAL
  // record from a crash between append and ack) is acked OK without
  // re-applying — the crash-recovery idempotence guarantee. Only applied
  // items advance last_applied_seq_, so a retried NAK is not mistaken for
  // a duplicate unless a later item was applied in between.
  if (item.seq != 0 &&
      item.seq <= last_applied_seq_.load(std::memory_order_relaxed)) {
    AckMsg ack;
    ack.seq = item.seq;
    ack.flags = kAckFlagDuplicate;
    SendAckIfLive(ack);
    return;
  }
  if (wal_broken_) {
    Nak(item.seq, Status::Internal(
                      "write-ahead log failed; the stream is closed"));
    return;
  }
  switch (item.kind) {
    case WorkItem::Kind::kBatch:
      ProcessBatch(item);
      return;
    case WorkItem::Kind::kEndTick:
      ProcessEndTick(item);
      return;
    case WorkItem::Kind::kFinish:
      ProcessFinish(item);
      return;
  }
}

void IngestStream::Nak(uint64_t seq, const Status& status) {
  AckMsg nak;
  nak.seq = seq;
  nak.code = static_cast<uint8_t>(status.code());
  nak.retryable = 0;
  nak.message = status.message();
  TraceCount(trace_, TraceCounter::kServerBatchesRejected, 1);
  SendAckIfLive(nak);
}

void IngestStream::SendAckIfLive(const AckMsg& ack) {
  if (replaying_) return;
  sink_->SendAck(stream_id_, ack);
}

void IngestStream::SendEventIfLive(const EventMsg& event) {
  if (replaying_) return;
  sink_->SendEvent(event);
  TraceCount(trace_, TraceCounter::kServerEventsEmitted, 1);
}

bool IngestStream::LogApplied(wal::WalRecordKind kind, const WorkItem& item,
                              std::vector<wal::WalRow> rows) {
  if (wal_ == nullptr || replaying_) return true;
  wal::WalRecord record;
  record.kind = kind;
  record.stream_id = stream_id_;
  record.seq = item.seq;
  record.tick = item.tick;
  record.rows = std::move(rows);
  const Status appended = wal_->Append(record);
  if (appended.ok()) return true;
  // The item is applied in memory but not logged: anything applied after
  // it would be logged over a gap and recovery would diverge from acked
  // history. Poison the stream — this item and everything behind it in
  // the ring are NAKed non-retryably (never acked, so "acked implies
  // recoverable" still holds) and no new work is accepted.
  wal_broken_ = true;
  ring_.Close();
  Nak(item.seq, appended);
  return false;
}

void IngestStream::ProcessBatch(const WorkItem& item) {
  if (finished_) {
    Nak(item.seq, Status::FailedPrecondition(
                      "ReportBatch after IngestFinish: the stream is over"));
    return;
  }
  if (!stream_.CurrentTick().has_value()) {
    const Status began = stream_.BeginTick(item.tick);
    if (!began.ok()) {
      Nak(item.seq, began);
      return;
    }
  } else if (*stream_.CurrentTick() != item.tick) {
    Nak(item.seq,
        Status::InvalidArgument(
            "ReportBatch for tick " + std::to_string(item.tick) +
            " while tick " + std::to_string(*stream_.CurrentTick()) +
            " is open (EndTick missing)"));
    return;
  }

  AckMsg ack;
  ack.seq = item.seq;
  std::vector<wal::WalRow> accepted_rows;
  for (const PositionReport& row : item.rows) {
    const Status reported = stream_.Report(row.id, Point(row.x, row.y));
    if (!reported.ok()) {
      // Row-level rejection (non-finite position): the batch stays
      // accepted, the bad row is dropped and counted.
      ++ack.rejected;
      continue;
    }
    ++ack.accepted;
    accepted_rows.push_back(wal::WalRow{row.id, row.x, row.y});
  }
  if (!accepted_rows.empty()) {
    // One lock per batch: queries see a batch's rows all at once or not
    // at all.
    std::lock_guard<std::mutex> lock(rows_mu_);
    for (const wal::WalRow& row : accepted_rows) {
      AcceptReport(&rows_, row.id, Point(row.x, row.y), item.tick);
    }
    ++revision_;
  }
  // Only the rows that survived validation are logged — replay re-accepts
  // exactly them, keeping the recovered row table bit-identical.
  if (!LogApplied(wal::WalRecordKind::kBatch, item, std::move(accepted_rows)))
    return;
  last_applied_seq_.store(item.seq, std::memory_order_relaxed);
  TraceCount(trace_, TraceCounter::kServerBatchesAccepted, 1);
  SendAckIfLive(ack);
}

void IngestStream::ProcessEndTick(const WorkItem& item) {
  if (finished_) {
    Nak(item.seq, Status::FailedPrecondition(
                      "EndTick after IngestFinish: the stream is over"));
    return;
  }
  if (!stream_.CurrentTick().has_value()) {
    // A tick with zero reports: open it empty, then close it — the
    // candidate algebra sees an empty snapshot at `tick`.
    const Status began = stream_.BeginTick(item.tick);
    if (!began.ok()) {
      Nak(item.seq, began);
      return;
    }
  } else if (*stream_.CurrentTick() != item.tick) {
    Nak(item.seq,
        Status::InvalidArgument(
            "EndTick(" + std::to_string(item.tick) + ") does not match the " +
            "open tick " + std::to_string(*stream_.CurrentTick())));
    return;
  }

  StatusOr<std::vector<Convoy>> closed = stream_.EndTick();
  if (!closed.ok()) {
    Nak(item.seq, closed.status());
    return;
  }
  // Log before the events fan out and before the ack: a crash after the
  // append replays this tick to the same closed set; a crash before it
  // leaves the tick unacked and the producer resends.
  if (!LogApplied(wal::WalRecordKind::kEndTick, item, {})) return;
  last_applied_seq_.store(item.seq, std::memory_order_relaxed);
  EmitTickEvents(item.tick, *closed);

  AckMsg ack;
  ack.seq = item.seq;
  ack.accepted = static_cast<uint32_t>(closed->size());
  SendAckIfLive(ack);
}

void IngestStream::ProcessFinish(const WorkItem& item) {
  if (finished_) {
    Nak(item.seq,
        Status::FailedPrecondition("IngestFinish: the stream is already over"));
    return;
  }
  StatusOr<std::vector<Convoy>> closed = stream_.Finish();
  if (!closed.ok()) {
    // A tick is still open — recoverable: the client can EndTick and retry.
    Nak(item.seq, closed.status());
    return;
  }
  if (!LogApplied(wal::WalRecordKind::kFinish, item, {})) return;
  finished_ = true;
  last_applied_seq_.store(item.seq, std::memory_order_relaxed);
  for (const Convoy& convoy : *closed) {
    EmitClosed(convoy.end_tick, 0, convoy);
  }
  prev_open_.clear();

  EventMsg end;
  end.stream_id = stream_id_;
  end.kind = static_cast<uint8_t>(EventKind::kStreamEnd);
  SendEventIfLive(end);

  AckMsg ack;
  ack.seq = item.seq;
  ack.accepted = static_cast<uint32_t>(closed->size());
  SendAckIfLive(ack);
}

void IngestStream::EmitClosed(Tick tick, uint32_t live_candidates,
                              const Convoy& convoy) {
  EventMsg ev;
  ev.stream_id = stream_id_;
  ev.kind = static_cast<uint8_t>(EventKind::kConvoyClosed);
  ev.tick = tick;
  ev.live_candidates = live_candidates;
  ev.event_index = ++next_event_index_;
  ev.convoy = convoy;
  {
    // Recorded during replay too — that is how the closed sequence (and
    // its indices) survive a crash for replay_closed subscribers.
    std::lock_guard<std::mutex> lock(history_mu_);
    closed_history_.push_back(ev);
  }
  SendEventIfLive(ev);
}

std::vector<EventMsg> IngestStream::ClosedEvents() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return closed_history_;
}

void IngestStream::EmitTickEvents(Tick tick,
                                  const std::vector<Convoy>& closed) {
  EventMsg summary;
  summary.stream_id = stream_id_;
  summary.kind = static_cast<uint8_t>(EventKind::kTick);
  summary.tick = tick;
  summary.live_candidates = static_cast<uint32_t>(stream_.LiveCandidates());
  SendEventIfLive(summary);

  // Open convoys arrive in the tracker's canonical order; the diff against
  // the previous tick's open set classifies each as new or extended, so a
  // subscriber can maintain a live view without replaying the stream.
  const std::vector<Convoy> open_now = stream_.OpenConvoys();
  std::set<std::vector<ObjectId>> open_keys;
  for (const Convoy& convoy : open_now) {
    EventMsg ev;
    ev.stream_id = stream_id_;
    ev.kind = static_cast<uint8_t>(prev_open_.count(convoy.objects) > 0
                                       ? EventKind::kConvoyExtended
                                       : EventKind::kConvoyNew);
    ev.tick = tick;
    ev.live_candidates = summary.live_candidates;
    ev.convoy = convoy;
    SendEventIfLive(ev);
    open_keys.insert(convoy.objects);
  }
  prev_open_ = std::move(open_keys);

  for (const Convoy& convoy : closed) {
    EmitClosed(tick, summary.live_candidates, convoy);
  }
}

std::shared_ptr<const ConvoyEngine> IngestStream::SnapshotEngine() {
  RowTable copy;
  uint64_t revision = 0;
  {
    std::lock_guard<std::mutex> lock(rows_mu_);
    revision = revision_;
    copy = rows_;
  }
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    if (engine_ != nullptr && engine_revision_ == revision) return engine_;
  }
  // Build outside both locks: the worker keeps accepting rows while a
  // query materializes its snapshot. Two racing queries may both build;
  // the later publish wins and the duplicate is dropped (benign).
  TrajectoryDatabase db;
  for (auto& [id, samples] : copy) {
    db.Add(Trajectory(id, std::move(samples)));
  }
  auto built = std::make_shared<const ConvoyEngine>(std::move(db));
  std::lock_guard<std::mutex> lock(engine_mu_);
  engine_ = built;
  engine_revision_ = revision;
  return built;
}

std::shared_ptr<IngestStream::LiveState> IngestStream::LiveStateFor(
    const ConvoyQuery& query) {
  uint64_t e_bits = 0;
  static_assert(sizeof(e_bits) == sizeof(query.e));
  std::memcpy(&e_bits, &query.e, sizeof(e_bits));
  std::lock_guard<std::mutex> lock(live_mu_);
  ++live_clock_;
  for (LiveSlot& slot : live_slots_) {
    if (slot.m == query.m && slot.k == query.k && slot.e_bits == e_bits) {
      slot.last_used = live_clock_;
      return slot.state;
    }
  }
  if (live_slots_.size() >= kMaxLiveStates) {
    // A query still running on the evicted state keeps it alive through
    // its shared_ptr; it is dropped when that query returns.
    live_slots_.erase(std::min_element(
        live_slots_.begin(), live_slots_.end(),
        [](const LiveSlot& a, const LiveSlot& b) {
          return a.last_used < b.last_used;
        }));
  }
  LiveSlot slot{query.m, query.k, e_bits, live_clock_,
                std::make_shared<LiveState>(query)};
  live_slots_.push_back(slot);
  return slot.state;
}

LiveAnswer IngestStream::LiveQuery(const ConvoyQuery& query) {
  const std::shared_ptr<LiveState> state = LiveStateFor(query);
  std::lock_guard<std::mutex> state_lock(state->mu);
  IncrementalPlan plan;
  {
    // Only the dirty scan and the sample copy hold the row lock; the
    // trajectories, the tail database and every clustering are built
    // outside it.
    std::lock_guard<std::mutex> lock(rows_mu_);
    plan = state->cmc.Plan(rows_);
  }
  LiveAnswer answer;
  answer.convoys = state->cmc.Refresh(std::move(plan), &answer.report);
  TraceCount(trace_, TraceCounter::kServerLiveQueries, 1);
  TraceCount(trace_, TraceCounter::kServerLiveTicksClustered,
             answer.report.ticks_clustered);
  return answer;
}

}  // namespace convoy::server
