#ifndef CONVOY_SERVER_SESSION_H_
#define CONVOY_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "core/engine.h"
#include "core/incremental_cmc.h"
#include "core/streaming.h"
#include "parallel/service_thread.h"
#include "server/protocol.h"
#include "server/ring.h"
#include "traj/trajectory.h"
#include "wal/wal.h"

namespace convoy {
class TraceSession;
}  // namespace convoy

namespace convoy::server {

/// One unit of ingest work, moved from a connection reader thread to the
/// stream's worker through the stream's BoundedRing. The reader never
/// touches the StreamingCmc — it only decodes, enqueues, and NAKs when the
/// ring is full — so convoy output order is a pure function of the input
/// sequence, independent of socket scheduling.
struct WorkItem {
  enum class Kind : uint8_t { kBatch = 0, kEndTick, kFinish };
  Kind kind = Kind::kBatch;
  uint64_t seq = 0;  ///< client sequence, echoed in the ack
  Tick tick = 0;     ///< meaningful for kBatch / kEndTick
  std::vector<PositionReport> rows;  ///< meaningful for kBatch
};

/// Where a stream worker delivers its results: per-item acks (to the
/// connection that owns the ingest session) and subscription events (fanned
/// out to whoever subscribed). Implemented by ConvoyServer over sockets and
/// by a recording stub in server_test.cc — the seam that lets the whole
/// session state machine be tested without a network.
class StreamSink {
 public:
  virtual ~StreamSink() = default;

  /// Acks (or NAKs) one processed WorkItem of stream `stream_id`.
  virtual void SendAck(uint64_t stream_id, const AckMsg& ack) = 0;

  /// Pushes one subscription event. Events of one stream arrive in
  /// deterministic order: per processed tick, a kTick summary, then
  /// new/extended convoys in canonical order, then closed convoys.
  virtual void SendEvent(const EventMsg& event) = 0;
};

/// A live query's answer: exactly Cmc() over the rows accepted when it
/// ran, and what the incremental refresh did to get it (its EXPLAIN).
struct LiveAnswer {
  std::vector<Convoy> convoys;
  IncrementalReport report;
};

/// One live ingest session: a BoundedRing of WorkItems consumed by a
/// dedicated ServiceThread that drives a StreamingCmc, emits subscription
/// events through the StreamSink, and records every accepted report into a
/// row table that ad-hoc queries read — incrementally (LiveQuery) or as a
/// ConvoyEngine snapshot (SnapshotEngine).
///
/// Thread model:
///  * `Submit` is called by connection reader threads (any number); it only
///    touches the ring. A full ring returns kFull — the caller sends a
///    retryable flow-control NAK and drops the item. Backpressure is
///    explicit; nothing buffers without bound.
///  * the worker thread owns the StreamingCmc and all event bookkeeping
///    exclusively — no lock needed, FIFO order guaranteed by the ring.
///  * the worker applies each accepted batch to the row table under
///    `rows_mu_`, once per batch.
///  * `LiveQuery` (query threads) keeps up to kMaxLiveStates incremental
///    CMCs, one per (m, k, e), least recently used evicted. Each has its
///    own mutex: same-key queries serialize on it, different keys run in
///    parallel. Lock order is state mutex, then `rows_mu_`, which is held
///    only to find the changed ticks and copy the samples they need; the
///    clustering runs outside it. The worker never takes a state mutex.
///  * `SnapshotEngine` (query threads) copies the row table under its lock
///    and builds/caches an engine keyed on the table's revision, so
///    repeated queries between batches reuse the build.
///
/// Protocol errors (batch for the wrong tick, finish with a tick open,
/// anything after finish) are NAKed with the underlying recoverable Status
/// and leave the stream exactly as it was — the StreamingCmc contract,
/// surfaced per item.
///
/// Durability: with a WalWriter attached, every *accepted* item is appended
/// to the WAL after it is applied and before its ack leaves — an acked item
/// is always recoverable. A WAL append failure poisons the stream (the
/// in-memory state now holds work the log does not): the failed item and
/// everything after it are NAKed non-retryably and the ring is closed, so
/// the log never develops a gap relative to acked work. Items whose seq is
/// <= the last applied seq (a producer resending after reconnect, or a
/// duplicate WAL record after a crash between append and ack) are absorbed:
/// acked OK with kAckFlagDuplicate, not re-applied.
///
/// Recovery: the server re-creates the stream from its kBegin record with
/// `replaying` = true, feeds the remaining records through ReplayRecord on
/// the recovery thread (the worker is parked in ring_.Pop; the ring mutex
/// orders the hand-off), then calls FinishReplay before the first Submit.
/// Replay drives the exact Process() path — the rebuilt StreamingCmc, row
/// table, and closed-convoy history are bit-identical to an uninterrupted
/// run — with sink sends suppressed and WAL re-appends skipped.
class IngestStream {
 public:
  /// `sink` and `trace` (nullable) must outlive the stream; `wal`
  /// (nullable = no durability) is shared by every stream of the server.
  IngestStream(const IngestBeginMsg& begin, size_t ring_capacity,
               StreamSink* sink, TraceSession* trace,
               wal::WalWriter* wal = nullptr, bool replaying = false);

  /// Closes the ring and joins the worker (drains queued items first).
  ~IngestStream();

  IngestStream(const IngestStream&) = delete;
  IngestStream& operator=(const IngestStream&) = delete;

  uint64_t stream_id() const { return stream_id_; }

  /// Enqueues one item for the worker. kFull means the ring has no slot —
  /// the caller NAKs with retryable=1 (flow control) and the client
  /// resends later. kClosed means the stream is shutting down and will
  /// never accept again — the caller NAKs non-retryable.
  PushResult Submit(WorkItem item);

  /// Closes the ring and joins the worker after it drains. Idempotent.
  /// Queued items are still processed (their acks may go to a dead
  /// connection, which the sink tolerates).
  void Close();

  /// The query parameters the stream was opened with.
  const ConvoyQuery& query() const { return query_; }

  /// Items currently queued for the worker (load-shedding input).
  size_t QueueDepth() const { return ring_.Size(); }

  /// An engine over every report accepted so far (last write per
  /// (object, tick) wins, mirroring StreamingCmc's snapshot semantics).
  /// Cached per row-table revision: queries between batches share one
  /// build. Never null; an empty stream yields an empty-database engine.
  std::shared_ptr<const ConvoyEngine> SnapshotEngine();

  /// Answers `query` (valid per ValidateQuery) with exactly Cmc() over
  /// every report accepted so far, from the incremental CMC kept for its
  /// (m, k, e) (core/incremental_cmc.h): the work is the ticks the rows
  /// accepted since that key's previous answer can change, not the
  /// stream's history. Single-threaded whatever query.num_threads says.
  /// Counts server.live_queries and server.live_ticks_clustered.
  LiveAnswer LiveQuery(const ConvoyQuery& query);

  /// Incremental CMC states kept per stream (one per (m, k, e)).
  static constexpr size_t kMaxLiveStates = 4;

  // ------------------------------------------------------------ recovery

  /// Applies one WAL record on the recovery thread (kBegin records are
  /// consumed by stream creation and ignored here). Only valid while the
  /// stream is in replay mode and before any Submit.
  void ReplayRecord(const wal::WalRecord& record);

  /// Leaves replay mode: subsequent items are logged, acked, and fanned
  /// out normally. Must be called before the first Submit.
  void FinishReplay() { replaying_ = false; }

  /// The seq of the last applied (acked or WAL-recovered) stream item —
  /// the resume_seq a reconnecting producer continues after.
  uint64_t LastAppliedSeq() const {
    return last_applied_seq_.load(std::memory_order_relaxed);
  }

  /// Every closed-convoy event recorded so far, in emission order with
  /// 1-based event_index (stable across crash recovery). Powers the
  /// replay_closed subscribe catch-up.
  std::vector<EventMsg> ClosedEvents() const;

 private:
  void WorkerLoop();
  void Process(WorkItem& item);
  void ProcessBatch(const WorkItem& item);
  void ProcessEndTick(const WorkItem& item);
  void ProcessFinish(const WorkItem& item);
  /// kTick + new/extended/closed events for one processed tick.
  void EmitTickEvents(Tick tick, const std::vector<Convoy>& closed);
  /// Assigns the next event_index, records the event in the closed
  /// history, and (when live) fans it out.
  void EmitClosed(Tick tick, uint32_t live_candidates, const Convoy& convoy);
  /// Appends the record for an applied item; on failure NAKs the item,
  /// poisons the stream, and returns false (the caller must not ack).
  bool LogApplied(wal::WalRecordKind kind, const WorkItem& item,
                  std::vector<wal::WalRow> rows);
  void Nak(uint64_t seq, const Status& status);

  /// One (m, k, e)'s incremental CMC.
  struct LiveState {
    explicit LiveState(const ConvoyQuery& query) : cmc(query) {}
    std::mutex mu;
    IncrementalCmc cmc;  // GUARDED_BY(mu)
  };
  /// The state for `query`'s (m, k, e), created (evicting the least
  /// recently used beyond kMaxLiveStates) on first use.
  std::shared_ptr<LiveState> LiveStateFor(const ConvoyQuery& query);
  /// Sink sends, suppressed during replay (there is nobody to talk to and
  /// the counters must reflect live traffic only).
  void SendAckIfLive(const AckMsg& ack);
  void SendEventIfLive(const EventMsg& event);

  const uint64_t stream_id_;
  const ConvoyQuery query_;
  StreamSink* const sink_;
  TraceSession* const trace_;
  wal::WalWriter* const wal_;

  BoundedRing<WorkItem> ring_;

  // ---- worker-thread-only state (after construction, before Join;
  //      touched by the recovery thread instead while replaying_) ----
  StreamingCmc stream_;
  bool finished_ = false;
  /// True between construction-with-replaying and FinishReplay. Only read
  /// on the thread currently driving Process (recovery, then worker — the
  /// ring mutex orders the hand-off).
  bool replaying_ = false;
  /// Set when a WAL append failed: the log is now behind the in-memory
  /// state, so no further item may be applied (it would be logged over a
  /// gap and recovery would diverge from acked history).
  bool wal_broken_ = false;
  /// Next closed-convoy event_index to assign (1-based).
  uint64_t next_event_index_ = 0;
  /// Object sets of the convoys open after the previous processed tick,
  /// diffed against the current open set to classify new vs extended.
  std::set<std::vector<ObjectId>> prev_open_;

  /// Written by the processing thread, read by reader threads building
  /// IngestBegin acks (resume_seq).
  std::atomic<uint64_t> last_applied_seq_{0};

  // ---- closed-convoy history shared with subscribe threads ----
  mutable std::mutex history_mu_;
  std::vector<EventMsg> closed_history_;  // GUARDED_BY(history_mu_)

  // ---- row table shared with query threads ----
  mutable std::mutex rows_mu_;
  RowTable rows_;          // GUARDED_BY(rows_mu_)
  uint64_t revision_ = 0;  // GUARDED_BY(rows_mu_)

  struct LiveSlot {
    size_t m = 0;
    Tick k = 0;
    uint64_t e_bits = 0;
    uint64_t last_used = 0;
    std::shared_ptr<LiveState> state;
  };
  std::mutex live_mu_;
  std::vector<LiveSlot> live_slots_;  // GUARDED_BY(live_mu_)
  uint64_t live_clock_ = 0;           // GUARDED_BY(live_mu_)

  mutable std::mutex engine_mu_;
  std::shared_ptr<const ConvoyEngine> engine_;  // GUARDED_BY(engine_mu_)
  uint64_t engine_revision_ = 0;                // GUARDED_BY(engine_mu_)

  /// Last member: the worker must start after every field it touches is
  /// constructed, and the destructor joins it before anything tears down.
  ServiceThread worker_;
};

}  // namespace convoy::server

#endif  // CONVOY_SERVER_SESSION_H_
