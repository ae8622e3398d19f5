#ifndef CONVOY_SERVER_SERVER_H_
#define CONVOY_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "parallel/service_thread.h"
#include "server/protocol.h"
#include "server/session.h"
#include "util/status.h"
#include "wal/wal.h"

namespace convoy::server {

struct ServerOptions {
  /// Loopback by default: the daemon is a local-analysis tool, not an
  /// internet-facing service. Bind elsewhere deliberately.
  std::string host = "127.0.0.1";

  /// 0 picks an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;

  /// Capacity of each ingest stream's reader->worker ring. A full ring is
  /// the backpressure signal (retryable NAK), so this bounds per-stream
  /// memory: at most ring_capacity batches are queued, ever.
  size_t ring_capacity = 64;

  // ------------------------------------------------------------ durability

  /// Directory of the write-ahead log. Empty = no WAL: acks promise only
  /// in-memory application (PR 8 behavior). Non-empty: every accepted item
  /// is logged before its ack leaves, and Start() replays an existing log
  /// so a restarted server resumes bit-identical to the uninterrupted run.
  std::string wal_dir;
  wal::FsyncPolicy fsync = wal::FsyncPolicy::kNone;
  uint32_t fsync_interval_ms = 50;
  size_t wal_segment_bytes = 64u * 1024u * 1024u;

  // ------------------------------------------------------- fault tolerance

  /// Reap a connection whose peer sends nothing for this long (leaked
  /// half-open sockets no longer pin reader threads). 0 = never. Cleared
  /// once a connection subscribes — subscribers legitimately go quiet.
  uint32_t idle_timeout_ms = 0;

  /// Bound of each subscriber connection's outgoing event queue. A slow
  /// subscriber overflowing it loses events — replaced by one kGap event
  /// carrying the dropped count — instead of stalling stream workers.
  size_t subscriber_queue_capacity = 1024;

  /// Load shedding: when the total item count queued across every stream
  /// ring reaches this high water, new stream items are NAKed kRetryAfter
  /// (retryable) before they are enqueued. 0 = disabled.
  size_t load_shed_high_water = 0;
};

/// The convoy server: accepts TCP connections speaking the protocol.h
/// framing, multiplexes any number of ingest sessions (one StreamingCmc
/// worker each), subscription feeds, ad-hoc planned queries, and metrics
/// dumps over them.
///
/// Thread architecture (every thread is a parallel/service_thread.h
/// ServiceThread — the raw-thread lint confines thread creation there):
///
///   acceptor ──> per-connection reader ──TryPush──> per-stream worker
///                     │    (decode, dispatch)            (StreamingCmc)
///                     │── queries/stats run on the reader thread: kAuto
///                     │   and kCmc against the stream's incremental CMC
///                     │   (LiveQuery), other choices its SnapshotEngine
///                     └── per-connection event sender drains the bounded
///                         subscription queue (slow subscribers shed, with
///                         kGap markers, instead of stalling workers)
///
/// Readers never block on compute and workers never touch sockets except
/// through the sink (acks to the owning connection, events to subscribers'
/// queues). A full ring NAKs with retryable=1 instead of buffering —
/// explicit flow control.
///
/// Streams outlive their ingest connection: a dropped producer leaves the
/// accepted rows queryable (and the stream resumable by id from a new
/// connection; the IngestBegin ack's resume_seq tells the producer where
/// to continue). With a WAL configured, streams also outlive the process:
/// Start() replays the log through the same Process() path the live
/// server runs, so recovered state — closed-convoy events and their
/// indices included — is bit-identical to an uninterrupted run.
/// Shutdown() closes the listener, wakes every reader via socket shutdown,
/// drains and joins every stream worker, then joins the acceptor — after
/// it returns no thread of the server is alive.
class ConvoyServer : public StreamSink {
 public:
  explicit ConvoyServer(ServerOptions options = {});

  /// Calls Shutdown().
  ~ConvoyServer() override;

  ConvoyServer(const ConvoyServer&) = delete;
  ConvoyServer& operator=(const ConvoyServer&) = delete;

  /// Opens the WAL and replays it (when configured), then binds, listens,
  /// and spawns the acceptor. kInternal with errno context when the socket
  /// setup fails (port in use, bad host, ...) or the WAL dir is unusable.
  Status Start();

  /// Stops accepting, closes every connection, drains every stream worker,
  /// syncs the WAL, and joins all threads. Idempotent; destructor-called.
  void Shutdown();

  /// The bound port (resolves option port 0 to the ephemeral pick).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// {"schema":"convoy-server-stats-v1","metrics":{...}} — the server's
  /// lifetime TraceSession rendered through QueryMetrics::WriteJson, i.e.
  /// the same counter catalog every other execution path reports, plus the
  /// server.* and wal.* counters. Safe to call while the server runs
  /// (monotone approximation; exact after Shutdown).
  std::string StatsJson() const;

  /// The server-lifetime trace (server.* counters, per-stream tick spans).
  TraceSession& trace() { return trace_; }

  // StreamSink: called by stream workers.
  void SendAck(uint64_t stream_id, const AckMsg& ack) override;
  void SendEvent(const EventMsg& event) override;

 private:
  struct Connection {
    /// Set once before the reader spawns; -1 after CloseConnection. All
    /// writes to the socket — and the ::close itself — happen under
    /// write_mu, so no writer can hold the fd across its close (and a
    /// kernel-reused descriptor can never receive a stale frame).
    int fd = -1;  // GUARDED_BY(write_mu) once the reader is live
    /// Serializes frames onto the socket: the reader's replies, worker
    /// acks, and subscription events interleave at frame granularity.
    std::mutex write_mu;
    std::atomic<bool> open{true};
    /// Set once the connection subscribes: exempt from idle reaping.
    std::atomic<bool> subscriber{false};
    ServiceThread reader;  ///< joined before CloseConnection

    // ---- outgoing subscription events (bounded; see EnqueueEvent) ----
    std::mutex eq_mu;
    std::condition_variable eq_cv;
    std::deque<std::string> event_queue;  // GUARDED_BY(eq_mu)
    uint64_t dropped_events = 0;          // GUARDED_BY(eq_mu)
    /// Stream of the most recent drop — addresses the gap marker when the
    /// sender flushes a drop run after the queue drained.
    uint64_t dropped_stream_id = 0;       // GUARDED_BY(eq_mu)
    bool eq_closed = false;               // GUARDED_BY(eq_mu)
    /// Touched only by the connection's own reader thread.
    bool sender_started = false;
    ServiceThread sender;  ///< drains event_queue; started on subscribe
  };

  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  /// Dispatches one decoded frame; false ends the connection (handshake
  /// rejection). Recoverable errors answer a NAK and keep reading.
  bool Dispatch(const std::shared_ptr<Connection>& conn,
                const std::string& payload, bool* hello_done);

  void HandleIngestBegin(const std::shared_ptr<Connection>& conn,
                         const IngestBeginMsg& msg);
  void HandleStreamItem(const std::shared_ptr<Connection>& conn, MsgType type,
                        const std::string& payload);
  void HandleSubscribe(const std::shared_ptr<Connection>& conn,
                       const SubscribeMsg& msg);
  void HandleQuery(const std::shared_ptr<Connection>& conn,
                   const QueryMsg& msg);
  void HandleStats(const std::shared_ptr<Connection>& conn,
                   const StatsRequestMsg& msg);

  /// Re-creates every stream recorded in the WAL and replays the log
  /// through it. Runs on the Start() thread before the acceptor exists.
  Status RecoverStreams();

  /// Pushes one encoded event onto the connection's bounded queue. The
  /// capacity check reserves a slot for a pending gap marker, so the
  /// queue never exceeds subscriber_queue_capacity. A full queue drops
  /// the event (counted); the first enqueue after a drop is preceded by
  /// a kGap event carrying the dropped count.
  void EnqueueEvent(const std::shared_ptr<Connection>& conn,
                    const EventMsg& event, const std::string& frame);
  /// The per-connection event sender body: drains the queue to the
  /// socket. When the queue drains (or closes) with a drop run still
  /// pending, it flushes the gap marker itself — a subscriber whose
  /// final events were shed before the stream went quiet still learns
  /// events were lost.
  void SenderLoop(const std::shared_ptr<Connection>& conn);

  /// Writes one frame under the connection's write mutex; a failed write
  /// marks the connection closed (its reader notices on its next read).
  void WriteTo(const std::shared_ptr<Connection>& conn,
               const std::string& payload);
  /// Releases the connection's fd under its write mutex (idempotent).
  /// Call only after the reader has been joined.
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void AckTo(const std::shared_ptr<Connection>& conn, uint64_t seq,
             const Status& status, bool retryable = false);

  std::shared_ptr<IngestStream> FindStream(uint64_t stream_id);

  ServerOptions options_;
  TraceSession trace_;

  /// Non-null iff options_.wal_dir is set; shared by every stream. Opened
  /// (and the log replayed) in Start() before any socket exists, reset in
  /// Shutdown() after the last worker drained.
  std::unique_ptr<wal::WalWriter> wal_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  ServiceThread acceptor_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Connection>> connections_;  // GUARDED_BY(mu_)
  std::map<uint64_t, std::shared_ptr<IngestStream>>
      streams_;  // GUARDED_BY(mu_)
  /// Stream ids whose IngestBegin is mid-flight: reserved under mu_, then
  /// the kBegin WAL append runs *outside* mu_ (a disk write must not
  /// stall every reader thread's dispatch), then the registration is
  /// finalized — or rolled back — under mu_ again.
  std::set<uint64_t> pending_streams_;  // GUARDED_BY(mu_)
  /// stream_id -> connection that owns the ingest session (acks go here).
  std::map<uint64_t, std::shared_ptr<Connection>>
      stream_owner_;  // GUARDED_BY(mu_)
  /// stream_id -> subscribed connections (events fan out here).
  std::map<uint64_t, std::vector<std::shared_ptr<Connection>>>
      subscribers_;  // GUARDED_BY(mu_)
};

}  // namespace convoy::server

#endif  // CONVOY_SERVER_SERVER_H_
