#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "core/validate.h"
#include "query/algorithm.h"

namespace convoy::server {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// Best-effort sequence number of an undecodable client frame. Every
/// client request lays out `u8 type, u64 seq, ...`, so even a frame whose
/// full decode fails usually carries a recoverable seq — NAKing with it
/// lets a client blocked in AwaitAck(seq) surface the error instead of
/// spinning until the connection drops. Returns 0 (never a real sequence:
/// clients start at 1) when the frame is too short to hold one.
uint64_t BestEffortSeq(const std::string& payload) {
  if (payload.size() < 9) return 0;
  uint64_t seq = 0;
  for (size_t i = 0; i < 8; ++i) {
    seq |= static_cast<uint64_t>(static_cast<uint8_t>(payload[1 + i]))
           << (8 * i);
  }
  return seq;
}

}  // namespace

ConvoyServer::ConvoyServer(ServerOptions options)
    : options_(std::move(options)) {}

ConvoyServer::~ConvoyServer() { Shutdown(); }

Status ConvoyServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  if (!options_.wal_dir.empty()) {
    wal::WalOptions wal_options;
    wal_options.dir = options_.wal_dir;
    wal_options.fsync = options_.fsync;
    wal_options.fsync_interval_ms = options_.fsync_interval_ms;
    wal_options.segment_bytes = options_.wal_segment_bytes;
    // Open first: it truncates a torn tail in place, so the replay below
    // reads a clean log and the truncation point is decided exactly once.
    StatusOr<std::unique_ptr<wal::WalWriter>> writer =
        wal::WalWriter::Open(wal_options, &trace_);
    if (!writer.ok()) return writer.status().WithContext("wal open");
    wal_ = std::move(*writer);
    const Status recovered = RecoverStreams();
    if (!recovered.ok()) return recovered.WithContext("wal recovery");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = ErrnoStatus("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status = ErrnoStatus("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const Status status = ErrnoStatus("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);

  running_.store(true);
  acceptor_ = ServiceThread("acceptor", [this] { AcceptLoop(); });
  return Status::Ok();
}

Status ConvoyServer::RecoverStreams() {
  // Single-threaded phase: Start() has not spawned the acceptor yet, so
  // streams_ needs no lock and every stream's worker is parked in its
  // ring — ReplayRecord drives Process() on this thread, and the ring
  // mutex orders the hand-off to the worker at the first live Submit.
  std::vector<std::shared_ptr<IngestStream>> replayed;
  wal::WalReadStats stats;
  const Status read = wal::ReadWalDir(
      options_.wal_dir,
      [&](const wal::WalRecord& record) -> Status {
        trace_.Count(TraceCounter::kWalRecoveredRecords, 1);
        auto it = streams_.find(record.stream_id);
        if (record.kind == wal::WalRecordKind::kBegin) {
          if (it != streams_.end()) return Status::Ok();  // duplicate begin
          IngestBeginMsg begin;
          begin.seq = record.seq;
          begin.stream_id = record.stream_id;
          begin.m = record.m;
          begin.k = record.k;
          begin.e = record.e;
          begin.carry_forward_ticks = record.carry_forward_ticks;
          auto stream = std::make_shared<IngestStream>(
              begin, options_.ring_capacity, this, &trace_, wal_.get(),
              /*replaying=*/true);
          // Single-threaded: no server thread has been spawned yet.
          // convoy-lint: allow-line(guarded-member)
          streams_.emplace(record.stream_id, stream);
          replayed.push_back(std::move(stream));
          return Status::Ok();
        }
        if (it == streams_.end()) return Status::Ok();  // orphan: skip
        it->second->ReplayRecord(record);
        return Status::Ok();
      },
      &stats);
  if (!read.ok()) return read;
  for (const auto& stream : replayed) stream->FinishReplay();
  trace_.CountMax(TraceCounter::kServerActiveSessionsMax, streams_.size());
  return Status::Ok();
}

void ConvoyServer::Shutdown() {
  const bool was_running = running_.exchange(false);
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocked accept(); close() releases the fd.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  acceptor_.Join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!was_running) return;

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
  }
  for (const auto& conn : conns) {
    // Under write_mu: the acceptor's reap may be closing this same
    // connection concurrently, and shutdown on a reused fd would hit an
    // unrelated socket.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);  // wakes the reader's blocked read
    }
  }
  for (const auto& conn : conns) {
    // The reader closes the event queue on its way out, so the sender
    // drains and exits before its join.
    conn->reader.Join();
    conn->sender.Join();
    CloseConnection(conn);
  }

  std::map<uint64_t, std::shared_ptr<IngestStream>> streams;
  {
    std::lock_guard<std::mutex> lock(mu_);
    streams = streams_;
  }
  // Drain every worker: queued items still process (their acks hit dead
  // sockets and are dropped), then the worker thread joins.
  for (const auto& [id, stream] : streams) stream->Close();

  if (wal_ != nullptr) {
    // Best-effort durability on a clean shutdown, fsync=none included.
    (void)wal_->Sync();
    wal_.reset();
  }

  std::lock_guard<std::mutex> lock(mu_);
  connections_.clear();
  subscribers_.clear();
  stream_owner_.clear();
  streams_.clear();
  pending_streams_.clear();
}

void ConvoyServer::AcceptLoop() {
  while (running_.load()) {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or a fatal accept error)
    }
    if (!running_.load()) {
      ::close(client_fd);
      break;
    }
    // Acks and events are small frames on a request/response cadence —
    // Nagle + delayed ACK would add ~40ms per tick event on loopback.
    const int one = 1;
    ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.idle_timeout_ms > 0) {
      // SO_RCVTIMEO turns a silent peer into a kDeadlineExceeded read —
      // the idle-reap signal (lifted again if the connection subscribes).
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.idle_timeout_ms / 1000);
      tv.tv_usec =
          static_cast<suseconds_t>((options_.idle_timeout_ms % 1000) * 1000);
      ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    // Reap connections whose reader has already exited, so a long-lived
    // daemon does not accumulate one Connection per historical client.
    // Join outside the lock (the dying reader grabs mu_ to unsubscribe).
    std::vector<std::shared_ptr<Connection>> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto alive_end = connections_.begin();
      for (auto& conn : connections_) {
        if (conn->open.load()) {
          *alive_end++ = conn;
        } else {
          dead.push_back(std::move(conn));
        }
      }
      connections_.erase(alive_end, connections_.end());
    }
    for (const auto& conn : dead) {
      conn->reader.Join();
      conn->sender.Join();
      CloseConnection(conn);
    }

    auto conn = std::make_shared<Connection>();
    {
      // No contention possible yet (the connection is unpublished); taken
      // for the fd-under-write_mu invariant.
      std::lock_guard<std::mutex> lock(conn->write_mu);
      conn->fd = client_fd;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.push_back(conn);
    }
    conn->reader =
        ServiceThread("conn-reader", [this, conn] { ReaderLoop(conn); });
  }
}

void ConvoyServer::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  bool hello_done = false;
  while (running_.load() && conn->open.load()) {
    StatusOr<std::string> frame = ReadFrame(conn->fd);
    if (!frame.ok()) {
      // EOF, peer reset, a truncated frame — or the idle timeout: a peer
      // that went silent for idle_timeout_ms no longer pins this thread.
      if (frame.status().code() == StatusCode::kDeadlineExceeded &&
          !conn->subscriber.load()) {
        trace_.Count(TraceCounter::kServerIdleReaped, 1);
      }
      break;
    }
    if (!Dispatch(conn, *frame, &hello_done)) break;
  }
  conn->open.store(false);
  // The peer must observe EOF once this connection is done (rejected
  // handshake or pre-handshake garbage both exit the loop with the
  // client still reading); the fd itself is released in Shutdown after
  // this thread joins.
  ::shutdown(conn->fd, SHUT_RDWR);
  // Unsubscribe everywhere so event fan-out stops touching this socket.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, subs] : subscribers_) {
      auto end = subs.begin();
      for (auto& sub : subs) {
        if (sub != conn) *end++ = sub;
      }
      subs.erase(end, subs.end());
    }
  }
  // Close the event queue (no enqueuer can see this connection anymore),
  // so the sender drains what is left and exits for its join.
  {
    std::lock_guard<std::mutex> lock(conn->eq_mu);
    conn->eq_closed = true;
  }
  conn->eq_cv.notify_all();
}

bool ConvoyServer::Dispatch(const std::shared_ptr<Connection>& conn,
                            const std::string& payload, bool* hello_done) {
  const StatusOr<MsgType> type = PeekType(payload);
  if (!type.ok()) {
    if (!*hello_done) return false;  // garbage before the handshake
    AckTo(conn, 0, type.status());
    return true;
  }
  if (!*hello_done) {
    if (*type != MsgType::kHello) return false;
    const StatusOr<HelloMsg> hello = DecodeHello(payload);
    HelloAckMsg ack;
    if (!hello.ok() || hello->magic != kProtocolMagic) {
      ack.accepted = 0;
      ack.message = "bad magic: not a convoy-server client";
    } else if (hello->version != kProtocolVersion) {
      ack.accepted = 0;
      ack.message = "protocol version mismatch: server speaks " +
                    std::to_string(int{kProtocolVersion}) + ", client sent " +
                    std::to_string(int{hello->version});
    }
    WriteTo(conn, Encode(ack));
    if (ack.accepted == 0) return false;
    *hello_done = true;
    return true;
  }
  switch (*type) {
    case MsgType::kIngestBegin: {
      const StatusOr<IngestBeginMsg> msg = DecodeIngestBegin(payload);
      if (!msg.ok()) {
        AckTo(conn, BestEffortSeq(payload), msg.status());
        return true;
      }
      HandleIngestBegin(conn, *msg);
      return true;
    }
    case MsgType::kReportBatch:
    case MsgType::kEndTick:
    case MsgType::kIngestFinish:
      HandleStreamItem(conn, *type, payload);
      return true;
    case MsgType::kSubscribe: {
      const StatusOr<SubscribeMsg> msg = DecodeSubscribe(payload);
      if (!msg.ok()) {
        AckTo(conn, BestEffortSeq(payload), msg.status());
        return true;
      }
      HandleSubscribe(conn, *msg);
      return true;
    }
    case MsgType::kQuery: {
      const StatusOr<QueryMsg> msg = DecodeQuery(payload);
      if (!msg.ok()) {
        // Query errors travel in the result frame (the client awaits a
        // kQueryResult for this seq, not a kAck), decode errors included.
        QueryResultMsg result;
        result.seq = BestEffortSeq(payload);
        result.code = static_cast<uint8_t>(msg.status().code());
        result.message = msg.status().message();
        WriteTo(conn, Encode(result));
        return true;
      }
      HandleQuery(conn, *msg);
      return true;
    }
    case MsgType::kStatsRequest: {
      const StatusOr<StatsRequestMsg> msg = DecodeStatsRequest(payload);
      if (!msg.ok()) {
        AckTo(conn, BestEffortSeq(payload), msg.status());
        return true;
      }
      HandleStats(conn, *msg);
      return true;
    }
    case MsgType::kHello:
      AckTo(conn, 0,
            Status::FailedPrecondition("duplicate kHello after handshake"));
      return true;
    default:
      AckTo(conn, 0,
            Status::InvalidArgument("server-to-client message type " +
                                    std::to_string(int{payload[0]}) +
                                    " sent by a client"));
      return true;
  }
}

void ConvoyServer::HandleIngestBegin(const std::shared_ptr<Connection>& conn,
                                     const IngestBeginMsg& msg) {
  ConvoyQuery query;
  query.m = msg.m;
  query.k = msg.k;
  query.e = msg.e;
  const Status valid = ValidateQuery(query);
  if (!valid.ok()) {
    AckTo(conn, msg.seq, valid.WithContext("IngestBegin"));
    return;
  }
  if (msg.carry_forward_ticks < 0) {
    AckTo(conn, msg.seq,
          Status::InvalidArgument("IngestBegin: carry_forward_ticks < 0"));
    return;
  }

  std::shared_ptr<IngestStream> stream;
  bool reserved = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One ingest stream per connection: batch frames carry no stream id,
    // so the connection itself is the route.
    for (const auto& [id, owner] : stream_owner_) {
      if (owner == conn && id != msg.stream_id) {
        AckTo(conn, msg.seq,
              Status::FailedPrecondition(
                  "connection already drives stream " + std::to_string(id) +
                  "; open a new connection per ingest stream"));
        return;
      }
    }
    auto it = streams_.find(msg.stream_id);
    if (it != streams_.end()) {
      // A stream survives its producer — and, with a WAL, the process: if
      // the previous owner hung up, a new connection may adopt the stream
      // (original query parameters stay in force) and resume after the
      // ack's resume_seq. A live owner keeps exclusive write access.
      auto owner = stream_owner_.find(msg.stream_id);
      if (owner != stream_owner_.end() && owner->second->open.load() &&
          owner->second != conn) {
        AckTo(conn, msg.seq,
              Status::FailedPrecondition(
                  "stream " + std::to_string(msg.stream_id) +
                  " is owned by a live connection"));
        return;
      }
      stream = it->second;
      stream_owner_[msg.stream_id] = conn;
    } else if (pending_streams_.count(msg.stream_id) > 0) {
      // Another connection's IngestBegin for this id is mid-append;
      // retryable, since that begin may yet fail and roll back.
      AckTo(conn, msg.seq,
            Status::FailedPrecondition(
                "stream " + std::to_string(msg.stream_id) +
                " has an IngestBegin in flight on another connection"),
            /*retryable=*/true);
      return;
    } else {
      pending_streams_.insert(msg.stream_id);
      reserved = true;
    }
  }
  if (reserved) {
    // The kBegin record must be durable before the stream exists (and
    // before the ack leaves): recovery needs the query parameters to
    // rebuild the StreamingCmc. The append runs outside mu_ — a disk
    // write (worse, an fsync) must not stall every other reader thread's
    // dispatch — while the pending reservation keeps the id exclusive.
    Status logged = Status::Ok();
    if (wal_ != nullptr) {
      wal::WalRecord record;
      record.kind = wal::WalRecordKind::kBegin;
      record.stream_id = msg.stream_id;
      record.seq = msg.seq;
      record.m = msg.m;
      record.k = msg.k;
      record.e = msg.e;
      record.carry_forward_ticks = msg.carry_forward_ticks;
      logged = wal_->Append(record);
    }
    if (!logged.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        pending_streams_.erase(msg.stream_id);
      }
      AckTo(conn, msg.seq, logged.WithContext("wal"));
      return;
    }
    stream = std::make_shared<IngestStream>(msg, options_.ring_capacity, this,
                                            &trace_, wal_.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_streams_.erase(msg.stream_id);
      streams_.emplace(msg.stream_id, stream);
      stream_owner_[msg.stream_id] = conn;
      trace_.CountMax(TraceCounter::kServerActiveSessionsMax,
                      streams_.size());
    }
  }
  // The OK ack tells a resuming producer where to continue: everything at
  // or below resume_seq is applied (resends of it would be absorbed as
  // duplicates anyway).
  AckMsg ack;
  ack.seq = msg.seq;
  ack.resume_seq = stream->LastAppliedSeq();
  WriteTo(conn, Encode(ack));
}

void ConvoyServer::HandleStreamItem(const std::shared_ptr<Connection>& conn,
                                    MsgType type, const std::string& payload) {
  WorkItem item;
  switch (type) {
    case MsgType::kReportBatch: {
      StatusOr<ReportBatchMsg> msg = DecodeReportBatch(payload);
      if (!msg.ok()) {
        AckTo(conn, BestEffortSeq(payload), msg.status());
        return;
      }
      item.kind = WorkItem::Kind::kBatch;
      item.seq = msg->seq;
      item.tick = msg->tick;
      item.rows = std::move(msg->rows);
      break;
    }
    case MsgType::kEndTick: {
      const StatusOr<EndTickMsg> msg = DecodeEndTick(payload);
      if (!msg.ok()) {
        AckTo(conn, BestEffortSeq(payload), msg.status());
        return;
      }
      item.kind = WorkItem::Kind::kEndTick;
      item.seq = msg->seq;
      item.tick = msg->tick;
      break;
    }
    default: {
      const StatusOr<IngestFinishMsg> msg = DecodeIngestFinish(payload);
      if (!msg.ok()) {
        AckTo(conn, BestEffortSeq(payload), msg.status());
        return;
      }
      item.kind = WorkItem::Kind::kFinish;
      item.seq = msg->seq;
      break;
    }
  }

  std::shared_ptr<IngestStream> stream;
  size_t queued = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Batch/tick/finish frames carry no stream id: a connection drives at
    // most one ingest stream (enforced in HandleIngestBegin), so the owner
    // map resolves the route unambiguously.
    for (const auto& [id, owner] : stream_owner_) {
      if (owner == conn) {
        auto it = streams_.find(id);
        if (it != streams_.end()) {
          stream = it->second;
          break;
        }
      }
    }
    if (options_.load_shed_high_water > 0) {
      for (const auto& [id, s] : streams_) queued += s->QueueDepth();
    }
  }
  if (stream == nullptr) {
    AckTo(conn, item.seq,
          Status::FailedPrecondition(
              "no ingest stream on this connection (IngestBegin missing)"));
    return;
  }
  if (options_.load_shed_high_water > 0 &&
      queued >= options_.load_shed_high_water) {
    // Load shedding at the door: above the high water the server is
    // already behind across all streams — tell producers to back off
    // before this item ties up a ring slot.
    trace_.Count(TraceCounter::kServerLoadShed, 1);
    AckTo(conn, item.seq,
          Status::RetryAfter("server overloaded: " + std::to_string(queued) +
                             " items queued across streams"),
          /*retryable=*/true);
    return;
  }
  const uint64_t seq = item.seq;
  switch (stream->Submit(std::move(item))) {
    case PushResult::kAccepted:
      break;
    case PushResult::kFull:
      AckTo(conn, seq,
            Status::FailedPrecondition("ingest ring full: flow control"),
            /*retryable=*/true);
      trace_.Count(TraceCounter::kServerBatchesRejected, 1);
      break;
    case PushResult::kClosed:
      // Shutting-down stream: non-retryable, or the client's flow-control
      // retry loop would resend forever against a ring that will never
      // accept again.
      AckTo(conn, seq,
            Status::FailedPrecondition(
                "stream closed: no longer accepting ingest"));
      trace_.Count(TraceCounter::kServerBatchesRejected, 1);
      break;
  }
}

void ConvoyServer::HandleSubscribe(const std::shared_ptr<Connection>& conn,
                                   const SubscribeMsg& msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (streams_.find(msg.stream_id) == streams_.end()) {
      AckTo(conn, msg.seq,
            Status::NotFound("no such stream: " +
                             std::to_string(msg.stream_id)));
      return;
    }
    std::vector<std::shared_ptr<Connection>>& subs =
        subscribers_[msg.stream_id];
    bool present = false;
    for (const auto& sub : subs) present = present || sub == conn;
    if (!present) subs.push_back(conn);
  }
  // Start the event sender (lazily, once): it drains this connection's
  // bounded queue onto the socket. Only the connection's own reader
  // thread reaches here, so the flag needs no lock.
  if (!conn->sender_started) {
    conn->sender_started = true;
    conn->sender =
        ServiceThread("event-sender", [this, conn] { SenderLoop(conn); });
  }
  // Subscribers legitimately go quiet — lift the idle read timeout.
  conn->subscriber.store(true);
  if (options_.idle_timeout_ms > 0) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) {
      timeval tv{};  // zero = block forever
      ::setsockopt(conn->fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
  }
  if (msg.replay_closed != 0) {
    // Catch-up after the live registration above: an event emitted in
    // between may arrive twice (once live, once here) — subscribers
    // dedup on event_index, which is stable across crash recovery. It is
    // queued before the ack, so every event caused by what the client
    // does after Subscribe returns (its kStreamEnd included) follows it.
    const std::shared_ptr<IngestStream> stream = FindStream(msg.stream_id);
    if (stream != nullptr) {
      for (const EventMsg& ev : stream->ClosedEvents()) {
        EnqueueEvent(conn, ev, Encode(ev));
      }
    }
  }
  AckTo(conn, msg.seq, Status::Ok());
}

void ConvoyServer::HandleQuery(const std::shared_ptr<Connection>& conn,
                               const QueryMsg& msg) {
  QueryResultMsg result;
  result.seq = msg.seq;

  const std::shared_ptr<IngestStream> stream = FindStream(msg.stream_id);
  if (stream == nullptr) {
    result.code = static_cast<uint8_t>(StatusCode::kNotFound);
    result.message = "no such stream: " + std::to_string(msg.stream_id);
    WriteTo(conn, Encode(result));
    return;
  }
  if (msg.algo > static_cast<uint8_t>(AlgorithmChoice::kMc2)) {
    result.code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
    result.message = "unknown algorithm choice " + std::to_string(msg.algo);
    WriteTo(conn, Encode(result));
    return;
  }

  ConvoyQuery query;
  query.m = msg.m;
  query.k = msg.k;
  query.e = msg.e;
  query.num_threads = msg.threads == 0 ? 1 : msg.threads;

  // Queries run on the reader thread — ingest keeps flowing through the
  // worker while this executes. kAuto and kCmc resume the stream's
  // incremental CMC (exactly Cmc() over the accepted rows, at the cost of
  // the ticks that changed); the other choices plan an engine snapshot of
  // the rows, so they keep their own plans and EXPLAIN.
  const auto fail = [&](const Status& status) {
    result.code = static_cast<uint8_t>(status.code());
    result.message = status.message();
    WriteTo(conn, Encode(result));
  };
  const auto choice = static_cast<AlgorithmChoice>(msg.algo);
  if (choice == AlgorithmChoice::kAuto || choice == AlgorithmChoice::kCmc) {
    const Status valid = ValidateQuery(query).WithContext("Query");
    if (!valid.ok()) return fail(valid);
    LiveAnswer live = stream->LiveQuery(query);
    if (msg.explain != 0) {
      result.explain =
          live.report.Explain(query, choice == AlgorithmChoice::kAuto);
    }
    result.convoys = std::move(live.convoys);
  } else {
    const std::shared_ptr<const ConvoyEngine> engine =
        stream->SnapshotEngine();
    const StatusOr<QueryPlan> plan = engine->Prepare(query, choice);
    if (!plan.ok()) return fail(plan.status());
    StatusOr<ConvoyResultSet> executed = engine->Execute(*plan);
    if (!executed.ok()) return fail(executed.status());
    if (msg.explain != 0) result.explain = plan->Explain();
    result.convoys = std::move(*executed).TakeConvoys();
  }
  std::string encoded = Encode(result);
  if (encoded.size() > kMaxFramePayload) {
    // WriteFrame refuses oversized frames and WriteTo would read that as a
    // dead peer and drop the connection — answer in-band instead, so the
    // "errors return in the result frame" contract holds at any size.
    QueryResultMsg too_big;
    too_big.seq = msg.seq;
    too_big.code = static_cast<uint8_t>(StatusCode::kDataError);
    too_big.message = "result of " + std::to_string(result.convoys.size()) +
                      " convoys encodes to " + std::to_string(encoded.size()) +
                      " bytes, over the " + std::to_string(kMaxFramePayload) +
                      "-byte frame limit; narrow the query";
    encoded = Encode(too_big);
  }
  WriteTo(conn, encoded);
}

void ConvoyServer::HandleStats(const std::shared_ptr<Connection>& conn,
                               const StatsRequestMsg& msg) {
  StatsResultMsg result;
  result.seq = msg.seq;
  result.json = StatsJson();
  WriteTo(conn, Encode(result));
}

void ConvoyServer::WriteTo(const std::shared_ptr<Connection>& conn,
                           const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // Both checks sit under write_mu: CloseConnection releases the fd under
  // the same mutex, so a writer can never observe a closed (or reused) fd.
  if (!conn->open.load() || conn->fd < 0) return;
  const Status written = WriteFrame(conn->fd, payload);
  if (!written.ok()) {
    // Dead peer: stop writing and wake the reader so it can exit.
    conn->open.store(false);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void ConvoyServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  conn->open.store(false);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void ConvoyServer::AckTo(const std::shared_ptr<Connection>& conn, uint64_t seq,
                         const Status& status, bool retryable) {
  AckMsg ack;
  ack.seq = seq;
  ack.code = static_cast<uint8_t>(status.code());
  ack.retryable = retryable ? 1 : 0;
  ack.message = status.message();
  WriteTo(conn, Encode(ack));
}

std::shared_ptr<IngestStream> ConvoyServer::FindStream(uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_id);
  return it == streams_.end() ? nullptr : it->second;
}

void ConvoyServer::SendAck(uint64_t stream_id, const AckMsg& ack) {
  std::shared_ptr<Connection> owner;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stream_owner_.find(stream_id);
    if (it != stream_owner_.end()) owner = it->second;
  }
  if (owner != nullptr) WriteTo(owner, Encode(ack));
}

void ConvoyServer::SendEvent(const EventMsg& event) {
  std::vector<std::shared_ptr<Connection>> subs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subscribers_.find(event.stream_id);
    if (it != subscribers_.end()) subs = it->second;
  }
  if (subs.empty()) return;
  const std::string payload = Encode(event);
  for (const auto& sub : subs) EnqueueEvent(sub, event, payload);
}

namespace {

/// The in-band loss report for a drop run. Built under eq_mu (reads the
/// connection's drop accounting); `dropped` saturates at u32 max.
EventMsg GapEvent(uint64_t stream_id, uint64_t dropped) {
  EventMsg gap;
  gap.stream_id = stream_id;
  gap.kind = static_cast<uint8_t>(EventKind::kGap);
  gap.live_candidates = static_cast<uint32_t>(
      std::min<uint64_t>(dropped, std::numeric_limits<uint32_t>::max()));
  return gap;
}

}  // namespace

void ConvoyServer::EnqueueEvent(const std::shared_ptr<Connection>& conn,
                                const EventMsg& event,
                                const std::string& frame) {
  {
    std::lock_guard<std::mutex> lock(conn->eq_mu);
    if (conn->eq_closed) return;
    // A pending drop run takes two slots (gap marker + this frame): the
    // queue must never exceed its capacity, even by the marker.
    const size_t needed = conn->dropped_events > 0 ? 2 : 1;
    if (conn->event_queue.size() + needed >
        options_.subscriber_queue_capacity) {
      // Slow subscriber: drop rather than stall the stream worker (the
      // worker's SendEvent must never block on one consumer's socket).
      // Still notify: a drained sender flushes the gap marker itself.
      ++conn->dropped_events;
      conn->dropped_stream_id = event.stream_id;
      trace_.Count(TraceCounter::kServerEventsDropped, 1);
    } else {
      if (conn->dropped_events > 0) {
        // First enqueue after a drop run: tell the subscriber how much it
        // missed, in-band, before the stream resumes.
        conn->event_queue.push_back(
            Encode(GapEvent(event.stream_id, conn->dropped_events)));
        conn->dropped_events = 0;
      }
      conn->event_queue.push_back(frame);
    }
  }
  conn->eq_cv.notify_one();
}

void ConvoyServer::SenderLoop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    std::string frame;
    {
      std::unique_lock<std::mutex> lock(conn->eq_mu);
      conn->eq_cv.wait(lock, [&conn] {
        return conn->eq_closed || !conn->event_queue.empty() ||
               conn->dropped_events > 0;
      });
      if (!conn->event_queue.empty()) {
        frame = std::move(conn->event_queue.front());
        conn->event_queue.pop_front();
      } else if (conn->dropped_events > 0) {
        // The queue drained (or closed) with a drop run still pending:
        // flush the gap marker now — a subscriber whose final events
        // were shed before the stream went quiet must still learn that
        // events were lost.
        frame = Encode(
            GapEvent(conn->dropped_stream_id, conn->dropped_events));
        conn->dropped_events = 0;
      } else {
        return;  // closed and fully drained
      }
    }
    // Outside eq_mu: a slow socket must not block enqueuers (they shed
    // into drops instead). WriteTo no-ops once the connection died.
    WriteTo(conn, frame);
  }
}

std::string ConvoyServer::StatsJson() const {
  std::ostringstream out;
  out << "{\"schema\":\"convoy-server-stats-v1\",\"metrics\":";
  trace_.Metrics().WriteJson(out);
  out << "}";
  return out.str();
}

}  // namespace convoy::server
