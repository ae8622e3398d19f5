#include "server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/le_codec.h"
#include "wal/fault.h"

namespace convoy::server {

namespace {

// ------------------------------------------------------ wire primitives
// Little-endian scalars come from util/le_codec.h; strings and convoys are
// the protocol's own.

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutConvoy(std::string* out, const Convoy& c) {
  PutI64(out, c.start_tick);
  PutI64(out, c.end_tick);
  PutU32(out, static_cast<uint32_t>(c.objects.size()));
  for (const ObjectId id : c.objects) PutU32(out, id);
}

bool GetString(ByteReader* reader, std::string* v) {
  uint32_t len = 0;
  std::string_view bytes;
  if (!reader->GetU32(&len) || !reader->GetBytes(len, &bytes)) return false;
  v->assign(bytes);
  return true;
}

bool GetConvoy(ByteReader* reader, Convoy* c) {
  uint32_t n = 0;
  if (!reader->GetI64(&c->start_tick) || !reader->GetI64(&c->end_tick) ||
      !reader->GetU32(&n)) {
    return false;
  }
  // Each id is 4 bytes; checking up front caps the reserve below at the
  // payload size, so a hostile length cannot force a huge allocation.
  if (!reader->Need(static_cast<size_t>(n) * 4)) return false;
  c->objects.clear();
  c->objects.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id = 0;
    if (!reader->GetU32(&id)) return false;
    c->objects.push_back(id);
  }
  return true;
}

std::string Begin(MsgType type) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(type));
  return out;
}

/// Shared decode prologue: non-empty payload with the expected type byte.
Status CheckType(ByteReader* reader, MsgType expected, const char* name) {
  uint8_t type = 0;
  if (!reader->GetU8(&type)) {
    return Status::DataError(std::string(name) + ": empty payload");
  }
  if (type != static_cast<uint8_t>(expected)) {
    return Status::DataError(std::string(name) + ": wrong message type " +
                             std::to_string(type));
  }
  return Status::Ok();
}

Status CheckEnd(const ByteReader& reader, const char* name) {
  if (reader.failed()) {
    return Status::DataError(std::string(name) + ": truncated payload");
  }
  if (!reader.AtEnd()) {
    return Status::DataError(std::string(name) + ": " +
                             std::to_string(reader.remaining()) +
                             " trailing byte(s)");
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------- encode

std::string Encode(const HelloMsg& msg) {
  std::string out = Begin(MsgType::kHello);
  PutU32(&out, msg.magic);
  PutU8(&out, msg.version);
  return out;
}

std::string Encode(const HelloAckMsg& msg) {
  std::string out = Begin(MsgType::kHelloAck);
  PutU8(&out, msg.version);
  PutU8(&out, msg.accepted);
  PutString(&out, msg.message);
  return out;
}

std::string Encode(const IngestBeginMsg& msg) {
  std::string out = Begin(MsgType::kIngestBegin);
  PutU64(&out, msg.seq);
  PutU64(&out, msg.stream_id);
  PutU32(&out, msg.m);
  PutI64(&out, msg.k);
  PutF64(&out, msg.e);
  PutI64(&out, msg.carry_forward_ticks);
  return out;
}

std::string Encode(const ReportBatchMsg& msg) {
  std::string out = Begin(MsgType::kReportBatch);
  PutU64(&out, msg.seq);
  PutI64(&out, msg.tick);
  PutU32(&out, static_cast<uint32_t>(msg.rows.size()));
  for (const PositionReport& row : msg.rows) {
    PutU32(&out, row.id);
    PutF64(&out, row.x);
    PutF64(&out, row.y);
  }
  return out;
}

std::string Encode(const EndTickMsg& msg) {
  std::string out = Begin(MsgType::kEndTick);
  PutU64(&out, msg.seq);
  PutI64(&out, msg.tick);
  return out;
}

std::string Encode(const IngestFinishMsg& msg) {
  std::string out = Begin(MsgType::kIngestFinish);
  PutU64(&out, msg.seq);
  return out;
}

std::string Encode(const SubscribeMsg& msg) {
  std::string out = Begin(MsgType::kSubscribe);
  PutU64(&out, msg.seq);
  PutU64(&out, msg.stream_id);
  PutU8(&out, msg.replay_closed);
  return out;
}

std::string Encode(const QueryMsg& msg) {
  std::string out = Begin(MsgType::kQuery);
  PutU64(&out, msg.seq);
  PutU64(&out, msg.stream_id);
  PutU32(&out, msg.m);
  PutI64(&out, msg.k);
  PutF64(&out, msg.e);
  PutU8(&out, msg.algo);
  PutU8(&out, msg.explain);
  PutU32(&out, msg.threads);
  return out;
}

std::string Encode(const StatsRequestMsg& msg) {
  std::string out = Begin(MsgType::kStatsRequest);
  PutU64(&out, msg.seq);
  return out;
}

std::string Encode(const AckMsg& msg) {
  std::string out = Begin(MsgType::kAck);
  PutU64(&out, msg.seq);
  PutU8(&out, msg.code);
  PutU8(&out, msg.retryable);
  PutU8(&out, msg.flags);
  PutU32(&out, msg.accepted);
  PutU32(&out, msg.rejected);
  PutU64(&out, msg.resume_seq);
  PutString(&out, msg.message);
  return out;
}

std::string Encode(const EventMsg& msg) {
  std::string out = Begin(MsgType::kEvent);
  PutU64(&out, msg.stream_id);
  PutU8(&out, msg.kind);
  PutI64(&out, msg.tick);
  PutU32(&out, msg.live_candidates);
  PutU64(&out, msg.event_index);
  PutConvoy(&out, msg.convoy);
  return out;
}

std::string Encode(const QueryResultMsg& msg) {
  std::string out = Begin(MsgType::kQueryResult);
  PutU64(&out, msg.seq);
  PutU8(&out, msg.code);
  PutString(&out, msg.message);
  PutString(&out, msg.explain);
  PutU32(&out, static_cast<uint32_t>(msg.convoys.size()));
  for (const Convoy& c : msg.convoys) PutConvoy(&out, c);
  return out;
}

std::string Encode(const StatsResultMsg& msg) {
  std::string out = Begin(MsgType::kStatsResult);
  PutU64(&out, msg.seq);
  PutString(&out, msg.json);
  return out;
}

// ---------------------------------------------------------------- decode

StatusOr<MsgType> PeekType(std::string_view payload) {
  if (payload.empty()) return Status::DataError("empty payload");
  const uint8_t raw = static_cast<uint8_t>(payload[0]);
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kHello:
    case MsgType::kIngestBegin:
    case MsgType::kReportBatch:
    case MsgType::kEndTick:
    case MsgType::kIngestFinish:
    case MsgType::kSubscribe:
    case MsgType::kQuery:
    case MsgType::kStatsRequest:
    case MsgType::kHelloAck:
    case MsgType::kAck:
    case MsgType::kEvent:
    case MsgType::kQueryResult:
    case MsgType::kStatsResult:
      return static_cast<MsgType>(raw);
  }
  return Status::DataError("unknown message type " + std::to_string(raw));
}

StatusOr<HelloMsg> DecodeHello(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(CheckType(&reader, MsgType::kHello, "Hello"));
  HelloMsg msg;
  reader.GetU32(&msg.magic);
  reader.GetU8(&msg.version);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "Hello"));
  return msg;
}

StatusOr<HelloAckMsg> DecodeHelloAck(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(CheckType(&reader, MsgType::kHelloAck, "HelloAck"));
  HelloAckMsg msg;
  reader.GetU8(&msg.version);
  reader.GetU8(&msg.accepted);
  GetString(&reader, &msg.message);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "HelloAck"));
  return msg;
}

StatusOr<IngestBeginMsg> DecodeIngestBegin(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(
      CheckType(&reader, MsgType::kIngestBegin, "IngestBegin"));
  IngestBeginMsg msg;
  reader.GetU64(&msg.seq);
  reader.GetU64(&msg.stream_id);
  reader.GetU32(&msg.m);
  reader.GetI64(&msg.k);
  reader.GetF64(&msg.e);
  reader.GetI64(&msg.carry_forward_ticks);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "IngestBegin"));
  return msg;
}

StatusOr<ReportBatchMsg> DecodeReportBatch(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(
      CheckType(&reader, MsgType::kReportBatch, "ReportBatch"));
  ReportBatchMsg msg;
  uint32_t n = 0;
  reader.GetU64(&msg.seq);
  reader.GetI64(&msg.tick);
  if (reader.GetU32(&n)) {
    // 20 bytes per row; bounding by what is actually present caps the
    // reserve at the payload size for hostile counts, and bailing on the
    // first short read keeps a hostile count from growing the vector
    // beyond the payload either.
    if (reader.remaining() / 20 >= n) msg.rows.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      PositionReport row;
      if (!reader.GetU32(&row.id) || !reader.GetF64(&row.x) ||
          !reader.GetF64(&row.y)) {
        break;
      }
      msg.rows.push_back(row);
    }
  }
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "ReportBatch"));
  return msg;
}

StatusOr<EndTickMsg> DecodeEndTick(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(CheckType(&reader, MsgType::kEndTick, "EndTick"));
  EndTickMsg msg;
  reader.GetU64(&msg.seq);
  reader.GetI64(&msg.tick);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "EndTick"));
  return msg;
}

StatusOr<IngestFinishMsg> DecodeIngestFinish(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(
      CheckType(&reader, MsgType::kIngestFinish, "IngestFinish"));
  IngestFinishMsg msg;
  reader.GetU64(&msg.seq);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "IngestFinish"));
  return msg;
}

StatusOr<SubscribeMsg> DecodeSubscribe(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(CheckType(&reader, MsgType::kSubscribe, "Subscribe"));
  SubscribeMsg msg;
  reader.GetU64(&msg.seq);
  reader.GetU64(&msg.stream_id);
  reader.GetU8(&msg.replay_closed);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "Subscribe"));
  return msg;
}

StatusOr<QueryMsg> DecodeQuery(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(CheckType(&reader, MsgType::kQuery, "Query"));
  QueryMsg msg;
  reader.GetU64(&msg.seq);
  reader.GetU64(&msg.stream_id);
  reader.GetU32(&msg.m);
  reader.GetI64(&msg.k);
  reader.GetF64(&msg.e);
  reader.GetU8(&msg.algo);
  reader.GetU8(&msg.explain);
  reader.GetU32(&msg.threads);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "Query"));
  return msg;
}

StatusOr<StatsRequestMsg> DecodeStatsRequest(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(
      CheckType(&reader, MsgType::kStatsRequest, "StatsRequest"));
  StatsRequestMsg msg;
  reader.GetU64(&msg.seq);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "StatsRequest"));
  return msg;
}

StatusOr<AckMsg> DecodeAck(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(CheckType(&reader, MsgType::kAck, "Ack"));
  AckMsg msg;
  reader.GetU64(&msg.seq);
  reader.GetU8(&msg.code);
  reader.GetU8(&msg.retryable);
  reader.GetU8(&msg.flags);
  reader.GetU32(&msg.accepted);
  reader.GetU32(&msg.rejected);
  reader.GetU64(&msg.resume_seq);
  GetString(&reader, &msg.message);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "Ack"));
  return msg;
}

StatusOr<EventMsg> DecodeEvent(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(CheckType(&reader, MsgType::kEvent, "Event"));
  EventMsg msg;
  reader.GetU64(&msg.stream_id);
  reader.GetU8(&msg.kind);
  reader.GetI64(&msg.tick);
  reader.GetU32(&msg.live_candidates);
  reader.GetU64(&msg.event_index);
  GetConvoy(&reader, &msg.convoy);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "Event"));
  return msg;
}

StatusOr<QueryResultMsg> DecodeQueryResult(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(
      CheckType(&reader, MsgType::kQueryResult, "QueryResult"));
  QueryResultMsg msg;
  uint32_t n = 0;
  reader.GetU64(&msg.seq);
  reader.GetU8(&msg.code);
  GetString(&reader, &msg.message);
  GetString(&reader, &msg.explain);
  if (reader.GetU32(&n)) {
    // Convoys are at least 20 bytes each on the wire.
    if (reader.remaining() / 20 >= n) msg.convoys.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Convoy c;
      if (!GetConvoy(&reader, &c)) break;
      msg.convoys.push_back(std::move(c));
    }
  }
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "QueryResult"));
  return msg;
}

StatusOr<StatsResultMsg> DecodeStatsResult(std::string_view payload) {
  ByteReader reader(payload);
  CONVOY_RETURN_IF_ERROR(
      CheckType(&reader, MsgType::kStatsResult, "StatsResult"));
  StatsResultMsg msg;
  reader.GetU64(&msg.seq);
  GetString(&reader, &msg.json);
  CONVOY_RETURN_IF_ERROR(CheckEnd(reader, "StatsResult"));
  return msg;
}

// ------------------------------------------------------------- frame I/O

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::DataError("frame payload of " +
                             std::to_string(payload.size()) +
                             " bytes exceeds the " +
                             std::to_string(kMaxFramePayload) + " limit");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xffu));
  }
  frame.append(payload.data(), payload.size());
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not a
    // process-wide SIGPIPE — the daemon writes acks and events to sockets
    // whose clients disconnect at will. Routed through the fault hook so
    // the chaos harness can shorten or kill sends (wal/fault.h).
    const ssize_t n = wal::FaultSend(fd, frame.data() + sent,
                                     frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("socket write failed: " +
                              std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

/// Reads exactly `len` bytes. `clean_eof_ok`: EOF before the first byte is
/// an orderly close (kCancelled); mid-buffer EOF is always kDataError. An
/// SO_RCVTIMEO expiry surfaces as kDeadlineExceeded — the signal behind
/// both the server's idle reaping and the client's per-operation deadline.
Status ReadExact(int fd, char* buf, size_t len, bool clean_eof_ok) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = wal::FaultRead(fd, buf + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket read timed out");
      }
      return Status::Internal("socket read failed: " +
                              std::string(std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0 && clean_eof_ok) {
        return Status::Cancelled("connection closed");
      }
      return Status::DataError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::string> ReadFrame(int fd) {
  char len_bytes[4];
  CONVOY_RETURN_IF_ERROR(
      ReadExact(fd, len_bytes, sizeof(len_bytes), /*clean_eof_ok=*/true));
  uint32_t len = 0;
  for (size_t i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(len_bytes[i]))
           << (8 * i);
  }
  if (len > kMaxFramePayload) {
    return Status::DataError("frame length " + std::to_string(len) +
                             " exceeds the " +
                             std::to_string(kMaxFramePayload) + " limit");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    CONVOY_RETURN_IF_ERROR(
        ReadExact(fd, payload.data(), len, /*clean_eof_ok=*/false));
  }
  return payload;
}

}  // namespace convoy::server
