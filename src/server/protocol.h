#ifndef CONVOY_SERVER_PROTOCOL_H_
#define CONVOY_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/convoy_set.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace convoy::server {

/// Wire protocol of the convoy server — a length-prefixed binary framing
/// over TCP, dependency-free by construction (hand-rolled little-endian
/// encode/decode, no protobuf/grpc in the image).
///
/// Frame layout (see README "Server" for the full state machine):
///
///   +----------------+---------------------------+
///   | u32 LE length  | payload (`length` bytes)  |
///   +----------------+---------------------------+
///   payload byte 0 = MsgType, rest = message fields in LE order
///
/// The first frame on every connection must be kHello carrying the magic
/// and a protocol version byte; the server answers kHelloAck with the
/// version it speaks and rejects mismatches, so the wire format can evolve
/// without silent misparses. All multi-byte integers are little-endian
/// fixed width; doubles travel as their IEEE-754 bit pattern in a u64;
/// strings and row arrays are length-prefixed (u32).
///
/// Every client request carries a client-chosen u64 sequence number; the
/// server echoes it in the matching kAck / kQueryResult / kStatsResult so
/// clients may pipeline requests. Malformed or out-of-order input is
/// answered with a NAK (kAck with a non-OK StatusCode) that leaves the
/// session recoverable — the documented StreamingCmc error contract,
/// carried over the wire.
inline constexpr uint32_t kProtocolMagic = 0x43565953;  // "CVYS"
/// v2: AckMsg grew flags (duplicate bit) + resume_seq, SubscribeMsg grew
/// replay_closed, EventMsg grew event_index, EventKind grew kGap — the
/// durable-ingest/crash-recovery additions. v1 clients are rejected at the
/// handshake rather than misparsed.
inline constexpr uint8_t kProtocolVersion = 2;

/// Hostile-input guard: frames above this are rejected before allocation.
inline constexpr size_t kMaxFramePayload = 4u * 1024u * 1024u;

enum class MsgType : uint8_t {
  // client -> server
  kHello = 1,         ///< magic + version handshake (first frame)
  kIngestBegin = 2,   ///< open an ingest stream (query params + options)
  kReportBatch = 3,   ///< one batch of position reports for a tick
  kEndTick = 4,       ///< close the current tick (snapshot is clustered)
  kIngestFinish = 5,  ///< end the stream (remaining convoys close)
  kSubscribe = 6,     ///< receive convoy events of a stream
  kQuery = 7,         ///< ad-hoc planned query over accepted rows
  kStatsRequest = 8,  ///< server metrics dump (QueryMetrics JSON)
  // server -> client
  kHelloAck = 16,     ///< handshake answer (version + accepted flag)
  kAck = 17,          ///< per-request ack / NAK (echoes the seq)
  kEvent = 18,        ///< convoy event pushed to subscribers
  kQueryResult = 19,  ///< convoys + EXPLAIN text for a kQuery
  kStatsResult = 20,  ///< metrics JSON for a kStatsRequest
};

/// Kinds of subscription events, emitted per processed tick by the
/// stream's CMC worker in deterministic order: tick summary first, then
/// new / extended / closed convoy events in canonical convoy order.
enum class EventKind : uint8_t {
  kTick = 1,            ///< tick processed (live candidate count attached)
  kConvoyNew = 2,       ///< an open convoy reached lifetime >= k this tick
  kConvoyExtended = 3,  ///< an already-open convoy survived another tick
  kConvoyClosed = 4,    ///< a convoy closed (group dispersed / stream end)
  kStreamEnd = 5,       ///< the stream finished (kIngestFinish processed)
  kGap = 6,             ///< events were dropped for THIS subscriber (slow
                        ///< consumer); live_candidates carries the count
};

/// One position report inside a kReportBatch.
struct PositionReport {
  ObjectId id = 0;
  double x = 0.0;
  double y = 0.0;
};

// ---------------------------------------------------------------- messages

struct HelloMsg {
  uint32_t magic = kProtocolMagic;
  uint8_t version = kProtocolVersion;
};

struct HelloAckMsg {
  uint8_t version = kProtocolVersion;
  uint8_t accepted = 1;
  std::string message;  ///< reject reason when accepted == 0
};

struct IngestBeginMsg {
  uint64_t seq = 0;
  uint64_t stream_id = 0;  ///< client-chosen, unique per server lifetime
  uint32_t m = 2;
  int64_t k = 2;
  double e = 1.0;
  int64_t carry_forward_ticks = 0;  ///< StreamingCmc::Options knob
};

struct ReportBatchMsg {
  uint64_t seq = 0;
  Tick tick = 0;
  std::vector<PositionReport> rows;
};

struct EndTickMsg {
  uint64_t seq = 0;
  Tick tick = 0;
};

struct IngestFinishMsg {
  uint64_t seq = 0;
};

struct SubscribeMsg {
  uint64_t seq = 0;
  uint64_t stream_id = 0;
  /// 1 = first send every closed-convoy event recorded so far (recovery
  /// replay included), then go live. A subscriber that dedups on
  /// event_index then holds the complete closed sequence even when it
  /// attached after a crash/restart.
  uint8_t replay_closed = 0;
};

struct QueryMsg {
  uint64_t seq = 0;
  uint64_t stream_id = 0;
  uint32_t m = 2;
  int64_t k = 2;
  double e = 1.0;
  uint8_t algo = 0;     ///< AlgorithmChoice as u8 (0 = auto)
  uint8_t explain = 0;  ///< 1 = include the EXPLAIN text
  uint32_t threads = 1;  ///< engine path only; the live path is serial
};

struct StatsRequestMsg {
  uint64_t seq = 0;
};

/// AckMsg.flags bit 0: the item's seq was already applied (a resent
/// duplicate after reconnect) — acked OK without re-applying.
inline constexpr uint8_t kAckFlagDuplicate = 0x1;

struct AckMsg {
  uint64_t seq = 0;
  uint8_t code = 0;       ///< StatusCode as u8; 0 = OK, else a NAK
  uint8_t retryable = 0;  ///< 1 = flow control / load shed — resend later
  uint8_t flags = 0;      ///< kAckFlag* bits
  uint32_t accepted = 0;  ///< rows accepted (batch) / convoys closed (tick)
  uint32_t rejected = 0;  ///< rows rejected inside an accepted batch
  /// On an IngestBegin ack: the stream's last applied item seq (0 for a
  /// fresh stream). A resuming producer continues from resume_seq + 1.
  uint64_t resume_seq = 0;
  std::string message;    ///< Status message on a NAK
};

struct EventMsg {
  uint64_t stream_id = 0;
  uint8_t kind = 0;  ///< EventKind
  Tick tick = 0;
  uint32_t live_candidates = 0;  ///< dropped-event count for kGap
  /// Position of this event in the stream's closed-convoy sequence
  /// (1-based, assigned at emission, stable across crash recovery); 0 for
  /// non-closed kinds. Lets subscribers dedup a replay_closed catch-up
  /// against live events.
  uint64_t event_index = 0;
  Convoy convoy;  ///< meaningful for the kConvoy* kinds only
};

struct QueryResultMsg {
  uint64_t seq = 0;
  uint8_t code = 0;  ///< StatusCode as u8; 0 = OK
  std::string message;
  /// When requested: QueryPlan::Explain() on the engine path,
  /// IncrementalReport::Explain() on the live path (kAuto, kCmc).
  std::string explain;
  std::vector<Convoy> convoys;
};

struct StatsResultMsg {
  uint64_t seq = 0;
  std::string json;  ///< {"schema":...,"metrics":<QueryMetrics JSON>}
};

// ------------------------------------------------------- encode / decode

std::string Encode(const HelloMsg& msg);
std::string Encode(const HelloAckMsg& msg);
std::string Encode(const IngestBeginMsg& msg);
std::string Encode(const ReportBatchMsg& msg);
std::string Encode(const EndTickMsg& msg);
std::string Encode(const IngestFinishMsg& msg);
std::string Encode(const SubscribeMsg& msg);
std::string Encode(const QueryMsg& msg);
std::string Encode(const StatsRequestMsg& msg);
std::string Encode(const AckMsg& msg);
std::string Encode(const EventMsg& msg);
std::string Encode(const QueryResultMsg& msg);
std::string Encode(const StatsResultMsg& msg);

/// The payload's message type, or kDataError for an empty / unknown-type
/// payload. Decoders re-verify the type byte themselves.
StatusOr<MsgType> PeekType(std::string_view payload);

/// Each decoder validates the type byte, bounds-checks every field read,
/// and rejects trailing garbage — a malformed payload yields kDataError,
/// never UB (fuzz-tested in server_protocol_test.cc).
StatusOr<HelloMsg> DecodeHello(std::string_view payload);
StatusOr<HelloAckMsg> DecodeHelloAck(std::string_view payload);
StatusOr<IngestBeginMsg> DecodeIngestBegin(std::string_view payload);
StatusOr<ReportBatchMsg> DecodeReportBatch(std::string_view payload);
StatusOr<EndTickMsg> DecodeEndTick(std::string_view payload);
StatusOr<IngestFinishMsg> DecodeIngestFinish(std::string_view payload);
StatusOr<SubscribeMsg> DecodeSubscribe(std::string_view payload);
StatusOr<QueryMsg> DecodeQuery(std::string_view payload);
StatusOr<StatsRequestMsg> DecodeStatsRequest(std::string_view payload);
StatusOr<AckMsg> DecodeAck(std::string_view payload);
StatusOr<EventMsg> DecodeEvent(std::string_view payload);
StatusOr<QueryResultMsg> DecodeQueryResult(std::string_view payload);
StatusOr<StatsResultMsg> DecodeStatsResult(std::string_view payload);

// ------------------------------------------------------------- frame I/O

/// Writes one length-prefixed frame to `fd` (a socket), looping over
/// partial sends. kDataError when the payload exceeds kMaxFramePayload;
/// kInternal on a socket error (the connection is dead). Sends with
/// MSG_NOSIGNAL: a vanished peer is an EPIPE status, never a SIGPIPE.
/// Socket I/O is routed through the wal/fault.h hooks, so the fault
/// harness can shorten sends, raise EINTR, or cut the connection at a
/// chosen frame boundary.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame from `fd`. kCancelled("connection closed") on a clean
/// EOF at a frame boundary — the reader loop's normal exit; kDataError on
/// a truncated frame or an over-limit length prefix; kDeadlineExceeded
/// when an SO_RCVTIMEO receive timeout expires (the idle-reap / client
/// deadline signal); kInternal on other socket errors.
StatusOr<std::string> ReadFrame(int fd);

}  // namespace convoy::server

#endif  // CONVOY_SERVER_PROTOCOL_H_
