// A live session against an in-process ConvoyServer over loopback TCP:
// one producer on a fixed tick clock (open loop), one subscriber, and one
// analyst querying the live stream in a closed loop with think time.
#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "convoy/convoy.h"
#include "harness.h"
#include "inputs.h"

namespace perfbench {

inline constexpr uint64_t kStreamId = 1;

/// Streams feed ticks [0, prefix_ticks) into a fresh server logging to
/// `wal_dir`, then shuts it down without finishing the stream: the WAL a
/// restart replays. Untimed.
convoy::Status LogPrefix(const LiveWorkload& w, const std::string& wal_dir);

/// Starts a server on `wal_dir` and connects the producer through
/// IngestBegin: a restart when the directory holds a WAL written by
/// LogPrefix (the ack's resume_seq then says how far the log reached), a
/// fresh stream otherwise. `setup_s` spans server construction to the ack.
struct LiveServer {
  std::unique_ptr<convoy::server::ConvoyServer> server;
  std::unique_ptr<convoy::server::ConvoyClient> producer;
  double setup_s = 0.0;
  uint64_t resume_seq = 0;
};
convoy::StatusOr<LiveServer> StartServer(const LiveWorkload& w,
                                         const std::string& wal_dir);

struct LiveResult {
  bool ok = true;
  std::string error;
  std::vector<double> tick_ms;    ///< scheduled send -> subscriber kTick
  std::vector<size_t> tick_ids;   ///< the tick of each tick_ms sample
  std::vector<double> late_ms;    ///< actual send start - scheduled send
  std::vector<double> query_ms;   ///< analyst round trips, from the send
  std::vector<double> query_at_s; ///< each query's send, from the origin
  uint64_t query_errors = 0;
  uint64_t ticks_seen = 0;
  uint64_t rows_accepted = 0;
  uint64_t retry_naks = 0;
  double stream_seconds = 0.0;  ///< first scheduled tick -> Finish acked
  double wall_seconds = 0.0;    ///< first scheduled tick -> analyst done
  /// Closed-convoy events, the WAL-replayed history included, deduped by
  /// event index, in emission order.
  std::vector<convoy::Convoy> closed;
  bool final_query_ok = false;
  std::vector<convoy::Convoy> final_query;
  uint64_t ring_high_water = 0;
  uint64_t events_dropped = 0;
  std::string stats_json;
};

/// Drives feed ticks [first_tick, end) through `server` with the
/// `producer` already past IngestBegin, then finishes the stream and asks
/// one post-Finish query. `spans` (optional) records one span per tick
/// and per query.
LiveResult RunLive(const LiveWorkload& w, size_t first_tick,
                   convoy::server::ConvoyServer* server,
                   convoy::server::ConvoyClient* producer, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
