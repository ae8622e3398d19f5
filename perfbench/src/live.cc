#include "live.h"

#include <atomic>
#include <set>
#include <thread>

namespace perfbench {

using convoy::Status;
using convoy::StatusOr;
using convoy::server::AckMsg;
using convoy::server::ClientOptions;
using convoy::server::ConvoyClient;
using convoy::server::ConvoyServer;
using convoy::server::EventKind;
using convoy::server::EventMsg;
using convoy::server::PositionReport;

namespace {

ClientOptions MakeClientOptions(uint64_t salt) {
  ClientOptions options;
  options.deadline_ms = 60000;  // a hung server fails the run, not the host
  options.jitter_seed = salt;
  return options;
}

StatusOr<std::unique_ptr<ConvoyClient>> Connect(const ConvoyServer& server,
                                                uint64_t salt) {
  return ConvoyClient::Connect(server.host(), server.port(),
                               MakeClientOptions(salt));
}

std::vector<PositionReport> ToWire(const std::vector<convoy::FeedRow>& rows) {
  std::vector<PositionReport> wire;
  wire.reserve(rows.size());
  for (const convoy::FeedRow& row : rows) {
    wire.push_back(PositionReport{row.id, row.pos.x, row.pos.y});
  }
  return wire;
}

/// Sends one tick's batches (pipelined), resends any the server NAKs as
/// retryable (ring full / load shed), then closes the tick. The tick
/// boundary is a barrier so a resent batch never lands after its EndTick.
Status SendTick(ConvoyClient& client, const convoy::FeedTick& ft,
                uint64_t* rows_accepted, uint64_t* retry_naks) {
  std::vector<std::pair<uint64_t, size_t>> pending;
  for (size_t b = 0; b < ft.batches.size(); ++b) {
    pending.emplace_back(client.SendBatch(ft.tick, ToWire(ft.batches[b])), b);
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    const auto [seq, b] = pending[i];
    StatusOr<AckMsg> ack = client.AwaitAck(seq);
    if (!ack.ok()) return ack.status();
    if (ack->code != 0 && ack->retryable != 0) {
      ++*retry_naks;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      pending.emplace_back(client.SendBatch(ft.tick, ToWire(ft.batches[b])), b);
      continue;
    }
    if (ack->code != 0) return Status::Internal("batch NAK: " + ack->message);
    *rows_accepted += ack->accepted;
  }
  for (;;) {
    StatusOr<AckMsg> ack = client.AwaitAck(client.SendEndTick(ft.tick));
    if (!ack.ok()) return ack.status();
    if (ack->code == 0) return Status::Ok();
    if (ack->retryable == 0) {
      return Status::Internal("EndTick NAK: " + ack->message);
    }
    ++*retry_naks;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status FinishStream(ConvoyClient& client, uint64_t* retry_naks) {
  for (;;) {
    StatusOr<AckMsg> ack = client.AwaitAck(client.SendFinish());
    if (!ack.ok()) return ack.status();
    if (ack->code == 0) return Status::Ok();
    if (ack->retryable == 0) return Status::Internal("Finish NAK: " + ack->message);
    ++*retry_naks;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The deployment settings the README's example uses: WAL on, fsync
/// `interval`.
convoy::server::ServerOptions LiveServerOptions(const std::string& wal_dir) {
  convoy::server::ServerOptions options;
  options.wal_dir = wal_dir;
  options.fsync = convoy::wal::FsyncPolicy::kInterval;
  return options;
}

}  // namespace

Status LogPrefix(const LiveWorkload& w, const std::string& wal_dir) {
  StatusOr<LiveServer> fresh = StartServer(w, wal_dir);
  if (!fresh.ok()) return fresh.status();
  uint64_t rows = 0;
  uint64_t naks = 0;
  for (size_t t = 0; t < w.prefix_ticks && t < w.feed.ticks.size(); ++t) {
    if (Status s = SendTick(*fresh->producer, w.feed.ticks[t], &rows, &naks);
        !s.ok()) {
      return s;
    }
  }
  fresh->producer.reset();
  fresh->server->Shutdown();
  return Status::Ok();
}

StatusOr<LiveServer> StartServer(const LiveWorkload& w,
                                 const std::string& wal_dir) {
  LiveServer r;
  const double start = NowS();
  r.server = std::make_unique<ConvoyServer>(LiveServerOptions(wal_dir));
  if (Status s = r.server->Start(); !s.ok()) return s;
  auto producer = Connect(*r.server, 1);
  if (!producer.ok()) return producer.status();
  r.producer = std::move(*producer);
  if (Status s = r.producer->IngestBegin(kStreamId, w.feed.query,
                                         w.carry_forward, &r.resume_seq);
      !s.ok()) {
    return s;
  }
  r.setup_s = NowS() - start;
  return r;
}

LiveResult RunLive(const LiveWorkload& w, size_t first_tick,
                   ConvoyServer* server, ConvoyClient* producer,
                   SpanLog* spans) {
  LiveResult r;
  const size_t end_tick = w.feed.ticks.size();
  auto subscriber = Connect(*server, 2);
  auto analyst = Connect(*server, 3);
  if (!subscriber.ok() || !analyst.ok()) {
    r.ok = false;
    r.error = "connect failed";
    return r;
  }
  if (Status s = (*subscriber)->Subscribe(kStreamId, /*replay_closed=*/true);
      !s.ok()) {
    r.ok = false;
    r.error = "Subscribe: " + s.ToString();
    return r;
  }

  std::vector<std::atomic<uint64_t>> sched_ns(end_tick);
  for (auto& s : sched_ns) s.store(0);
  std::atomic<bool> producer_done{false};
  std::atomic<size_t> current_tick{first_tick};
  const auto period_ns = static_cast<uint64_t>(w.tick_period_s * 1e9);
  const uint64_t origin = NowNs() + 2'000'000;
  Status producer_status;
  uint64_t producer_naks = 0;
  std::set<uint64_t> seen_events;

  {
    convoy::ServiceThread sub_thread("bench-subscriber", [&] {
      for (;;) {
        StatusOr<EventMsg> event = (*subscriber)->NextEvent();
        if (!event.ok()) return;
        const auto kind = static_cast<EventKind>(event->kind);
        if (kind == EventKind::kTick) {
          const auto t = static_cast<size_t>(event->tick);
          const uint64_t sent = t < end_tick ? sched_ns[t].load() : 0;
          if (sent != 0) {
            r.tick_ms.push_back(static_cast<double>(NowNs() - sent) / 1e6);
            r.tick_ids.push_back(t);
            ++r.ticks_seen;
          }
        } else if (kind == EventKind::kConvoyClosed) {
          if (seen_events.insert(event->event_index).second) {
            r.closed.push_back(event->convoy);
          }
        } else if (kind == EventKind::kStreamEnd) {
          return;
        }
      }
    });
    convoy::ServiceThread analyst_thread("bench-analyst", [&] {
      convoy::ConvoyQuery q = w.analyst_query;
      q.num_threads = 1;
      while (!producer_done.load()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(w.think_s));
        if (producer_done.load()) break;
        ScopedSpan span(spans, "live.query", -1,
                        static_cast<int64_t>(current_tick.load()), 3);
        const uint64_t start = NowNs();
        auto result = (*analyst)->Query(kStreamId, q, /*algo=*/0);
        const uint64_t done = NowNs();
        if (!result.ok()) {
          ++r.query_errors;
          return;
        }
        if (result->code != 0) {
          ++r.query_errors;
        } else {
          r.query_ms.push_back(static_cast<double>(done - start) / 1e6);
          r.query_at_s.push_back(static_cast<double>(start - origin) / 1e9);
        }
      }
    });
    convoy::ServiceThread producer_thread("bench-producer", [&] {
      for (size_t t = first_tick; t < end_tick; ++t) {
        const uint64_t due = origin + (t - first_tick) * period_ns;
        const uint64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        r.late_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
        sched_ns[t].store(due);
        current_tick.store(t);
        ScopedSpan span(spans, "live.tick", -1, static_cast<int64_t>(t), 1);
        producer_status = SendTick(*producer, w.feed.ticks[t],
                                   &r.rows_accepted, &producer_naks);
        if (!producer_status.ok()) break;
      }
      if (producer_status.ok()) {
        producer_status = FinishStream(*producer, &producer_naks);
      }
      r.stream_seconds = static_cast<double>(NowNs() - origin) / 1e9;
      producer_done.store(true);
    });
    producer_thread.Join();
    analyst_thread.Join();
    r.wall_seconds = static_cast<double>(NowNs() - origin) / 1e9;
    if (!producer_status.ok()) (*subscriber)->ShutdownSocket();
    sub_thread.Join();
  }
  r.retry_naks = producer_naks;
  if (!producer_status.ok()) {
    r.ok = false;
    r.error = "producer: " + producer_status.ToString();
    return r;
  }

  convoy::ConvoyQuery q = w.analyst_query;
  q.num_threads = 1;
  auto final_result = (*analyst)->Query(kStreamId, q, /*algo=*/0);
  if (final_result.ok() && final_result->code == 0) {
    r.final_query_ok = true;
    r.final_query = final_result->convoys;
  }
  if (auto stats = (*analyst)->Stats(); stats.ok()) r.stats_json = *stats;
  r.ring_high_water =
      server->trace().counter(convoy::TraceCounter::kServerRingHighWater);
  r.events_dropped =
      server->trace().counter(convoy::TraceCounter::kServerEventsDropped);
  return r;
}

}  // namespace perfbench
