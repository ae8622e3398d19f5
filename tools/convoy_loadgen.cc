// convoy_loadgen — concurrent load generator and chaos harness for
// convoy_serverd.
//
// Usage:
//   convoy_loadgen --port P [--host 127.0.0.1] [--ingest 8] [--query 4]
//                  [--ticks 40] [--objects 32] [--batch-rows 12]
//                  [--window 4] [--seed 7] [--carry-forward 2]
//                  [--deadline-ms 10000] [--json BENCH_server.json]
//                  [--verify]
//   convoy_loadgen --serverd PATH --sweep-fsync [--wal-root DIR] [...]
//   convoy_loadgen --serverd PATH --chaos [--kills 3] [--fsync none]
//                  [--wal-root DIR] [...]
//
// Load mode (--port): spawns N ingest clients (each: one connection
// driving one ingest stream fed by datagen/stream_feed.h, plus one
// subscriber connection receiving the stream's convoy events) and M query
// clients issuing ad-hoc planned queries against the live streams.
// Batches are pipelined up to --window unacked frames; a retryable
// flow-control NAK (ring full / load shed) backs off and resends, so the
// accepted row set is exactly the generated feed. --verify replays every
// feed through a local StreamingCmc and requires the subscriber's
// closed-convoy events to match bit-identically, and requires each
// stream's post-Finish kQuery (auto, answered by the server's live
// incremental CMC) to equal a local Cmc() over the feed's rows.
//
// Sweep mode (--serverd --sweep-fsync): spawns its own daemon once per
// WAL fsync policy (none, interval, every_tick), runs the load against
// each, and reports per-policy ingest throughput — the durability-cost
// curve of README "Durability & fault tolerance".
//
// Chaos mode (--serverd --chaos): spawns the daemon with the WAL and the
// seeded fault injector on, drives every stream with sequential
// (window=1) sends, and SIGKILLs + restarts the daemon at seeded points
// mid-ingest. Clients reconnect, resume from the IngestBegin ack's
// resume_seq (resent overlap is absorbed as duplicate acks), and after
// the final restart the recovered closed-convoy history — fetched with a
// replay_closed subscription and deduped by event_index — must match an
// unfaulted local replay bit-identically, and a kQuery (auto) against the
// recovered stream must equal a local Cmc() over the feed's rows. This is
// the end-to-end proof of the crash-recovery invariant: acked ingest is
// never lost, never double-applied.
//
// --json writes BENCH_server.json ("convoy-bench-server-v2"): ingest
// throughput, subscription/query latency quantiles, the verification
// verdict, the fsync sweep rows, and the chaos verdict. Exit 0 on full
// success, 1 on usage errors (a malformed numeric value included), 2 on
// connection/spawn failures, 3 on NAK/verify failures.

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "convoy/convoy.h"
#include "parse_number.h"

namespace {

using convoy::server::AckMsg;
using convoy::server::ClientOptions;
using convoy::server::ConvoyClient;
using convoy::server::EventKind;
using convoy::server::EventMsg;
using convoy::server::PositionReport;

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t ingest = 8;
  size_t query = 4;
  convoy::Tick ticks = 40;
  size_t objects = 32;
  size_t batch_rows = 12;
  size_t window = 4;
  uint64_t seed = 7;
  convoy::Tick carry_forward = 2;
  uint32_t deadline_ms = 10000;
  std::string json_out;
  bool verify = false;

  // Spawn modes: --serverd names the daemon binary; loadgen owns its
  // lifecycle (including killing it, in chaos mode).
  std::string serverd;
  std::string wal_root = ".loadgen-wal";
  std::string fsync = "none";
  bool sweep_fsync = false;
  bool chaos = false;
  size_t kills = 3;
};

bool ParseArgs(int argc, char** argv, LoadgenOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    const char* value = nullptr;
    bool parsed = true;  // false: a numeric value was malformed
    if (arg == "--host" && (value = next())) {
      opts->host = value;
    } else if (arg == "--port" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->port);
    } else if (arg == "--ingest" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->ingest);
    } else if (arg == "--query" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->query);
    } else if (arg == "--ticks" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->ticks);
    } else if (arg == "--objects" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->objects);
    } else if (arg == "--batch-rows" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->batch_rows);
    } else if (arg == "--window" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->window);
    } else if (arg == "--seed" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->seed);
    } else if (arg == "--carry-forward" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->carry_forward);
    } else if (arg == "--deadline-ms" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->deadline_ms);
    } else if (arg == "--json" && (value = next())) {
      opts->json_out = value;
    } else if (arg == "--serverd" && (value = next())) {
      opts->serverd = value;
    } else if (arg == "--wal-root" && (value = next())) {
      opts->wal_root = value;
    } else if (arg == "--fsync" && (value = next())) {
      opts->fsync = value;
    } else if (arg == "--kills" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->kills);
    } else if (arg == "--verify") {
      opts->verify = true;
    } else if (arg == "--sweep-fsync") {
      opts->sweep_fsync = true;
    } else if (arg == "--chaos") {
      opts->chaos = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
    if (!parsed) return false;
    if (value == nullptr && arg.rfind("--", 0) == 0 && arg != "--verify" &&
        arg != "--sweep-fsync" && arg != "--chaos" && arg != "--help") {
      return false;
    }
  }
  return true;
}

ClientOptions MakeClientOptions(const LoadgenOptions& opts, uint64_t salt) {
  ClientOptions options;
  options.deadline_ms = opts.deadline_ms;
  options.jitter_seed = opts.seed * 0x9e3779b97f4a7c15ULL + salt;
  return options;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<PositionReport> ToWire(const std::vector<convoy::FeedRow>& rows) {
  std::vector<PositionReport> wire;
  wire.reserve(rows.size());
  for (const convoy::FeedRow& row : rows) {
    wire.push_back(PositionReport{row.id, row.pos.x, row.pos.y});
  }
  return wire;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one ingest stream produces, written by its ingest worker and
/// subscriber thread, read by main after the joins.
struct StreamRun {
  uint64_t stream_id = 0;
  convoy::StreamFeed feed;

  // Written by the ingest thread right before SendEndTick(t); read by the
  // subscriber when the kTick event for t arrives (which the send
  // happens-before in real time; atomics keep the access race-free).
  std::vector<std::atomic<int64_t>> endtick_send_us;

  // Subscriber-thread results (read after join).
  std::vector<double> sub_latency_ms;
  std::vector<convoy::Convoy> closed_events;
  size_t events_received = 0;
  bool stream_end_seen = false;

  // Ingest-thread results.
  uint64_t rows_accepted = 0;
  uint64_t batches_sent = 0;
  uint64_t retry_naks = 0;
  bool ok = true;
  std::string error;

  explicit StreamRun(size_t ticks) : endtick_send_us(ticks) {}
};

void SubscriberLoop(const LoadgenOptions& opts, StreamRun* run,
                    ConvoyClient* client) {
  for (;;) {
    convoy::StatusOr<EventMsg> event = client->NextEvent();
    if (!event.ok()) return;  // connection closed (normal after kStreamEnd)
    ++run->events_received;
    const auto kind = static_cast<EventKind>(event->kind);
    if (kind == EventKind::kTick) {
      const auto tick = static_cast<size_t>(event->tick);
      if (tick < run->endtick_send_us.size()) {
        const int64_t sent = run->endtick_send_us[tick].load();
        if (sent > 0) {
          run->sub_latency_ms.push_back(NowMs() -
                                        static_cast<double>(sent) / 1000.0);
        }
      }
    } else if (kind == EventKind::kConvoyClosed) {
      run->closed_events.push_back(event->convoy);
    } else if (kind == EventKind::kStreamEnd) {
      run->stream_end_seen = true;
      return;
    }
  }
  (void)opts;
}

/// Sends one frame and awaits its ack, backing off and resending while the
/// server NAKs with retryable=1 (ring full). Returns the final ack.
template <typename SendFn>
convoy::StatusOr<AckMsg> SendWithFlowControl(ConvoyClient& client,
                                             SendFn send, StreamRun* run) {
  for (;;) {
    convoy::StatusOr<AckMsg> ack = client.AwaitAck(send());
    if (!ack.ok()) return ack;
    if (ack->code == 0 || ack->retryable == 0) return ack;
    ++run->retry_naks;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void IngestLoop(const LoadgenOptions& opts, StreamRun* run) {
  auto connected = ConvoyClient::Connect(opts.host, opts.port,
                                         MakeClientOptions(opts,
                                                           run->stream_id));
  if (!connected.ok()) {
    run->ok = false;
    run->error = "connect: " + connected.status().ToString();
    return;
  }
  std::unique_ptr<ConvoyClient> client = std::move(*connected);

  const convoy::Status begun =
      client->IngestBegin(run->stream_id, run->feed.query, opts.carry_forward);
  if (!begun.ok()) {
    run->ok = false;
    run->error = "IngestBegin: " + begun.ToString();
    return;
  }

  // The subscriber rides a second connection, subscribed before the first
  // batch so it observes every event of the stream.
  auto sub_connected = ConvoyClient::Connect(
      opts.host, opts.port, MakeClientOptions(opts, 1000 + run->stream_id));
  if (!sub_connected.ok()) {
    run->ok = false;
    run->error = "subscriber connect: " + sub_connected.status().ToString();
    return;
  }
  std::unique_ptr<ConvoyClient> subscriber = std::move(*sub_connected);
  if (const convoy::Status s = subscriber->Subscribe(run->stream_id);
      !s.ok()) {
    run->ok = false;
    run->error = "Subscribe: " + s.ToString();
    return;
  }
  convoy::ServiceThread sub_thread("loadgen-subscriber", [&] {
    SubscriberLoop(opts, run, subscriber.get());
  });

  for (const convoy::FeedTick& tick : run->feed.ticks) {
    // Pipeline batches up to the window, then drain; a tick boundary is a
    // barrier so a retried batch can never land after its EndTick.
    std::vector<uint64_t> outstanding;
    std::vector<size_t> outstanding_batch;
    const auto await_front = [&]() -> bool {
      convoy::StatusOr<AckMsg> ack = client->AwaitAck(outstanding.front());
      const size_t batch_idx = outstanding_batch.front();
      outstanding.erase(outstanding.begin());
      outstanding_batch.erase(outstanding_batch.begin());
      if (!ack.ok()) {
        run->ok = false;
        run->error = "AwaitAck: " + ack.status().ToString();
        return false;
      }
      if (ack->code != 0 && ack->retryable != 0) {
        // Flow control: resend the same batch (still before EndTick).
        ++run->retry_naks;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        outstanding.push_back(
            client->SendBatch(tick.tick, ToWire(tick.batches[batch_idx])));
        outstanding_batch.push_back(batch_idx);
        return true;
      }
      if (ack->code != 0) {
        run->ok = false;
        run->error = "batch NAK: " + ack->message;
        return false;
      }
      run->rows_accepted += ack->accepted;
      return true;
    };

    for (size_t b = 0; b < tick.batches.size(); ++b) {
      outstanding.push_back(
          client->SendBatch(tick.tick, ToWire(tick.batches[b])));
      outstanding_batch.push_back(b);
      ++run->batches_sent;
      if (outstanding.size() >= std::max<size_t>(1, opts.window) &&
          !await_front()) {
        break;
      }
    }
    while (run->ok && !outstanding.empty()) {
      if (!await_front()) break;
    }
    if (!run->ok) break;

    const auto t = static_cast<size_t>(tick.tick);
    if (t < run->endtick_send_us.size()) {
      run->endtick_send_us[t].store(
          static_cast<int64_t>(NowMs() * 1000.0));
    }
    const convoy::StatusOr<AckMsg> ack = SendWithFlowControl(
        *client, [&] { return client->SendEndTick(tick.tick); }, run);
    if (!ack.ok() || ack->code != 0) {
      run->ok = false;
      run->error = "EndTick: " +
                   (ack.ok() ? ack->message : ack.status().ToString());
      break;
    }
  }

  if (run->ok) {
    const convoy::StatusOr<AckMsg> ack = SendWithFlowControl(
        *client, [&] { return client->SendFinish(); }, run);
    if (!ack.ok() || ack->code != 0) {
      run->ok = false;
      run->error = "Finish: " +
                   (ack.ok() ? ack->message : ack.status().ToString());
    }
  }

  if (!run->ok) {
    // No kStreamEnd will ever come — wake the subscriber out of its read.
    subscriber->ShutdownSocket();
  }
  sub_thread.Join();
}

void QueryLoop(const LoadgenOptions& opts,
               const std::vector<std::unique_ptr<StreamRun>>& runs,
               size_t worker, std::atomic<bool>* stop,
               std::vector<double>* latencies_ms, std::atomic<bool>* ok) {
  auto connected = ConvoyClient::Connect(
      opts.host, opts.port, MakeClientOptions(opts, 2000 + worker));
  if (!connected.ok()) {
    ok->store(false);
    return;
  }
  std::unique_ptr<ConvoyClient> client = std::move(*connected);
  size_t round = 0;
  while (!stop->load()) {
    const StreamRun& target = *runs[(worker + round) % runs.size()];
    ++round;
    const double start = NowMs();
    const auto result =
        client->Query(target.stream_id, target.feed.query, /*algo=*/0);
    if (!result.ok()) {
      ok->store(false);
      return;
    }
    // kNotFound races with IngestBegin at startup — benign; any other
    // error code is a real failure.
    if (result->code != 0 &&
        result->code != static_cast<uint8_t>(convoy::StatusCode::kNotFound)) {
      ok->store(false);
      return;
    }
    if (result->code == 0) latencies_ms->push_back(NowMs() - start);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Replays a feed through a local StreamingCmc; returns the closed convoys
/// in emission order — the sequence the server's subscriber must match.
std::vector<convoy::Convoy> LocalReplay(const convoy::StreamFeed& feed,
                                        convoy::Tick carry_forward) {
  convoy::StreamingCmc::Options options;
  options.carry_forward_ticks = carry_forward;
  convoy::StreamingCmc stream(feed.query, options);
  std::vector<convoy::Convoy> closed;
  for (const convoy::FeedTick& tick : feed.ticks) {
    stream.BeginTick(tick.tick).IgnoreError();
    for (const auto& batch : tick.batches) {
      for (const convoy::FeedRow& row : batch) {
        stream.Report(row.id, row.pos).IgnoreError();
      }
    }
    auto result = stream.EndTick();
    if (result.ok()) {
      closed.insert(closed.end(), result->begin(), result->end());
    }
  }
  auto final_result = stream.Finish();
  if (final_result.ok()) {
    closed.insert(closed.end(), final_result->begin(), final_result->end());
  }
  return closed;
}

/// Cmc() over the feed's rows, last report per (object, tick) winning —
/// what the server's row table holds once the stream is finished, so the
/// answer a post-Finish kQuery (auto) must return.
std::vector<convoy::Convoy> LocalCmc(const convoy::StreamFeed& feed) {
  convoy::RowTable rows;
  for (const convoy::FeedTick& tick : feed.ticks) {
    for (const auto& batch : tick.batches) {
      for (const convoy::FeedRow& row : batch) {
        convoy::AcceptReport(&rows, row.id, row.pos, tick.tick);
      }
    }
  }
  convoy::TrajectoryDatabase db;
  for (auto& [id, samples] : rows) {
    db.Add(convoy::Trajectory(id, std::move(samples)));
  }
  return convoy::Cmc(db, feed.query);
}

/// Asks a finished stream's live answer (kQuery, auto) and compares it
/// with LocalCmc; prints the mismatch. `query_ms` (optional) receives the
/// round trip.
bool VerifyLiveQuery(ConvoyClient& client, uint64_t stream_id,
                     const convoy::StreamFeed& feed, const char* label,
                     std::vector<double>* query_ms = nullptr) {
  const double start = NowMs();
  const auto result = client.Query(stream_id, feed.query, /*algo=*/0);
  if (!result.ok() || result->code != 0) {
    std::cerr << label << " query failed for stream " << stream_id << ": "
              << (result.ok() ? result->message : result.status().ToString())
              << "\n";
    return false;
  }
  if (query_ms != nullptr) query_ms->push_back(NowMs() - start);
  const std::vector<convoy::Convoy> expected = LocalCmc(feed);
  if (result->convoys != expected) {
    std::cerr << label << " query MISMATCH for stream " << stream_id
              << ": the live answer has " << result->convoys.size()
              << " convoy(s), a local Cmc() over the feed "
              << expected.size() << "\n";
    return false;
  }
  return true;
}

convoy::StreamFeedConfig MakeFeedConfig(const LoadgenOptions& opts) {
  convoy::StreamFeedConfig config;
  config.num_objects = opts.objects;
  config.ticks = opts.ticks;
  config.batch_rows = opts.batch_rows;
  config.dropout = 0.05;
  config.leave_prob = 0.02;
  config.rejoin_prob = 0.3;
  return config;
}

// -------------------------------------------------------------- load mode

/// Everything one load run produces — the primary BENCH payload, and one
/// sweep row per fsync policy in sweep mode.
struct LoadResult {
  uint64_t rows_accepted = 0;
  uint64_t batches = 0;
  uint64_t retry_naks = 0;
  size_t events = 0;
  double seconds = 0.0;
  double rows_per_sec = 0.0;
  std::vector<double> sub_latency_ms;
  std::vector<double> query_ms;
  bool ingest_ok = true;
  bool queries_ok = true;
  size_t verified_ok = 0;       ///< streams passing every --verify check
  size_t live_queries_ok = 0;   ///< post-Finish kQuery == local Cmc()
  size_t streams = 0;
};

LoadResult RunLoad(const LoadgenOptions& base_opts, uint16_t port) {
  LoadgenOptions opts = base_opts;
  opts.port = port;

  std::vector<std::unique_ptr<StreamRun>> runs;
  runs.reserve(opts.ingest);
  const convoy::StreamFeedConfig config = MakeFeedConfig(opts);
  for (size_t i = 0; i < opts.ingest; ++i) {
    auto run = std::make_unique<StreamRun>(
        static_cast<size_t>(std::max<convoy::Tick>(opts.ticks, 0)));
    run->stream_id = i + 1;
    run->feed = convoy::GenerateStreamFeed(config, opts.seed + i);
    runs.push_back(std::move(run));
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> queries_ok{true};
  std::vector<std::vector<double>> query_latencies(opts.query);

  LoadResult result;
  result.streams = runs.size();
  const double ingest_start = NowMs();
  {
    std::vector<convoy::ServiceThread> workers;
    workers.reserve(opts.ingest + opts.query);
    for (size_t i = 0; i < opts.ingest; ++i) {
      StreamRun* run = runs[i].get();
      workers.emplace_back("loadgen-ingest",
                           [&opts, run] { IngestLoop(opts, run); });
    }
    for (size_t j = 0; j < opts.query; ++j) {
      std::vector<double>* lat = &query_latencies[j];
      workers.emplace_back("loadgen-query", [&, j, lat] {
        QueryLoop(opts, runs, j, &stop, lat, &queries_ok);
      });
    }
    // Ingest workers are the first opts.ingest entries; join them, then
    // stop the query workers (joined by the vector's destructor).
    for (size_t i = 0; i < opts.ingest; ++i) workers[i].Join();
    stop.store(true);
  }
  result.seconds = (NowMs() - ingest_start) / 1000.0;

  for (const auto& run : runs) {
    result.rows_accepted += run->rows_accepted;
    result.batches += run->batches_sent;
    result.retry_naks += run->retry_naks;
    result.events += run->events_received;
    result.sub_latency_ms.insert(result.sub_latency_ms.end(),
                                 run->sub_latency_ms.begin(),
                                 run->sub_latency_ms.end());
    if (!run->ok || !run->stream_end_seen) {
      result.ingest_ok = false;
      std::cerr << "stream " << run->stream_id << " failed: "
                << (run->error.empty() ? "no kStreamEnd event" : run->error)
                << "\n";
    }
  }
  for (const auto& lat : query_latencies) {
    result.query_ms.insert(result.query_ms.end(), lat.begin(), lat.end());
  }
  result.queries_ok = queries_ok.load();

  if (opts.verify) {
    auto connected = ConvoyClient::Connect(
        opts.host, opts.port, MakeClientOptions(opts, 4000));
    for (const auto& run : runs) {
      const std::vector<convoy::Convoy> expected =
          LocalReplay(run->feed, opts.carry_forward);
      const bool events_ok = expected == run->closed_events;
      if (!events_ok) {
        std::cerr << "verify FAILED for stream " << run->stream_id
                  << ": expected " << expected.size()
                  << " closed convoy event(s), got "
                  << run->closed_events.size() << "\n";
      }
      const bool live_ok =
          connected.ok() && run->ok &&
          VerifyLiveQuery(**connected, run->stream_id, run->feed, "verify");
      result.live_queries_ok += live_ok ? 1 : 0;
      result.verified_ok += events_ok && live_ok ? 1 : 0;
    }
    if (!connected.ok()) {
      std::cerr << "verify connect failed: " << connected.status() << "\n";
    }
  }
  result.rows_per_sec =
      result.seconds > 0
          ? static_cast<double>(result.rows_accepted) / result.seconds
          : 0.0;
  return result;
}

// --------------------------------------------------------- daemon control

bool EnsureDir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

/// Deletes the WAL segments of `dir` so a spawned daemon starts fresh —
/// stale segments would replay last run's streams into this run's ids.
void RemoveWalFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (const struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("wal-", 0) == 0) {
      ::unlink((dir + "/" + name).c_str());
    }
  }
  ::closedir(d);
}

struct DaemonProcess {
  pid_t pid = -1;
  std::FILE* out = nullptr;  ///< read side of the daemon's stdout pipe
  uint16_t port = 0;
  bool ok = false;
  std::string error;
};

/// fork/execs convoy_serverd on an ephemeral port with the given WAL dir,
/// then scrapes its "listening on HOST:PORT" line for the bound port.
/// `with_faults` turns on the daemon's seeded fault injector (short
/// writes + EINTR — the recoverable kinds) for chaos runs.
DaemonProcess SpawnDaemon(const LoadgenOptions& opts,
                          const std::string& wal_dir, bool with_faults) {
  DaemonProcess daemon;
  int fds[2];
  if (::pipe(fds) != 0) {
    daemon.error = "pipe failed";
    return daemon;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    daemon.error = "fork failed";
    return daemon;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<std::string> args = {
        opts.serverd, "--host",    opts.host, "--port", "0",
        "--wal-dir",  wal_dir,     "--fsync", opts.fsync};
    if (with_faults) {
      const std::vector<std::string> faults = {
          "--fault-seed",             std::to_string(opts.seed),
          "--fault-short-write-prob", "0.05",
          "--fault-eintr-prob",       "0.05"};
      args.insert(args.end(), faults.begin(), faults.end());
    }
    std::vector<char*> argv_c;
    argv_c.reserve(args.size() + 1);
    for (std::string& a : args) argv_c.push_back(a.data());
    argv_c.push_back(nullptr);
    ::execv(opts.serverd.c_str(), argv_c.data());
    _exit(127);
  }
  ::close(fds[1]);
  daemon.pid = pid;
  daemon.out = ::fdopen(fds[0], "r");
  char line[512];
  while (daemon.out != nullptr &&
         std::fgets(line, sizeof line, daemon.out) != nullptr) {
    const std::string text = line;
    if (text.find("listening on ") == std::string::npos) continue;
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos) break;
    std::string_view digits = std::string_view(text).substr(colon + 1);
    while (!digits.empty() &&
           (digits.back() == '\n' || digits.back() == '\r')) {
      digits.remove_suffix(1);
    }
    if (ParseNumber("the daemon's listening port", digits, &daemon.port) &&
        daemon.port != 0) {
      daemon.ok = true;
    }
    break;
  }
  if (!daemon.ok) daemon.error = "daemon did not report a listening port";
  return daemon;
}

void StopDaemon(DaemonProcess* daemon, int sig) {
  if (daemon->pid > 0) {
    ::kill(daemon->pid, sig);
    int status = 0;
    ::waitpid(daemon->pid, &status, 0);
    daemon->pid = -1;
  }
  if (daemon->out != nullptr) {
    std::fclose(daemon->out);
    daemon->out = nullptr;
  }
  daemon->ok = false;
}

// --------------------------------------------------------------- chaos

struct ChaosStreamRun {
  uint64_t stream_id = 0;
  convoy::StreamFeed feed;
  uint64_t rows_accepted = 0;
  uint64_t resumes = 0;  ///< reconnect + IngestBegin cycles after the first
  uint64_t duplicate_acks = 0;
  uint64_t retry_naks = 0;
  bool ok = true;
  std::string error;
  /// Closed-convoy events recovered after ingest, keyed by event_index.
  std::map<uint64_t, convoy::Convoy> closed_by_index;
};

/// The chaos controller publishes the live daemon's port here (0 while a
/// restart is in flight); ingest threads re-read it on every reconnect.
struct ChaosShared {
  std::atomic<uint32_t> port{0};
};

/// Drives one stream with sequential (window=1) sends, surviving any
/// number of daemon kills: on a connection/deadline error it reconnects,
/// and the IngestBegin ack's resume_seq decides whether the one in-flight
/// item was applied before the crash (applied => WAL-logged => recovered)
/// or must be resent. Every op is therefore applied exactly once — the
/// client-side half of the crash-recovery invariant.
void ChaosIngest(const LoadgenOptions& opts, ChaosShared* shared,
                 ChaosStreamRun* run) {
  struct Op {
    int kind;  // 0 = batch, 1 = end-tick, 2 = finish
    convoy::Tick tick;
    const std::vector<convoy::FeedRow>* batch;
  };
  std::vector<Op> ops;
  for (const convoy::FeedTick& tick : run->feed.ticks) {
    for (const auto& batch : tick.batches) {
      ops.push_back(Op{0, tick.tick, &batch});
    }
    ops.push_back(Op{1, tick.tick, nullptr});
  }
  ops.push_back(Op{2, 0, nullptr});

  std::unique_ptr<ConvoyClient> client;
  size_t pos = 0;
  uint64_t inflight_seq = 0;
  bool first_connect = true;

  const auto reconnect = [&]() -> bool {
    client.reset();
    for (int attempt = 0; attempt < 400; ++attempt) {
      const auto port = static_cast<uint16_t>(shared->port.load());
      if (port != 0) {
        auto connected = ConvoyClient::Connect(
            opts.host, port, MakeClientOptions(opts, run->stream_id));
        if (connected.ok()) {
          std::unique_ptr<ConvoyClient> candidate = std::move(*connected);
          uint64_t resume_seq = 0;
          const convoy::Status begun =
              candidate->IngestBegin(run->stream_id, run->feed.query,
                                     opts.carry_forward, &resume_seq);
          if (begun.ok()) {
            // With window=1 at most the in-flight op is unacked; the
            // server's recovered resume_seq says whether it landed.
            if (inflight_seq != 0 && resume_seq >= inflight_seq) ++pos;
            inflight_seq = 0;
            client = std::move(candidate);
            if (!first_connect) ++run->resumes;
            first_connect = false;
            return true;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    run->ok = false;
    run->error = "chaos: could not reconnect to the restarted daemon";
    return false;
  };

  if (!reconnect()) return;
  int nak_attempt = 0;
  while (pos < ops.size()) {
    const Op& op = ops[pos];
    uint64_t seq = 0;
    switch (op.kind) {
      case 0:
        seq = client->SendBatch(op.tick, ToWire(*op.batch));
        break;
      case 1:
        seq = client->SendEndTick(op.tick);
        break;
      default:
        seq = client->SendFinish();
        break;
    }
    inflight_seq = seq;
    const convoy::StatusOr<AckMsg> ack = client->AwaitAck(seq);
    if (!ack.ok()) {
      // Connection reset / deadline — almost certainly the controller
      // killed the daemon mid-op. Reconnect and let resume_seq decide.
      if (!reconnect()) return;
      continue;
    }
    if (ack->code != 0) {
      if (ack->retryable != 0) {
        ++run->retry_naks;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 << std::min(nak_attempt++, 5)));
        continue;  // resend the same op under a fresh seq
      }
      run->ok = false;
      run->error = "chaos NAK: " + ack->message;
      return;
    }
    nak_attempt = 0;
    if ((ack->flags & convoy::server::kAckFlagDuplicate) != 0) {
      ++run->duplicate_acks;
    }
    run->rows_accepted += ack->accepted;
    inflight_seq = 0;
    ++pos;
    if (op.kind == 1) {
      // Pace the stream one tick per millisecond so the controller's
      // seeded kill points land mid-ingest (chaos is a recovery test,
      // not a throughput benchmark — rows/s comes from the load modes).
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

struct ChaosResult {
  size_t kills = 0;
  uint64_t resumes = 0;
  uint64_t duplicate_acks = 0;
  uint64_t retry_naks = 0;
  uint64_t rows_accepted = 0;
  size_t events = 0;
  double seconds = 0.0;
  double rows_per_sec = 0.0;
  std::vector<double> query_ms;
  size_t verified_ok = 0;
  size_t live_queries_ok = 0;  ///< post-recovery kQuery == local Cmc()
  size_t streams = 0;
  bool spawn_ok = true;
  bool streams_ok = true;
};

ChaosResult RunChaos(const LoadgenOptions& opts) {
  ChaosResult result;
  const std::string wal_dir = opts.wal_root + "/chaos";
  if (!EnsureDir(opts.wal_root) || !EnsureDir(wal_dir)) {
    std::cerr << "cannot create " << wal_dir << "\n";
    result.spawn_ok = false;
    return result;
  }
  RemoveWalFiles(wal_dir);

  ChaosShared shared;
  DaemonProcess daemon = SpawnDaemon(opts, wal_dir, /*with_faults=*/true);
  if (!daemon.ok) {
    std::cerr << "spawn failed: " << daemon.error << "\n";
    result.spawn_ok = false;
    return result;
  }
  shared.port.store(daemon.port);

  std::vector<std::unique_ptr<ChaosStreamRun>> runs;
  runs.reserve(opts.ingest);
  const convoy::StreamFeedConfig config = MakeFeedConfig(opts);
  for (size_t i = 0; i < opts.ingest; ++i) {
    auto run = std::make_unique<ChaosStreamRun>();
    run->stream_id = i + 1;
    run->feed = convoy::GenerateStreamFeed(config, opts.seed + i);
    runs.push_back(std::move(run));
  }
  result.streams = runs.size();

  std::atomic<size_t> remaining{opts.ingest};
  const double start = NowMs();
  {
    std::vector<convoy::ServiceThread> workers;
    workers.reserve(opts.ingest);
    for (auto& run_ptr : runs) {
      ChaosStreamRun* run = run_ptr.get();
      workers.emplace_back("chaos-ingest", [&opts, &shared, &remaining, run] {
        ChaosIngest(opts, &shared, run);
        remaining.fetch_sub(1);
      });
    }

    // The kill schedule: seeded sleeps, then SIGKILL — no warning, no
    // flush — and a restart on the same WAL dir. Recovery runs inside
    // the daemon's Start() before it prints its port.
    uint64_t rng = opts.seed ^ 0x9e3779b97f4a7c15ULL;
    while (remaining.load() > 0 && result.kills < opts.kills) {
      const uint64_t draw = SplitMix64(&rng);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int64_t>(15 + draw % 60)));
      if (remaining.load() == 0) break;
      shared.port.store(0);
      StopDaemon(&daemon, SIGKILL);
      ++result.kills;
      daemon = SpawnDaemon(opts, wal_dir, /*with_faults=*/true);
      if (!daemon.ok) {
        std::cerr << "restart failed: " << daemon.error << "\n";
        result.spawn_ok = false;
        break;  // ingest threads will exhaust their reconnect budget
      }
      shared.port.store(daemon.port);
    }
    for (convoy::ServiceThread& worker : workers) worker.Join();
  }
  result.seconds = (NowMs() - start) / 1000.0;

  // Recovery verification: the surviving daemon's closed-convoy history —
  // WAL-rebuilt across every kill — must match an unfaulted local replay,
  // and the recovered stream must still answer ad-hoc queries.
  for (auto& run_ptr : runs) {
    ChaosStreamRun* run = run_ptr.get();
    result.resumes += run->resumes;
    result.duplicate_acks += run->duplicate_acks;
    result.retry_naks += run->retry_naks;
    result.rows_accepted += run->rows_accepted;
    if (!run->ok) {
      std::cerr << "chaos stream " << run->stream_id
                << " failed: " << run->error << "\n";
      result.streams_ok = false;
      continue;
    }
    if (!daemon.ok) {
      result.streams_ok = false;
      continue;
    }
    const std::vector<convoy::Convoy> expected =
        LocalReplay(run->feed, opts.carry_forward);

    auto connected = ConvoyClient::Connect(
        opts.host, daemon.port,
        MakeClientOptions(opts, 3000 + run->stream_id));
    if (!connected.ok()) {
      std::cerr << "chaos verify connect failed for stream "
                << run->stream_id << "\n";
      result.streams_ok = false;
      continue;
    }
    std::unique_ptr<ConvoyClient> client = std::move(*connected);
    if (const convoy::Status s =
            client->Subscribe(run->stream_id, /*replay_closed=*/true);
        !s.ok()) {
      std::cerr << "chaos verify subscribe failed for stream "
                << run->stream_id << ": " << s << "\n";
      result.streams_ok = false;
      continue;
    }
    while (run->closed_by_index.size() < expected.size()) {
      convoy::StatusOr<EventMsg> event = client->NextEvent();
      if (!event.ok()) break;  // deadline — the count check below fails
      ++result.events;
      if (static_cast<EventKind>(event->kind) == EventKind::kConvoyClosed &&
          event->event_index != 0) {
        run->closed_by_index.emplace(event->event_index, event->convoy);
      }
    }
    bool match = run->closed_by_index.size() == expected.size();
    for (size_t i = 0; match && i < expected.size(); ++i) {
      const auto it = run->closed_by_index.find(i + 1);
      match = it != run->closed_by_index.end() && it->second == expected[i];
    }
    if (match) {
      ++result.verified_ok;
    } else {
      std::cerr << "chaos verify FAILED for stream " << run->stream_id
                << ": expected " << expected.size()
                << " recovered closed convoy event(s), got "
                << run->closed_by_index.size() << "\n";
      result.streams_ok = false;
    }

    if (VerifyLiveQuery(*client, run->stream_id, run->feed,
                        "chaos post-recovery", &result.query_ms)) {
      ++result.live_queries_ok;
    } else {
      result.streams_ok = false;
    }
  }
  StopDaemon(&daemon, SIGTERM);

  result.rows_per_sec =
      result.seconds > 0
          ? static_cast<double>(result.rows_accepted) / result.seconds
          : 0.0;
  return result;
}

// ----------------------------------------------------------------- output

struct SweepRow {
  std::string policy;
  uint64_t rows_accepted = 0;
  double seconds = 0.0;
  double rows_per_sec = 0.0;
  bool ok = false;
};

void WriteQuantiles(std::ostream& out, std::vector<double> values) {
  out << "{\"count\":" << values.size();
  if (!values.empty()) {
    out << ",\"p50\":" << convoy::Quantile(values, 0.50)
        << ",\"p99\":" << convoy::Quantile(std::move(values), 0.99);
  }
  out << "}";
}

/// The "convoy-bench-server-v2" document: v1's sections plus the fsync
/// sweep rows and the chaos verdict (validated by run_checks.sh).
void WriteJsonV2(std::ostream& out, const LoadgenOptions& opts,
                 const LoadResult& load, const std::vector<SweepRow>& sweep,
                 const ChaosResult* chaos) {
  out << "{\"schema\":\"convoy-bench-server-v2\","
      << "\"config\":{\"ingest_clients\":" << opts.ingest
      << ",\"query_clients\":" << opts.query << ",\"ticks\":" << opts.ticks
      << ",\"objects\":" << opts.objects << ",\"batch_rows\":"
      << opts.batch_rows << ",\"window\":" << opts.window
      << ",\"seed\":" << opts.seed << ",\"deadline_ms\":" << opts.deadline_ms
      << ",\"fsync\":\"" << opts.fsync << "\"},"
      << "\"ingest\":{\"rows_accepted\":" << load.rows_accepted
      << ",\"batches\":" << load.batches
      << ",\"retryable_naks\":" << load.retry_naks
      << ",\"seconds\":" << load.seconds
      << ",\"rows_per_sec\":" << load.rows_per_sec << "},"
      << "\"subscription\":{\"events\":" << load.events
      << ",\"latency_ms\":";
  WriteQuantiles(out, load.sub_latency_ms);
  out << "},\"query\":{\"latency_ms\":";
  WriteQuantiles(out, load.query_ms);
  out << "},\"verify\":{\"enabled\":" << (opts.verify ? "true" : "false")
      << ",\"streams_ok\":" << load.verified_ok
      << ",\"live_queries_ok\":" << load.live_queries_ok
      << ",\"streams_total\":" << load.streams << "},"
      << "\"fsync_sweep\":[";
  for (size_t i = 0; i < sweep.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"policy\":\"" << sweep[i].policy
        << "\",\"rows_accepted\":" << sweep[i].rows_accepted
        << ",\"seconds\":" << sweep[i].seconds
        << ",\"rows_per_sec\":" << sweep[i].rows_per_sec
        << ",\"ok\":" << (sweep[i].ok ? "true" : "false") << "}";
  }
  out << "],\"chaos\":{\"enabled\":" << (chaos != nullptr ? "true" : "false");
  if (chaos != nullptr) {
    out << ",\"kills\":" << chaos->kills << ",\"resumes\":" << chaos->resumes
        << ",\"duplicate_acks\":" << chaos->duplicate_acks
        << ",\"retryable_naks\":" << chaos->retry_naks
        << ",\"streams_ok\":" << chaos->verified_ok
        << ",\"live_queries_ok\":" << chaos->live_queries_ok
        << ",\"streams_total\":" << chaos->streams;
  }
  out << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::cout
        << "convoy_loadgen — load generator + chaos harness for "
           "convoy_serverd\n"
           "  convoy_loadgen --port P [--host H] [--ingest N] [--query M]\n"
           "                 [--ticks T] [--objects O] [--batch-rows B]\n"
           "                 [--window W] [--seed S] [--carry-forward C]\n"
           "                 [--deadline-ms MS] [--json out.json] "
           "[--verify]\n"
           "  convoy_loadgen --serverd PATH --sweep-fsync [--wal-root DIR]\n"
           "  convoy_loadgen --serverd PATH --chaos [--kills K] "
           "[--fsync POLICY]\n";
    return argc > 1 ? 1 : 0;
  }
  if (opts.ingest == 0) {
    std::cerr << "--ingest must be >= 1\n";
    return 1;
  }
  if ((opts.chaos || opts.sweep_fsync) && opts.serverd.empty()) {
    std::cerr << "--chaos / --sweep-fsync need --serverd PATH\n";
    return 1;
  }
  if (!opts.chaos && !opts.sweep_fsync && opts.port == 0) {
    std::cerr << "--port is required (or use --serverd with a mode)\n";
    return 1;
  }

  LoadResult load;
  std::vector<SweepRow> sweep;
  ChaosResult chaos;
  bool ran_chaos = false;

  if (opts.chaos) {
    ran_chaos = true;
    chaos = RunChaos(opts);
    std::cout << "chaos: " << chaos.kills << " kill/restart cycle(s), "
              << chaos.resumes << " client resume(s), "
              << chaos.duplicate_acks << " duplicate ack(s), "
              << chaos.rows_accepted << " rows in " << chaos.seconds
              << " s\nchaos verify: " << chaos.verified_ok << "/"
              << chaos.streams
              << " streams bit-identical to unfaulted replay, "
              << chaos.live_queries_ok << "/" << chaos.streams
              << " live answers equal to local Cmc()\n";
    // The chaos run doubles as the primary ingest payload of the JSON.
    load.rows_accepted = chaos.rows_accepted;
    load.retry_naks = chaos.retry_naks;
    load.events = chaos.events;
    load.seconds = chaos.seconds;
    load.rows_per_sec = chaos.rows_per_sec;
    load.query_ms = chaos.query_ms;
    load.verified_ok = chaos.verified_ok;
    load.live_queries_ok = chaos.live_queries_ok;
    load.streams = chaos.streams;
    load.ingest_ok = chaos.streams_ok;
  } else if (opts.sweep_fsync) {
    if (!EnsureDir(opts.wal_root)) {
      std::cerr << "cannot create " << opts.wal_root << "\n";
      return 2;
    }
    for (const char* policy : {"none", "interval", "every_tick"}) {
      LoadgenOptions run_opts = opts;
      run_opts.fsync = policy;
      const std::string wal_dir =
          opts.wal_root + "/sweep-" + std::string(policy);
      if (!EnsureDir(wal_dir)) {
        std::cerr << "cannot create " << wal_dir << "\n";
        return 2;
      }
      RemoveWalFiles(wal_dir);
      DaemonProcess daemon =
          SpawnDaemon(run_opts, wal_dir, /*with_faults=*/false);
      if (!daemon.ok) {
        std::cerr << "spawn failed (" << policy << "): " << daemon.error
                  << "\n";
        return 2;
      }
      const LoadResult run = RunLoad(run_opts, daemon.port);
      StopDaemon(&daemon, SIGTERM);
      SweepRow row;
      row.policy = policy;
      row.rows_accepted = run.rows_accepted;
      row.seconds = run.seconds;
      row.rows_per_sec = run.rows_per_sec;
      row.ok = run.ingest_ok && run.queries_ok &&
               (!opts.verify || run.verified_ok == run.streams);
      sweep.push_back(row);
      std::cout << "fsync=" << policy << ": " << run.rows_accepted
                << " rows in " << run.seconds << " s (" << run.rows_per_sec
                << " rows/s)\n";
      if (std::string(policy) == "none") load = run;
    }
  } else {
    load = RunLoad(opts, opts.port);
    std::cout << "ingest: " << load.rows_accepted << " rows in "
              << load.seconds << " s (" << load.rows_per_sec << " rows/s), "
              << load.batches << " batches, " << load.retry_naks
              << " flow-control retries\n"
              << "subscription: " << load.events << " events, "
              << load.sub_latency_ms.size() << " tick latency samples\n"
              << "queries: " << load.query_ms.size() << " completed\n";
    if (opts.verify) {
      std::cout << "verify: " << load.verified_ok << "/" << load.streams
                << " streams verified; " << load.live_queries_ok << "/"
                << load.streams << " live answers equal to local Cmc()\n";
    }
  }

  if (!opts.json_out.empty()) {
    std::ofstream out(opts.json_out);
    if (!out) {
      std::cerr << "cannot write " << opts.json_out << "\n";
      return 2;
    }
    WriteJsonV2(out, opts, load, sweep, ran_chaos ? &chaos : nullptr);
    std::cout << "wrote " << opts.json_out << "\n";
  }

  if (ran_chaos) {
    if (!chaos.spawn_ok) return 2;
    if (!chaos.streams_ok || chaos.verified_ok != chaos.streams) return 3;
    return 0;
  }
  if (opts.sweep_fsync) {
    for (const SweepRow& row : sweep) {
      if (!row.ok) return 3;
    }
    return 0;
  }
  if (!load.ingest_ok || !load.queries_ok) return 3;
  if (opts.verify && load.verified_ok != load.streams) return 3;
  return 0;
}
