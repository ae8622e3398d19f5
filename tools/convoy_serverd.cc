// convoy_serverd — the convoy streaming server daemon.
//
// Usage:
//   convoy_serverd [--host 127.0.0.1] [--port 0] [--ring-capacity 64]
//                  [--stats-json out.json] [--max-seconds S]
//                  [--wal-dir DIR] [--fsync none|interval|every_tick]
//                  [--fsync-interval-ms 50] [--wal-segment-bytes N]
//                  [--idle-timeout-ms 0] [--load-shed-high-water 0]
//                  [--subscriber-queue 1024]
//                  [--fault-seed S] [--fault-short-write-prob P]
//                  [--fault-eintr-prob P] [--fault-fsync-fail-prob P]
//                  [--fault-fsync-delay-us N]
//
// Binds a TCP listener (port 0 = ephemeral; the bound port is printed as
// "listening on HOST:PORT" so scripts can scrape it), then serves the
// length-prefixed binary protocol of src/server/protocol.h: streaming
// ingest sessions, live convoy subscriptions, ad-hoc planned queries, and
// metrics dumps. See README "Server".
//
// Durability: --wal-dir turns on the write-ahead log — accepted ingest is
// logged before it is acked, and a restarted daemon pointed at the same
// directory replays the log, resuming every stream bit-identical to an
// uninterrupted run (the chaos harness in convoy_loadgen kill -9s the
// daemon mid-ingest to verify exactly this).
//
// The --fault-* flags install a seeded fault injector over all socket and
// WAL I/O (short writes, spurious EINTR, failing/slow fsync) — the chaos
// harness's server-side knob. Off (zero) by default.
//
// Runs until SIGINT/SIGTERM (clean shutdown: every stream worker drains
// and joins) or until --max-seconds elapses (for smoke tests). On exit,
// --stats-json writes the server's metrics JSON — the same payload the
// in-band kStatsRequest returns.
//
// Exit codes: 0 clean shutdown, 1 usage error (a malformed numeric value
// included), 2 cannot bind/write.

#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "convoy/convoy.h"
#include "parse_number.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct DaemonOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t ring_capacity = 64;
  std::string stats_json;
  double max_seconds = -1.0;  // < 0: run until signalled

  std::string wal_dir;
  convoy::wal::FsyncPolicy fsync = convoy::wal::FsyncPolicy::kNone;
  uint32_t fsync_interval_ms = 50;
  size_t wal_segment_bytes = 64u * 1024u * 1024u;
  uint32_t idle_timeout_ms = 0;
  size_t load_shed_high_water = 0;
  size_t subscriber_queue = 1024;

  convoy::wal::FaultInjector::Options fault;
  bool fault_enabled = false;
};

bool ParseArgs(int argc, char** argv, DaemonOptions* opts) {
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
    } else if (arg == "--ring-capacity" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->ring_capacity);
    } else if (arg == "--stats-json" && (value = next())) {
      opts->stats_json = value;
    } else if (arg == "--max-seconds" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->max_seconds);
    } else if (arg == "--wal-dir" && (value = next())) {
      opts->wal_dir = value;
    } else if (arg == "--fsync" && (value = next())) {
      const convoy::StatusOr<convoy::wal::FsyncPolicy> policy =
          convoy::wal::ParseFsyncPolicy(value);
      if (!policy.ok()) {
        std::cerr << policy.status() << "\n";
        return false;
      }
      opts->fsync = *policy;
    } else if (arg == "--fsync-interval-ms" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->fsync_interval_ms);
    } else if (arg == "--wal-segment-bytes" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->wal_segment_bytes);
    } else if (arg == "--idle-timeout-ms" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->idle_timeout_ms);
    } else if (arg == "--load-shed-high-water" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->load_shed_high_water);
    } else if (arg == "--subscriber-queue" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->subscriber_queue);
    } else if (arg == "--fault-seed" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->fault.seed);
      opts->fault_enabled = true;
    } else if (arg == "--fault-short-write-prob" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->fault.short_write_prob);
      opts->fault_enabled = true;
    } else if (arg == "--fault-eintr-prob" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->fault.eintr_prob);
      opts->fault_enabled = true;
    } else if (arg == "--fault-fsync-fail-prob" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->fault.fsync_fail_prob);
      opts->fault_enabled = true;
    } else if (arg == "--fault-fsync-delay-us" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->fault.fsync_delay_us);
      opts->fault_enabled = true;
    } else if (arg == "--fault-fail-writes-after" && (value = next())) {
      parsed = ParseNumber(arg, value, &opts->fault.fail_writes_after);
      opts->fault_enabled = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
    if (!parsed) return false;
    if (value == nullptr && arg.rfind("--", 0) == 0 && arg != "--help") {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::cout
        << "convoy_serverd — convoy streaming server\n"
           "  convoy_serverd [--host H] [--port P] [--ring-capacity N]\n"
           "                 [--stats-json out.json] [--max-seconds S]\n"
           "                 [--wal-dir DIR] [--fsync none|interval|"
           "every_tick]\n"
           "                 [--fsync-interval-ms MS] "
           "[--wal-segment-bytes N]\n"
           "                 [--idle-timeout-ms MS] "
           "[--load-shed-high-water N]\n"
           "                 [--subscriber-queue N]\n"
           "                 [--fault-seed S] [--fault-short-write-prob P]\n"
           "                 [--fault-eintr-prob P] "
           "[--fault-fsync-fail-prob P]\n"
           "                 [--fault-fsync-delay-us N] "
           "[--fault-fail-writes-after N]\n";
    return argc > 1 ? 1 : 0;
  }

  // The injector outlives the server: hooks may fire until the last
  // worker joins inside Shutdown(). Installed before Start() so WAL
  // recovery I/O is faultable too.
  convoy::wal::FaultInjector injector(opts.fault);
  if (opts.fault_enabled) convoy::wal::SetFaultInjector(&injector);

  convoy::server::ServerOptions server_options;
  server_options.host = opts.host;
  server_options.port = opts.port;
  server_options.ring_capacity =
      opts.ring_capacity == 0 ? 1 : opts.ring_capacity;
  server_options.wal_dir = opts.wal_dir;
  server_options.fsync = opts.fsync;
  server_options.fsync_interval_ms = opts.fsync_interval_ms;
  server_options.wal_segment_bytes = opts.wal_segment_bytes;
  server_options.idle_timeout_ms = opts.idle_timeout_ms;
  server_options.load_shed_high_water = opts.load_shed_high_water;
  server_options.subscriber_queue_capacity =
      opts.subscriber_queue == 0 ? 1 : opts.subscriber_queue;

  convoy::server::ConvoyServer server(server_options);
  if (const convoy::Status started = server.Start(); !started.ok()) {
    std::cerr << "cannot start: " << started << "\n";
    convoy::wal::SetFaultInjector(nullptr);
    return 2;
  }
  // Scraped by run_checks.sh and the e2e harness — keep the format stable.
  std::cout << "listening on " << server.host() << ":" << server.port()
            << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  convoy::Stopwatch uptime;
  while (g_stop == 0) {
    if (opts.max_seconds >= 0 && uptime.ElapsedSeconds() >= opts.max_seconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "shutting down\n";
  server.Shutdown();
  convoy::wal::SetFaultInjector(nullptr);

  if (!opts.stats_json.empty()) {
    std::ofstream out(opts.stats_json);
    if (!out) {
      std::cerr << "cannot write " << opts.stats_json << "\n";
      return 2;
    }
    out << server.StatsJson() << "\n";
    std::cout << "wrote " << opts.stats_json << "\n";
  }
  return 0;
}
