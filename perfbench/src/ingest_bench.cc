// ingest_live: a producer streaming a feed into a restarted, WAL-backed
// ConvoyServer on a fixed tick clock, a subscriber, and a live analyst.
// Also the ingest-layer pass every traced run makes over its feed.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "live.h"
#include "workloads.h"

namespace perfbench {

using convoy::Convoy;
using convoy::ConvoyQuery;
using convoy::TraceCounter;
using convoy::TraceSession;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupReps = 5;
constexpr size_t kSnapshotPoints = 8;

class NullSink final : public convoy::server::StreamSink {
 public:
  void SendAck(uint64_t, const convoy::server::AckMsg&) override {}
  void SendEvent(const convoy::server::EventMsg&) override {}
};

std::vector<convoy::server::PositionReport> ToWire(
    const std::vector<convoy::FeedRow>& rows) {
  std::vector<convoy::server::PositionReport> wire;
  wire.reserve(rows.size());
  for (const convoy::FeedRow& row : rows) {
    wire.push_back(convoy::server::PositionReport{row.id, row.pos.x, row.pos.y});
  }
  return wire;
}

/// The closed-convoy sequence a subscriber must see: the feed replayed
/// through a local StreamingCmc, as convoy_loadgen --verify does.
std::vector<Convoy> LocalReplay(const convoy::StreamFeed& feed,
                                convoy::Tick carry_forward) {
  convoy::StreamingCmc::Options options;
  options.carry_forward_ticks = carry_forward;
  convoy::StreamingCmc stream(feed.query, options);
  std::vector<Convoy> closed;
  for (const convoy::FeedTick& tick : feed.ticks) {
    stream.BeginTick(tick.tick).IgnoreError();
    for (const auto& batch : tick.batches) {
      for (const convoy::FeedRow& row : batch) {
        stream.Report(row.id, row.pos).IgnoreError();
      }
    }
    auto result = stream.EndTick();
    if (result.ok()) closed.insert(closed.end(), result->begin(), result->end());
  }
  auto final_result = stream.Finish();
  if (final_result.ok()) {
    closed.insert(closed.end(), final_result->begin(), final_result->end());
  }
  return closed;
}

}  // namespace

// ---------------------------------------------------- traced ingest pass

IngestSelfTimes RunIngestLayers(const convoy::StreamFeed& feed,
                                convoy::Tick carry_forward,
                                const std::string& scratch_dir,
                                SpanLog* spans, LayerMetrics* layers,
                                Counts* counts) {
  IngestSelfTimes self;
  const double ticks = std::max<double>(1.0, static_cast<double>(feed.ticks.size()));
  const size_t rows = FeedRows(feed, 0, feed.ticks.size());

  // Protocol decode, as the server's reader thread runs it per batch.
  std::vector<double> decode_us;
  {
    ScopedSpan span(spans, "server.decode");
    uint64_t seq = 1;
    for (const convoy::FeedTick& ft : feed.ticks) {
      for (const auto& batch : ft.batches) {
        convoy::server::ReportBatchMsg msg;
        msg.seq = seq++;
        msg.tick = ft.tick;
        msg.rows = ToWire(batch);
        const std::string payload = convoy::server::Encode(msg);
        const uint64_t t0 = NowNs();
        auto decoded = convoy::server::DecodeReportBatch(payload);
        decode_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        if (!decoded.ok() || decoded->rows.size() != batch.size()) {
          (*counts)["server.decode_failures"] += 1;
        }
      }
    }
  }
  layers->Set("server.decode_us_per_batch", Median(decode_us));
  double decode_total_us = 0.0;
  for (double us : decode_us) decode_total_us += us;
  self.decode_ms_per_tick = decode_total_us / 1e3 / ticks;

  // WAL append with the live fsync policy, into a scratch directory.
  fs::remove_all(scratch_dir);
  std::vector<double> append_us;
  double append_total_us = 0.0;
  {
    ScopedSpan span(spans, "wal.append");
    TraceSession wal_trace;
    convoy::wal::WalOptions options;
    options.dir = scratch_dir;
    options.fsync = convoy::wal::FsyncPolicy::kInterval;
    auto writer = convoy::wal::WalWriter::Open(options, &wal_trace);
    if (writer.ok()) {
      uint64_t seq = 1;
      convoy::wal::WalRecord begin;
      begin.kind = convoy::wal::WalRecordKind::kBegin;
      begin.stream_id = kStreamId;
      begin.m = static_cast<uint32_t>(feed.query.m);
      begin.k = feed.query.k;
      begin.e = feed.query.e;
      begin.carry_forward_ticks = carry_forward;
      (void)(*writer)->Append(begin);
      for (const convoy::FeedTick& ft : feed.ticks) {
        for (const auto& batch : ft.batches) {
          convoy::wal::WalRecord record;
          record.kind = convoy::wal::WalRecordKind::kBatch;
          record.stream_id = kStreamId;
          record.seq = seq++;
          record.tick = ft.tick;
          for (const convoy::FeedRow& row : batch) {
            record.rows.push_back(convoy::wal::WalRow{
                static_cast<uint32_t>(row.id), row.pos.x, row.pos.y});
          }
          const uint64_t t0 = NowNs();
          (void)(*writer)->Append(record);
          const double us = static_cast<double>(NowNs() - t0) / 1e3;
          append_us.push_back(us);
          append_total_us += us;
        }
        convoy::wal::WalRecord end;
        end.kind = convoy::wal::WalRecordKind::kEndTick;
        end.stream_id = kStreamId;
        end.seq = seq++;
        end.tick = ft.tick;
        const uint64_t t0 = NowNs();
        (void)(*writer)->Append(end);
        append_total_us += static_cast<double>(NowNs() - t0) / 1e3;
      }
      writer->reset();
    }
    layers->Set("wal.bytes_per_row",
                static_cast<double>(
                    wal_trace.counter(TraceCounter::kWalBytesAppended)) /
                    std::max<double>(1.0, static_cast<double>(rows)));
    layers->Set("wal.fsyncs",
                static_cast<double>(wal_trace.counter(TraceCounter::kWalFsyncs)));
    AddCounts(wal_trace, "wal.", counts);
  }
  layers->Set("wal.append_us_per_batch", Median(append_us));
  self.wal_ms_per_tick = append_total_us / 1e3 / ticks;

  // WAL replay: what a restart reads before it serves.
  {
    ScopedSpan span(spans, "wal.replay");
    uint64_t replayed_rows = 0;
    convoy::wal::WalReadStats stats;
    const double t0 = NowS();
    (void)convoy::wal::ReadWalDir(
        scratch_dir,
        [&replayed_rows](const convoy::wal::WalRecord& r) {
          replayed_rows += r.rows.size();
          return convoy::Status::Ok();
        },
        &stats);
    const double s = NowS() - t0;
    layers->Set("wal.replay_rows_per_s",
                static_cast<double>(replayed_rows) / std::max(1e-9, s));
    (*counts)["wal.replayed_rows"] = replayed_rows;
  }
  fs::remove_all(scratch_dir);

  // StreamingCmc per-tick clustering and tracking.
  {
    ScopedSpan span(spans, "streaming");
    TraceSession stream_trace;
    convoy::StreamingCmc::Options options;
    options.carry_forward_ticks = carry_forward;
    convoy::StreamingCmc stream(feed.query, options);
    stream.set_trace(&stream_trace);
    std::vector<double> endtick_ms;
    double report_ns = 0.0;
    uint64_t closed = 0;
    for (const convoy::FeedTick& ft : feed.ticks) {
      stream.BeginTick(ft.tick).IgnoreError();
      const uint64_t t0 = NowNs();
      for (const auto& batch : ft.batches) {
        for (const convoy::FeedRow& row : batch) {
          stream.Report(row.id, row.pos).IgnoreError();
        }
      }
      const uint64_t t1 = NowNs();
      auto result = stream.EndTick();
      const uint64_t t2 = NowNs();
      if (result.ok()) closed += result->size();
      report_ns += static_cast<double>(t1 - t0);
      endtick_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    }
    auto final_result = stream.Finish();
    if (final_result.ok()) closed += final_result->size();
    layers->Set("streaming.endtick_ms_p50", Quantile(endtick_ms, 0.5));
    layers->Set("streaming.endtick_ms_p90", Quantile(endtick_ms, 0.9));
    layers->Set("streaming.report_ns_per_row",
                report_ns / std::max<double>(1.0, static_cast<double>(rows)));
    self.endtick_ms = Median(endtick_ms);
    self.report_ms_per_tick = report_ns / 1e6 / ticks;
    AddCounts(stream_trace, "streaming.", counts);
    (*counts)["streaming.closed"] = closed;
  }

  // IngestStream::SnapshotEngine — the row-table copy and engine build a
  // live query pays — at evenly spaced points of the feed.
  {
    ScopedSpan span(spans, "server.snapshot");
    NullSink sink;
    TraceSession stream_trace;
    convoy::server::IngestBeginMsg begin;
    begin.stream_id = kStreamId;
    begin.m = static_cast<uint32_t>(feed.query.m);
    begin.k = feed.query.k;
    begin.e = feed.query.e;
    begin.carry_forward_ticks = carry_forward;
    convoy::server::IngestStream stream(begin, 64, &sink, &stream_trace);
    std::vector<double> snapshot_ms;
    uint64_t seq = 1;
    const auto submit = [&stream](convoy::server::WorkItem item) {
      while (stream.Submit(item) == convoy::server::PushResult::kFull) {
        std::this_thread::yield();
      }
    };
    const size_t n = feed.ticks.size();
    for (size_t t = 0; t < n; ++t) {
      const convoy::FeedTick& ft = feed.ticks[t];
      for (const auto& batch : ft.batches) {
        convoy::server::WorkItem item;
        item.kind = convoy::server::WorkItem::Kind::kBatch;
        item.seq = seq++;
        item.tick = ft.tick;
        item.rows = ToWire(batch);
        submit(std::move(item));
      }
      convoy::server::WorkItem end;
      end.kind = convoy::server::WorkItem::Kind::kEndTick;
      end.seq = seq++;
      end.tick = ft.tick;
      submit(std::move(end));
      const bool query_point = (t + 1) * kSnapshotPoints / n !=
                               t * kSnapshotPoints / n;
      if (query_point) {
        while (stream.LastAppliedSeq() < seq - 1) std::this_thread::yield();
        ScopedSpan snap(spans, "server.snapshot_engine", span.id(),
                        static_cast<int64_t>(ft.tick));
        const double t0 = NowS();
        auto engine = stream.SnapshotEngine();
        snapshot_ms.push_back((NowS() - t0) * 1e3);
      }
    }
    stream.Close();
    layers->Set("server.snapshot_ms", Median(snapshot_ms));
  }
  return self;
}

// ----------------------------------------------------------- the workload

namespace {

struct LiveRun {
  LiveResult live;
  std::vector<double> setup_s;
  bool ok = true;
  std::string error;
};

/// `reps` restarts on copies of the prefix WAL (each timed), the last of
/// which streams the rest of the feed.
LiveRun RestartAndStream(const LiveWorkload& w, const std::string& prefix_dir,
                         const std::string& run_dir, int reps,
                         SpanLog* spans) {
  LiveRun run;
  for (int rep = 0; rep < reps; ++rep) {
    fs::remove_all(run_dir);
    fs::copy(prefix_dir, run_dir, fs::copy_options::recursive);
    auto restarted = StartServer(w, run_dir);
    if (!restarted.ok() || restarted->resume_seq == 0) {
      run.ok = false;
      run.error = "restart: " + (restarted.ok() ? "nothing recovered"
                                                : restarted.status().ToString());
      return run;
    }
    run.setup_s.push_back(restarted->setup_s);
    if (rep + 1 < reps) {
      restarted->producer.reset();
      restarted->server->Shutdown();
      continue;
    }
    run.live = RunLive(w, w.prefix_ticks, restarted->server.get(),
                       restarted->producer.get(), spans);
    restarted->producer.reset();
    restarted->server->Shutdown();
    if (!run.live.ok) {
      run.ok = false;
      run.error = run.live.error;
    }
  }
  return run;
}

}  // namespace

RunResult RunIngestWorkload(const RunArgs& args) {
  RunResult result;
  const LiveWorkload w = MakeIngestLive(args.seed, args.scale, args.seconds);
  const std::string root =
      args.out_dir + "/ingest_live-" + std::to_string(args.seed);
  const std::string prefix_dir = root + "/prefix-wal";
  const std::string run_dir = root + "/wal";
  fs::remove_all(root);
  fs::create_directories(root);
  if (convoy::Status s = LogPrefix(w, prefix_dir); !s.ok()) {
    result.harness_ok = false;
    result.notes.push_back("writing the WAL prefix: " + s.ToString());
    fs::remove_all(root);
    return result;
  }

  SpanLog spans;
  LayerMetrics layers;
  Counts counts;
  LiveRun baseline;
  Usage u0, u1;
  if (args.trace) {
    // Untraced session first: the baseline for trace.overhead_frac and
    // the process-level counters.
    u0 = Usage::Now();
    baseline = RestartAndStream(w, prefix_dir, run_dir, 1, nullptr);
    u1 = Usage::Now();
    if (!baseline.ok) {
      result.harness_ok = false;
      result.notes.push_back("untraced baseline: " + baseline.error);
    }
  }
  LiveRun run = RestartAndStream(w, prefix_dir, run_dir,
                                 args.trace ? 1 : kSetupReps,
                                 args.trace ? &spans : nullptr);
  const Usage usage = Usage::Now();
  if (!run.ok) {
    result.harness_ok = false;
    result.notes.push_back(run.error);
  }
  const LiveResult& lr = run.live;

  // ---- correctness gate, outside every timed section.
  std::vector<Convoy> expected_closed = LocalReplay(w.feed, w.carry_forward);
  std::vector<Convoy> got_closed = lr.closed;
  if (args.plant_wrong && !got_closed.empty()) {
    got_closed.front().end_tick -= 1;  // the gate must catch this
  }
  uint64_t closed_wrong = 0;
  for (size_t i = 0; i < std::max(got_closed.size(), expected_closed.size());
       ++i) {
    if (i >= got_closed.size() || i >= expected_closed.size() ||
        !(got_closed[i] == expected_closed[i])) {
      ++closed_wrong;
    }
  }
  if (closed_wrong) {
    result.notes.push_back("closed-convoy events differ from a local "
                           "StreamingCmc replay: " +
                           std::to_string(closed_wrong) + " of " +
                           std::to_string(expected_closed.size()));
  }
  const ConvoyQuery final_q = [&] {
    ConvoyQuery q = w.analyst_query;
    q.num_threads = 1;
    return q;
  }();
  const convoy::TrajectoryDatabase all_rows =
      DbFromFeed(w.feed, w.feed.ticks.size());
  const std::vector<Convoy> reference =
      Canonical(convoy::Cmc(all_rows, final_q));
  const std::vector<Convoy> final_answer = Canonical(lr.final_query);
  const bool final_wrong = lr.final_query_ok && final_answer != reference;
  if (final_wrong) {
    result.notes.push_back("post-Finish query: " +
                           DescribeDiff(final_answer, reference));
  }
  const uint64_t live_ticks = w.feed.ticks.size() - w.prefix_ticks;
  result.attempted = live_ticks + lr.query_ms.size() + lr.query_errors + 1;
  result.errors = (live_ticks - std::min(live_ticks, lr.ticks_seen)) +
                  lr.query_errors + (lr.final_query_ok ? 0 : 1);
  result.wrong_answers = closed_wrong + (final_wrong ? 1 : 0);

  if (!args.trace) {
    const std::string series_path = args.out_dir + "/latency-ingest_live-" +
                                    std::to_string(args.seed) + ".txt";
    std::ofstream series(series_path);
    for (size_t i = 0; i < lr.tick_ms.size(); ++i) {
      series << "tick " << lr.tick_ids[i] << " " << lr.tick_ms[i] << "\n";
    }
    for (size_t i = 0; i < lr.query_ms.size(); ++i) {
      series << "query " << lr.query_at_s[i] << " " << lr.query_ms[i] << "\n";
    }
    result.InfoStr("latency_series", series_path);
    result.Add("query_p50_ms", Quantile(lr.query_ms, 0.5), "ms");
    result.Add("query_p90_ms", Quantile(lr.query_ms, 0.9), "ms");
    result.Add("queries_per_s",
               static_cast<double>(lr.query_ms.size()) /
                   std::max(1e-9, lr.wall_seconds),
               "1/s");
    result.Add("tick_p50_ms", Quantile(lr.tick_ms, 0.5), "ms");
    // The tick tail follows the host's scheduling noise (spread 0.43 over
    // five seeds), beyond any regression bound: reported, not gated.
    result.InfoNum("tick_p90_ms", Quantile(lr.tick_ms, 0.9));
    result.Add("rows_per_s",
               static_cast<double>(lr.rows_accepted) /
                   std::max(1e-9, lr.stream_seconds),
               "1/s");
    result.Add("setup_s", Median(run.setup_s), "s");
    result.Add("rss_peak_mb", static_cast<double>(usage.maxrss_kb) / 1024.0,
               "MB");
    result.InfoNum("query_samples", static_cast<double>(lr.query_ms.size()));
    result.InfoNum("tick_samples", static_cast<double>(lr.tick_ms.size()));
    result.InfoNum("setup_samples", static_cast<double>(run.setup_s.size()));
    result.InfoNum("late_p90_ms", Quantile(lr.late_ms, 0.9));
    result.InfoNum("retry_naks", static_cast<double>(lr.retry_naks));
    result.InfoNum("prefix_rows",
                   static_cast<double>(FeedRows(w.feed, 0, w.prefix_ticks)));
    result.InfoNum("live_rows", static_cast<double>(lr.rows_accepted));
    fs::remove_all(root);
    return result;
  }

  // ---- traced run: per-layer metrics.
  // The query layers, on the rows the analyst's last query saw.
  const std::string csv = root + "/rows.csv";
  convoy::SaveTrajectoriesCsv(all_rows, csv);
  QueryLayerInput in;
  in.csv_path = csv;
  in.queries = {final_q};
  RunResult query_side;
  RunQueryLayers(in, &spans, &layers, &query_side, &counts, false);
  result.harness_ok = result.harness_ok && query_side.harness_ok;
  result.notes.insert(result.notes.end(), query_side.notes.begin(),
                      query_side.notes.end());
  result.info.insert(result.info.end(), query_side.info.begin(),
                     query_side.info.end());
  // The live session's own overhead and process counters replace the
  // query pass's.
  layers.Set("trace.overhead_frac",
             Median(lr.tick_ms) /
                     std::max(1e-9, Median(baseline.live.tick_ms)) -
                 1.0);
  layers.Set("proc.minflt_per_op",
             static_cast<double>(u1.minflt - u0.minflt) /
                 std::max<double>(1.0, static_cast<double>(live_ticks)));
  layers.Set("proc.sys_cpu_frac",
             (u1.sys_s - u0.sys_s) /
                 std::max(1e-9, (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s)));
  const IngestSelfTimes self = RunIngestLayers(
      w.feed, w.carry_forward, root + "/replay-wal", &spans, &layers, &counts);
  const double per_tick = self.decode_ms_per_tick + self.wal_ms_per_tick +
                          self.endtick_ms + self.report_ms_per_tick;
  layers.Set("server.wait_ms_p50", Median(lr.tick_ms) - per_tick);
  layers.Set("server.ring_high_water", static_cast<double>(lr.ring_high_water));
  layers.Set("server.retry_naks", static_cast<double>(lr.retry_naks));
  layers.Set("server.events_dropped", static_cast<double>(lr.events_dropped));
  layers.Set("loadgen.late_p90_ms", Quantile(lr.late_ms, 0.9));

  const std::string trace_path = args.out_dir + "/trace-ingest_live-" +
                                 std::to_string(args.seed) + ".json";
  FinishTracedRun(trace_path, spans, counts, &layers, &result);
  std::ofstream stats_out(trace_path + ".server_stats.json");
  stats_out << lr.stats_json << "\n";
  fs::remove_all(root);
  return result;
}

}  // namespace perfbench
