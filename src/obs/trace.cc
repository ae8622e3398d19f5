#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <ostream>

#include "util/stats.h"

namespace convoy {

namespace {

// Session ids start at 1 so a default-initialized thread cache (id 0)
// never matches a live session.
std::atomic<uint64_t> next_session_id{1};

thread_local const char* trace_thread_label = "main";

struct CounterInfo {
  const char* name;
  bool is_max;
};

constexpr CounterInfo kCounterInfo[kNumTraceCounters] = {
    {"snapshots_clustered", false},
    {"dbscan.points_scanned", false},
    {"dbscan.neighbor_queries", false},
    {"dbscan.neighbors_visited", false},
    {"dbscan.clusters_formed", false},
    {"tracker.steps", false},
    {"tracker.candidates_offered", false},
    {"tracker.dedup_probes", false},
    {"tracker.dedup_hits", false},
    {"tracker.completed", false},
    {"tracker.live_max", true},
    {"store.grid_cache_hits", false},
    {"store.grid_cache_misses", false},
    {"engine.simplify_cache_hits", false},
    {"engine.simplify_cache_misses", false},
    {"engine.delta_cache_hits", false},
    {"engine.delta_cache_misses", false},
    {"store.ticks_built", false},
    {"store.points_built", false},
    {"filter.partitions", false},
    {"refine.units", false},
    {"server.batches_accepted", false},
    {"server.batches_rejected", false},
    {"server.ring_high_water", true},
    {"server.events_emitted", false},
    {"server.active_sessions_max", true},
    {"filter.polylines", false},
    {"filter.segment_tests", false},
    {"filter.mbr_rejects", false},
    {"wal.records_appended", false},
    {"wal.bytes_appended", false},
    {"wal.fsyncs", false},
    {"wal.segments_rotated", false},
    {"wal.recovered_records", false},
    {"wal.truncated_tails", false},
    {"server.idle_reaped", false},
    {"server.events_dropped", false},
    {"server.load_shed", false},
    {"server.live_queries", false},
    {"server.live_ticks_clustered", false},
    {"engine.cluster_memo_hits", false},
    {"engine.cluster_memo_misses", false},
};

static_assert(kNumTraceCounters == kQueryMetricsCounters,
              "obs/metrics.h kQueryMetricsCounters must mirror TraceCounter");

}  // namespace

const char* ToString(TraceCounter c) {
  return kCounterInfo[static_cast<size_t>(c)].name;
}

bool IsMaxCounter(TraceCounter c) {
  return kCounterInfo[static_cast<size_t>(c)].is_max;
}

void SetTraceThreadLabel(const char* label) { trace_thread_label = label; }

const char* GetTraceThreadLabel() { return trace_thread_label; }

TraceSession::TraceSession()
    // Relaxed: the counter only needs uniqueness (atomic RMW guarantees
    // distinct values); it orders nothing and nobody reads it back.
    : session_id_(next_session_id.fetch_add(1, std::memory_order_relaxed)),
      origin_(std::chrono::steady_clock::now()) {}

TraceSession::~TraceSession() = default;

uint64_t TraceSession::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

TraceSession::ThreadBuf* TraceSession::LocalBuf() {
  // One cached (session, buffer) pair per thread: the common case — one
  // session alive at a time — registers once and then records lock-free.
  // A thread alternating between sessions re-registers a fresh buffer;
  // totals still merge correctly, the thread merely spans two tracks.
  thread_local uint64_t cached_session = 0;
  thread_local ThreadBuf* cached_buf = nullptr;
  if (cached_session != session_id_) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    cached_buf = bufs_.back().get();
    cached_buf->track = static_cast<uint32_t>(bufs_.size() - 1);
    cached_buf->label = trace_thread_label;
    cached_session = session_id_;
  }
  return cached_buf;
}

void TraceSession::Count(TraceCounter c, uint64_t delta) {
  // Relaxed: this cell's only writer is the calling thread, and readers
  // merging mid-run accept a monotone approximation (see ThreadBuf).
  LocalBuf()->counts[static_cast<size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

void TraceSession::CountMax(TraceCounter c, uint64_t value) {
  std::atomic<uint64_t>& slot = LocalBuf()->maxes[static_cast<size_t>(c)];
  // Single-writer max: a plain load-compare-store would suffice for the
  // owning thread, but the CAS keeps the cell's value transitions atomic
  // for concurrent readers (relaxed for the same reasons as Count).
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

std::vector<double>* TraceSession::SeriesSlot(ThreadBuf* buf,
                                              const char* name) {
  // Precondition: the caller holds buf->buf_mu (sole caller is Observe).
  // Series are few (a handful of names, observed from one or two sites),
  // so a strcmp scan beats a map — and pointer identity alone would tie
  // correctness to string literal merging across translation units.
  for (auto& [existing, values] : buf->series) {
    if (existing == name || std::strcmp(existing, name) == 0) return &values;
  }
  // convoy-lint: allow-line(guarded-member) — lock held by caller, above.
  buf->series.emplace_back(name, std::vector<double>{});
  return &buf->series.back().second;
}

void TraceSession::Observe(const char* series, double value) {
  ThreadBuf* buf = LocalBuf();
  // The buffer's own mutex, not the session's: uncontended unless a
  // reader is merging this very buffer, and never shared between
  // recording threads.
  std::lock_guard<std::mutex> lock(buf->buf_mu);
  SeriesSlot(buf, series)->push_back(value);
}

void TraceSession::RecordSpan(const char* name, uint64_t start_ns,
                              uint64_t end_ns) {
  ThreadBuf* buf = LocalBuf();
  std::lock_guard<std::mutex> lock(buf->buf_mu);
  buf->events.push_back(TraceEvent{
      name, start_ns, end_ns >= start_ns ? end_ns - start_ns : 0,
      buf->track});
}

uint64_t TraceSession::counter(TraceCounter c) const {
  const size_t i = static_cast<size_t>(c);
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buf : bufs_) {
    // Relaxed loads: exact once recorders have joined (the join is the
    // synchronization point); a monotone approximation while they run.
    total = IsMaxCounter(c)
                ? std::max(total,
                           buf->maxes[i].load(std::memory_order_relaxed))
                : total + buf->counts[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<TraceEvent> TraceSession::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> merged;
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->buf_mu);
    merged.insert(merged.end(), buf->events.begin(), buf->events.end());
  }
  return merged;
}

size_t TraceSession::NumTracks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bufs_.size();
}

QueryMetrics TraceSession::Metrics() const {
  QueryMetrics m;
  m.enabled = true;
  std::lock_guard<std::mutex> lock(mu_);

  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    uint64_t total = 0;
    for (const auto& buf : bufs_) {
      // Relaxed loads: see counter() — exact after recorders join.
      const uint64_t cell =
          (kCounterInfo[i].is_max ? buf->maxes[i] : buf->counts[i])
              .load(std::memory_order_relaxed);
      total = kCounterInfo[i].is_max ? std::max(total, cell) : total + cell;
    }
    m.counters[i] = total;
  }

  // Span aggregates by name, map-sorted so the rendered order is stable.
  std::map<std::string, QueryMetrics::SpanAggregate> spans;
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->buf_mu);
    for (const TraceEvent& e : buf->events) {
      QueryMetrics::SpanAggregate& agg = spans[e.name];
      agg.name = e.name;
      ++agg.count;
      agg.total_ms += static_cast<double>(e.dur_ns) / 1e6;
    }
  }
  m.spans.reserve(spans.size());
  for (auto& [name, agg] : spans) m.spans.push_back(std::move(agg));

  // Series merged by name across threads; Quantile sorts internally, so
  // concatenation order cannot change the summary.
  std::map<std::string, std::vector<double>> series;
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->buf_mu);
    for (const auto& [name, values] : buf->series) {
      std::vector<double>& merged = series[name];
      merged.insert(merged.end(), values.begin(), values.end());
    }
  }
  m.series.reserve(series.size());
  for (auto& [name, values] : series) {
    QueryMetrics::SeriesSummary summary;
    summary.name = name;
    summary.count = values.size();
    SummaryStats stats;
    for (const double v : values) stats.Add(v);
    summary.min = stats.Min();
    summary.mean = stats.Mean();
    summary.max = stats.Max();
    summary.p50 = Quantile(values, 0.50);
    summary.p90 = Quantile(values, 0.90);
    summary.p99 = Quantile(std::move(values), 0.99);
    m.series.push_back(std::move(summary));
  }
  return m;
}

void TraceSession::WriteChromeTrace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (const auto& buf : bufs_) {
    comma();
    // One named track (tid) per recording thread: the session thread plus
    // each pool worker (src/parallel) that touched the trace.
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << buf->track << ",\"args\":{\"name\":\"" << buf->label << "-"
        << buf->track << "\"}}";
  }
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->buf_mu);
    for (const TraceEvent& e : buf->events) {
      comma();
      // Complete ("X") events; ts/dur in microseconds per the trace-event
      // format. Fractional microseconds keep sub-us spans visible.
      out << "{\"name\":\"" << e.name << "\",\"cat\":\"convoy\","
          << "\"ph\":\"X\",\"pid\":1,\"tid\":" << e.track
          << ",\"ts\":" << static_cast<double>(e.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3 << "}";
    }
  }
  out << (first ? "]" : "\n]") << ",\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace convoy
