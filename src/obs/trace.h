#ifndef CONVOY_OBS_TRACE_H_
#define CONVOY_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace convoy {

/// The deterministic counter catalog — every named counter the execution
/// layers increment. Counters are *logical work measures* (points scanned,
/// probes performed, candidates created): their totals are bit-identical at
/// any worker-thread count, because every increment is attributable to a
/// deterministic work unit (a tick, a partition, a refinement unit) and
/// integer sums are order-independent. Wall-clock data goes into spans and
/// value series instead, which are explicitly excluded from determinism.
///
/// kTrackerLiveMax is a *max* counter (merged by max, not sum): the high
/// water mark of live candidates across the run.
enum class TraceCounter : uint32_t {
  kSnapshotsClustered = 0,   ///< ticks/partitions where DBSCAN actually ran
  kDbscanPointsScanned,      ///< points labeled across all clusterings
  kDbscanNeighborQueries,    ///< grid neighborhood lookups issued
  kDbscanNeighborsVisited,   ///< neighbor list entries returned in total
  kDbscanClustersFormed,     ///< clusters produced across all clusterings
  kTrackerSteps,             ///< CandidateTracker::Advance calls
  kTrackerCandidatesOffered, ///< successor/fresh candidates offered
  kTrackerDedupProbes,       ///< open-addressing probe steps in the dedup
  kTrackerDedupHits,         ///< offers that collapsed onto an existing set
  kTrackerCompleted,         ///< candidates retired with lifetime >= k
  kTrackerLiveMax,           ///< max live candidates after any step (max)
  kSimplifyCacheHits,        ///< engine simplification cache hits
  kSimplifyCacheMisses,      ///< engine simplification cache misses
  kDeltaCacheHits,           ///< engine derived-delta memo hits
  kDeltaCacheMisses,         ///< engine derived-delta memo misses
  kStoreTicksBuilt,          ///< ticks materialized by a store build
  kStorePointsBuilt,         ///< columnar points materialized by a build
  kFilterPartitions,         ///< CuTS filter partitions clustered
  kRefineUnits,              ///< CuTS refinement windows run
  kServerBatchesAccepted,    ///< ingest batches the stream workers processed
  kServerBatchesRejected,    ///< batches NAKed (malformed/out-of-order/full)
  kServerRingHighWater,      ///< max reader->worker ring depth seen (max)
  kServerEventsEmitted,      ///< subscription events fanned out to clients
  kServerActiveSessionsMax,  ///< max concurrently open ingest streams (max)
  kFilterPolylines,          ///< partition polylines built by the filter
  kFilterSegmentTests,       ///< segment pairs whose distance was computed
  kFilterMbrRejects,         ///< segment pairs rejected by the MBR bound
  kWalRecordsAppended,       ///< WAL records written (accepted ingest items)
  kWalBytesAppended,         ///< WAL bytes written (records + headers)
  kWalFsyncs,                ///< fsync(2) calls issued by the WAL writer
  kWalSegmentsRotated,       ///< WAL segment files rotated out
  kWalRecoveredRecords,      ///< records replayed during crash recovery
  kWalTruncatedTails,        ///< torn/corrupt WAL tails truncated on open
  kServerIdleReaped,         ///< connections reaped by the idle read timeout
  kServerEventsDropped,      ///< events dropped by the slow-subscriber policy
  kServerLoadShed,           ///< ingest items NAKed kRetryAfter (high water)
  kServerLiveQueries,        ///< queries answered by the live incremental CMC
  kServerLiveTicksClustered, ///< ticks those queries' refreshes clustered
  kClusterMemoHits,          ///< CuTS filter runs / refinement windows and
                             ///< CMC / MC2 sweeps served by the engine's
                             ///< clustering memo
  kClusterMemoMisses,        ///< ... that clustered and published instead
  kNumTraceCounters          ///< sentinel, not a counter
};

inline constexpr size_t kNumTraceCounters =
    static_cast<size_t>(TraceCounter::kNumTraceCounters);

/// Stable snake_case name of a counter (the key used in metrics JSON and
/// EXPLAIN ANALYZE output; see README "Observability" for the catalog).
const char* ToString(TraceCounter c);

/// True for counters merged across threads by max instead of sum.
bool IsMaxCounter(TraceCounter c);

/// One completed span: a named wall-clock interval on one thread's track.
/// Names must be string literals (or otherwise outlive the session) — spans
/// never copy them, so recording one allocates at most a vector slot.
struct TraceEvent {
  const char* name = "";
  uint64_t start_ns = 0;  ///< steady-clock ns since the session's origin
  uint64_t dur_ns = 0;
  uint32_t track = 0;  ///< per-thread track id (registration order)
};

/// Sets/reads a thread-role label attached to this thread's trace track
/// ("main" by default; src/parallel's pool labels its workers
/// "pool-worker").
/// The pointer must outlive every session the thread records into — pass
/// string literals.
void SetTraceThreadLabel(const char* label);
const char* GetTraceThreadLabel();

/// TraceSession — a per-execution recorder of spans, counters, and value
/// series, built for a near-zero disabled cost: every instrumentation point
/// in the engine takes a `TraceSession*` that is null when tracing is off,
/// and the null check is hoisted to once per *phase* (per tick, partition,
/// or refinement unit), never per point.
///
/// Thread model: each recording thread lazily registers a private buffer
/// (spans + counter array + series), so counter recording from pool
/// workers is lock-free after the first touch (relaxed atomics on cells
/// owned by one writer); span/series recording takes the buffer's own
/// mutex, uncontended in the steady state because spans are per-phase,
/// never per-point. Reads (Metrics / counter / Events / Chrome trace
/// export) merge the buffers under the session mutex plus each buffer's
/// mutex, so reading WHILE recording is safe: a live read returns a
/// monotone approximation (some in-flight tallies may be missing), and a
/// read after the recording threads joined is exact — joining
/// happens-before the read, so even relaxed counter cells are final.
/// This is what lets a monitor thread poll Metrics() against a live
/// StreamingCmc without stopping the stream.
///
/// Determinism: counter totals are bit-identical at 1/2/8 threads (integer
/// sums over deterministic per-unit tallies); span timings and Observe()d
/// values are wall-clock and carry no determinism guarantee.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Adds `delta` to a sum counter (thread-safe; lock-free after the
  /// calling thread's first record into this session).
  void Count(TraceCounter c, uint64_t delta);

  /// Raises a max counter to at least `value`.
  void CountMax(TraceCounter c, uint64_t value);

  /// Appends one observation to the named value series (histogram source:
  /// per-tick latencies, ...). `series` must be a string literal or
  /// otherwise outlive the session.
  void Observe(const char* series, double value);

  /// Records a completed span. Prefer ScopedSpan below.
  void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns);

  /// Steady-clock nanoseconds since the session was created.
  uint64_t NowNs() const;

  /// Merged totals (sum counters) / high water marks (max counters).
  uint64_t counter(TraceCounter c) const;

  /// All recorded spans, merged across threads (per-track order preserved;
  /// tracks concatenated in registration order).
  std::vector<TraceEvent> Events() const;

  /// Number of per-thread tracks registered so far.
  size_t NumTracks() const;

  /// Snapshot of counters, series summaries (count/min/mean/max/p50/p90/
  /// p99 via util/stats.h), and per-name span aggregates — the payload of
  /// every sink (EXPLAIN ANALYZE, metrics JSON, bench phase breakdown).
  QueryMetrics Metrics() const;

  /// Chrome trace-event JSON (the "JSON Array Format"): one complete "X"
  /// event per span, one track (tid) per recording thread with a
  /// thread_name metadata record — loads in Perfetto / chrome://tracing.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  struct ThreadBuf {
    /// Counter cells are relaxed atomics: each cell has exactly one
    /// writer (the owning thread) and any number of merging readers.
    /// The cells are independent monotone tallies — no cross-cell
    /// ordering is meaningful — so relaxed is sufficient: a concurrent
    /// read sees some valid earlier value (monotone approximation), and
    /// the join of the recording threads before a final read supplies
    /// the happens-before that makes quiescent totals exact.
    std::array<std::atomic<uint64_t>, kNumTraceCounters> counts{};
    std::array<std::atomic<uint64_t>, kNumTraceCounters> maxes{};
    /// Guards this buffer's events and series only. Taken by the owning
    /// thread per span/observation (rare — per phase, never per point)
    /// and by readers during a merge, so live exports cannot race
    /// recording.
    std::mutex buf_mu;
    std::vector<TraceEvent> events;  // GUARDED_BY(buf_mu)
    std::vector<std::pair<const char*, std::vector<double>>>
        series;                      // GUARDED_BY(buf_mu)
    uint32_t track = 0;
    const char* label = "main";
  };

  ThreadBuf* LocalBuf();
  static std::vector<double>* SeriesSlot(ThreadBuf* buf, const char* name);

  const uint64_t session_id_;  ///< process-unique, keys the thread cache
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards bufs_ registration and merged reads
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // GUARDED_BY(mu_)
};

/// RAII span guarded for a null session — the one-branch-per-phase idiom:
///
///   ScopedSpan span(trace, "filter.partition");   // no-op when trace==null
///
/// Zero allocation and two branches total when disabled.
class ScopedSpan {
 public:
  ScopedSpan(TraceSession* session, const char* name) : session_(session) {
    if (session_ != nullptr) {
      name_ = name;
      start_ns_ = session_->NowNs();
    }
  }
  ~ScopedSpan() {
    if (session_ != nullptr) {
      session_->RecordSpan(name_, start_ns_, session_->NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSession* session_;
  const char* name_ = "";
  uint64_t start_ns_ = 0;
};

/// Null-guarded free helpers, mirroring TraceOf in core/exec_hooks.h: a
/// disabled trace costs exactly one branch.
inline void TraceCount(TraceSession* t, TraceCounter c, uint64_t delta) {
  if (t != nullptr) t->Count(c, delta);
}

inline void TraceCountMax(TraceSession* t, TraceCounter c, uint64_t value) {
  if (t != nullptr) t->CountMax(c, value);
}

inline void TraceObserve(TraceSession* t, const char* series, double value) {
  if (t != nullptr) t->Observe(series, value);
}

}  // namespace convoy

#endif  // CONVOY_OBS_TRACE_H_
