#ifndef CONVOY_OBS_METRICS_H_
#define CONVOY_OBS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace convoy {

// Mirrors TraceCounter::kNumTraceCounters (static_assert'd in trace.cc);
// kept as a plain constant so this header stays light enough for
// query/result_set.h to include.
inline constexpr size_t kQueryMetricsCounters = 40;

/// A merged, immutable snapshot of one execution's trace: the deterministic
/// counter totals, per-name span aggregates (wall-clock), and value-series
/// summaries (wall-clock quantiles). Produced by TraceSession::Metrics();
/// carried by ConvoyResultSet so EXPLAIN ANALYZE and the --report JSON can
/// render it after the session is gone. Copyable and self-contained.
struct QueryMetrics {
  /// False when the execution ran without a trace (the default); sinks
  /// then render nothing.
  bool enabled = false;

  /// Merged totals indexed by TraceCounter (max counters hold the high
  /// water mark). Deterministic across thread counts.
  std::array<uint64_t, kQueryMetricsCounters> counters{};

  /// Aggregated spans, sorted by name: total wall-clock per instrumented
  /// phase. Excluded from determinism checks.
  struct SpanAggregate {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0.0;
  };
  std::vector<SpanAggregate> spans;

  /// Value-series summaries (per-tick latency, ...), sorted by name.
  /// Quantiles via util/stats.h Quantile; excluded from determinism checks.
  struct SeriesSummary {
    std::string name;
    uint64_t count = 0;
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<SeriesSummary> series;

  /// Counter total by TraceCounter index (bounds-unchecked enum cast lives
  /// with the callers that hold the enum; this is for rendered sinks).
  uint64_t CounterAt(size_t i) const { return counters[i]; }

  /// The EXPLAIN ANALYZE block: non-zero counters, span totals, and series
  /// summaries as indented text (appended to QueryPlan::Explain()).
  std::string ToText() const;

  /// The metrics JSON object (no surrounding key): {"counters":{...},
  /// "spans":[...],"series":[...]}. Stable field order, no JSON library —
  /// the same discipline as io/result_io.cc.
  void WriteJson(std::ostream& out) const;
};

}  // namespace convoy

#endif  // CONVOY_OBS_METRICS_H_
