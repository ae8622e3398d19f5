// The three workloads and the layer passes their traced runs share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kBench;
  std::string out_dir;       ///< scratch files, trace output
  bool plant_wrong = false;  ///< corrupt one answer (gate self-test)
};

/// Per-layer metrics of a traced run, in the order BENCHMARK.json lists
/// them. Every traced run emits all of them: each workload exercises
/// every layer, heavily or lightly.
class LayerMetrics {
 public:
  LayerMetrics();
  void Set(const std::string& name, double value);
  void EmitInto(RunResult* result) const;
  /// Names the run never set (a bug in the benchmark, never expected).
  std::vector<std::string> Unset() const;

 private:
  std::vector<std::pair<std::string, std::string>> defs_;  // name, unit
  std::map<std::string, double> values_;
};

/// Deterministic work counts a traced run collects; two traced runs of the
/// same seed must agree on every one (the determinism canary).
using Counts = std::map<std::string, uint64_t>;

/// Names whose counts differ between two count sets.
std::vector<std::string> DriftedCounts(const Counts& a, const Counts& b);

/// Adds a session's counter-catalog counts under `prefix` (sums, or maxima
/// for max counters); fsync counts are left out, they follow the clock.
void AddCounts(const convoy::TraceSession& trace, const std::string& prefix,
               Counts* counts);

/// Derives the cluster.* and candidate.* metrics from collected counts.
void SetCountLayers(const Counts& counts, LayerMetrics* layers);

/// Completes a traced run: derived and canary metrics, a check that every
/// per-layer metric was measured, and the Chrome trace plus a .counts file
/// at `trace_path`.
void FinishTracedRun(const std::string& trace_path, const SpanLog& spans,
                     const Counts& counts, LayerMetrics* layers,
                     RunResult* result);

RunResult RunQueryWorkload(const RunArgs& args);
RunResult RunIngestWorkload(const RunArgs& args);

/// Traced query-layer pass: CSV load, store build, the auto plan through
/// Prepare/Execute with a TraceSession, the same plan decomposed into
/// SimplifyDatabase / CutsFilterPresimplified / CutsRefine, and the CMC
/// reference — twice, so counts can be compared — then traced and
/// untraced passes alternating for `overhead_seconds`. Engines start in
/// the workload's state: warmed by the set-up's first Prepare, or fresh
/// for every query.
struct QueryLayerInput {
  std::string csv_path;
  std::vector<convoy::ConvoyQuery> queries;
  bool fresh_engine_per_query = false;
  double overhead_seconds = 0.0;
};
void RunQueryLayers(const QueryLayerInput& in, SpanLog* spans,
                    LayerMetrics* layers, RunResult* result, Counts* counts,
                    bool plant_wrong);

/// Traced ingest-layer pass over a feed: protocol Encode/Decode, a
/// scratch-dir WalWriter with the live fsync policy, WAL replay,
/// StreamingCmc::Report/EndTick, and IngestStream::SnapshotEngine at
/// evenly spaced query points.
struct IngestSelfTimes {
  double decode_ms_per_tick = 0.0;
  double wal_ms_per_tick = 0.0;
  double endtick_ms = 0.0;
  double report_ms_per_tick = 0.0;
};
IngestSelfTimes RunIngestLayers(const convoy::StreamFeed& feed,
                                convoy::Tick carry_forward,
                                const std::string& scratch_dir,
                                SpanLog* spans, LayerMetrics* layers,
                                Counts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
