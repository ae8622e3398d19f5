// The per-layer metric table and the helpers every traced run shares.
#include <algorithm>
#include <fstream>

#include "workloads.h"

namespace perfbench {

using convoy::TraceCounter;

namespace {

/// The per-layer metrics, in BENCHMARK.json's order, with their units.
const std::vector<std::pair<std::string, std::string>>& LayerDefs() {
  static const std::vector<std::pair<std::string, std::string>> defs = {
      {"io.csv_load_ms", "ms"},
      {"store.build_ms", "ms"},
      {"store.points", "count"},
      {"planner.prepare_ms", "ms"},
      {"simplify.ms_per_query", "ms"},
      {"simplify.cache_miss_frac", "ratio"},
      {"simplify.call_ms", "ms"},
      {"cuts_filter.ms_per_query", "ms"},
      {"cuts_filter.segment_tests", "count"},
      {"cuts_filter.mbr_reject_frac", "ratio"},
      {"cuts_filter.candidates", "count"},
      {"cuts_filter.candidate_yield", "ratio"},
      {"cuts_refine.ms_per_query", "ms"},
      {"cuts_refine.units", "count"},
      {"cuts_refine.clusterings", "count"},
      {"cuts_refine.clusterings_per_cmc", "ratio"},
      {"cuts_refine.minflt_per_query", "count"},
      {"cuts_refine.sys_frac", "ratio"},
      {"cluster.points_scanned", "count"},
      {"cluster.neighbor_queries", "count"},
      {"cluster.grid_cache_hit_frac", "ratio"},
      {"candidate.steps", "count"},
      {"candidate.offered", "count"},
      {"candidate.dedup_hit_frac", "ratio"},
      {"candidate.live_max", "count"},
      {"cmc.ms_per_query", "ms"},
      {"cmc.speedup", "ratio"},
      {"streaming.endtick_ms_p50", "ms"},
      {"streaming.endtick_ms_p90", "ms"},
      {"streaming.report_ns_per_row", "ns"},
      {"wal.append_us_per_batch", "us"},
      {"wal.bytes_per_row", "B"},
      {"wal.fsyncs", "count"},
      {"wal.replay_rows_per_s", "1/s"},
      {"server.decode_us_per_batch", "us"},
      {"server.snapshot_ms", "ms"},
      {"server.wait_ms_p50", "ms"},
      {"server.ring_high_water", "count"},
      {"server.retry_naks", "count"},
      {"server.events_dropped", "count"},
      {"proc.minflt_per_op", "count"},
      {"proc.sys_cpu_frac", "ratio"},
      {"loadgen.late_p90_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"canary.drifted_counts", "count"},
  };
  return defs;
}

uint64_t CountOf(const Counts& counts, const std::string& name) {
  auto it = counts.find(name);
  return it == counts.end() ? 0 : it->second;
}

}  // namespace

LayerMetrics::LayerMetrics() : defs_(LayerDefs()) {}

void LayerMetrics::Set(const std::string& name, double value) {
  values_[name] = value;
}

void LayerMetrics::EmitInto(RunResult* result) const {
  for (const auto& [name, unit] : defs_) {
    auto it = values_.find(name);
    result->Add(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

std::vector<std::string> LayerMetrics::Unset() const {
  std::vector<std::string> unset;
  for (const auto& def : defs_) {
    if (!values_.count(def.first)) unset.push_back(def.first);
  }
  return unset;
}

std::vector<std::string> DriftedCounts(const Counts& a, const Counts& b) {
  std::vector<std::string> drifted;
  for (const auto& [name, value] : a) {
    if (CountOf(b, name) != value) drifted.push_back(name);
  }
  for (const auto& [name, value] : b) {
    if (!a.count(name)) drifted.push_back(name);
  }
  return drifted;
}

/// cluster.* and candidate.* sum the query pass (the traced Execute of
/// each counted query) and the streaming replay.
void SetCountLayers(const Counts& counts, LayerMetrics* layers) {
  const auto sum = [&counts](const std::string& name) {
    return static_cast<double>(CountOf(counts, "query." + name) +
                               CountOf(counts, "streaming." + name));
  };
  layers->Set("cluster.points_scanned", sum("dbscan.points_scanned"));
  layers->Set("cluster.neighbor_queries", sum("dbscan.neighbor_queries"));
  layers->Set("candidate.steps", sum("tracker.steps"));
  const double offered = sum("tracker.candidates_offered");
  layers->Set("candidate.offered", offered);
  layers->Set("candidate.dedup_hit_frac",
              offered > 0 ? sum("tracker.dedup_hits") / offered : 0.0);
  layers->Set("candidate.live_max",
              static_cast<double>(
                  std::max(CountOf(counts, "query.tracker.live_max"),
                           CountOf(counts, "streaming.tracker.live_max"))));
}

void AddCounts(const convoy::TraceSession& trace, const std::string& prefix,
               Counts* counts) {
  for (size_t i = 0; i < convoy::kNumTraceCounters; ++i) {
    const auto c = static_cast<TraceCounter>(i);
    // fsync counts follow the interval clock, not the work.
    if (c == TraceCounter::kWalFsyncs) continue;
    const uint64_t v = trace.counter(c);
    if (v == 0) continue;
    uint64_t& slot = (*counts)[prefix + convoy::ToString(c)];
    slot = convoy::IsMaxCounter(c) ? std::max(slot, v) : slot + v;
  }
}

void FinishTracedRun(const std::string& trace_path, const SpanLog& spans,
                     const Counts& counts, LayerMetrics* layers,
                     RunResult* result) {
  SetCountLayers(counts, layers);
  layers->Set("canary.drifted_counts",
              static_cast<double>(CountOf(counts, "canary.drifted")));
  for (const std::string& name : layers->Unset()) {
    result->harness_ok = false;
    result->notes.push_back("per-layer metric not measured: " + name);
  }
  layers->EmitInto(result);
  std::ofstream trace_out(trace_path);
  spans.WriteChromeTrace(trace_out);
  std::ofstream counts_out(trace_path + ".counts");
  for (const auto& [name, value] : counts) {
    counts_out << name << " " << value << "\n";
  }
  result->InfoStr("trace_file", trace_path);
}

}  // namespace perfbench
