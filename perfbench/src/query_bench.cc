// cattle_sweep and dense_esweep: an analyst sweeping query parameters
// over a loaded CSV through ConvoyEngine::Prepare/Execute (auto planner,
// one thread), every answer checked against CMC outside the timed loop.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>

#include "live.h"
#include "workloads.h"

namespace perfbench {

using convoy::AlgorithmChoice;
using convoy::AlgorithmId;
using convoy::ConvoyEngine;
using convoy::ConvoyQuery;
using convoy::Convoy;
using convoy::TraceCounter;
using convoy::TraceSession;

namespace {

constexpr int kSetupReps = 15;

struct Setup {
  std::unique_ptr<ConvoyEngine> engine;
  double load_ms = 0.0;
  double store_ms = 0.0;
  double total_s = 0.0;
};

/// What convoy_cli pays before its first answer: CSV load, engine,
/// SnapshotStore, first Prepare.
Setup RunSetup(const std::string& csv, const ConvoyQuery& first,
               SpanLog* spans) {
  Setup s;
  ScopedSpan setup_span(spans, "setup");
  const double t0 = NowS();
  convoy::CsvLoadResult loaded;
  {
    ScopedSpan span(spans, "io.csv_load", setup_span.id());
    loaded = convoy::LoadTrajectoriesCsv(csv);
  }
  const double t1 = NowS();
  {
    ScopedSpan span(spans, "traj.store_build", setup_span.id());
    s.engine = std::make_unique<ConvoyEngine>(std::move(loaded.db));
    s.engine->Store(1);
  }
  const double t2 = NowS();
  {
    ScopedSpan span(spans, "query.first_prepare", setup_span.id());
    (void)s.engine->Prepare(first);
  }
  const double t3 = NowS();
  s.load_ms = (t1 - t0) * 1e3;
  s.store_ms = (t2 - t1) * 1e3;
  s.total_s = t3 - t0;
  return s;
}

std::unique_ptr<ConvoyEngine> FreshEngine(const ConvoyEngine& like) {
  auto engine = std::make_unique<ConvoyEngine>(like.db());
  engine->Store(1);
  return engine;
}

/// An engine in the state the workload's queries meet: fresh, or warmed
/// by the set-up's first Prepare.
std::unique_ptr<ConvoyEngine> OpenEngine(const ConvoyEngine& like, bool fresh,
                                         const ConvoyQuery& first) {
  auto engine = FreshEngine(like);
  if (!fresh) (void)engine->Prepare(first);
  return engine;
}

ConvoyQuery OneThread(ConvoyQuery q) {
  q.num_threads = 1;
  return q;
}

/// One Prepare + Execute; false on a failed Status.
bool RunQuery(const ConvoyEngine& engine, const ConvoyQuery& q,
              std::vector<Convoy>* out, TraceSession* trace = nullptr) {
  auto plan = engine.Prepare(q, AlgorithmChoice::kAuto, {}, {}, trace);
  if (!plan.ok()) return false;
  convoy::ExecHooks hooks;
  hooks.trace = trace;
  auto result = engine.Execute(*plan, hooks);
  if (!result.ok()) return false;
  *out = result->convoys();
  return true;
}

std::vector<Convoy> Reference(const ConvoyEngine& engine,
                              const ConvoyQuery& q,
                              TraceSession* trace = nullptr) {
  convoy::ExecHooks hooks;
  hooks.trace = trace;
  return Canonical(convoy::Cmc(*engine.Store(1), q, {}, nullptr, &hooks));
}

double Frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

// ------------------------------------------------------ traced query pass

void RunQueryLayers(const QueryLayerInput& in, SpanLog* spans,
                    LayerMetrics* layers, RunResult* result, Counts* counts,
                    bool plant_wrong) {
  std::vector<ConvoyQuery> queries;
  for (const ConvoyQuery& q : in.queries) queries.push_back(OneThread(q));

  // Set-up layers: io and traj.
  std::vector<double> load_ms, store_ms;
  Setup warm;
  for (int rep = 0; rep < 3; ++rep) {
    warm = RunSetup(in.csv_path, queries.front(), spans);
    load_ms.push_back(warm.load_ms);
    store_ms.push_back(warm.store_ms);
  }
  layers->Set("io.csv_load_ms", Median(load_ms));
  layers->Set("store.build_ms", Median(store_ms));
  layers->Set("store.points",
              static_cast<double>(warm.engine->Store(1)->TotalPoints()));
  const ConvoyEngine& base = *warm.engine;

  // Counted passes: the same engine state as the workload, every layer
  // call in its own span. Run twice; the second only feeds the canary.
  Counts pass_counts[2];
  double pass_minflt[2] = {0.0, 0.0};
  bool planted = false;
  for (int pass = 0; pass < 2; ++pass) {
    std::unique_ptr<ConvoyEngine> engine;
    Counts& pc = pass_counts[pass];
    double simplify_ms = 0.0, filter_ms = 0.0, refine_ms = 0.0, cmc_ms = 0.0;
    double simplify_call_ms = 0.0, cuts_queries = 0.0;
    double engine_ms = 0.0;
    double refine_sys_ms = 0.0, refine_user_ms = 0.0;
    double segment_tests = 0.0, mbr_rejects = 0.0, candidates = 0.0;
    double yielding = 0.0, refine_units = 0.0, refine_clusterings = 0.0;
    double cmc_clusterings = 0.0, misses = 0.0, refine_minflt = 0.0;
    std::vector<double> prepare_ms;
    for (size_t i = 0; i < queries.size(); ++i) {
      const ConvoyQuery& q = queries[i];
      const auto req = static_cast<int64_t>(i);
      if (!engine || in.fresh_engine_per_query) {
        engine = OpenEngine(base, in.fresh_engine_per_query, queries.front());
      }
      ScopedSpan query_span(spans, "query", -1, req);
      TraceSession trace;
      auto plan = [&] {
        ScopedSpan span(spans, "engine.prepare", query_span.id(), req);
        return engine->Prepare(q, AlgorithmChoice::kAuto, {}, {}, &trace);
      }();
      if (!plan.ok()) {
        ++result->errors;
        continue;
      }
      const double e0 = NowS();
      convoy::ExecHooks hooks;
      hooks.trace = &trace;
      auto executed = [&] {
        ScopedSpan span(spans, "engine.execute", query_span.id(), req);
        return engine->Execute(*plan, hooks);
      }();
      engine_ms += (NowS() - e0) * 1e3;
      if (!executed.ok()) {
        ++result->errors;
        continue;
      }
      AddCounts(trace, "query.", &pc);
      const convoy::QueryMetrics metrics = trace.Metrics();
      double prep = 0.0;
      for (const auto& s : metrics.spans) {
        if (s.name == "prepare") prep += s.total_ms;
        if (s.name == "prepare.simplify") prep -= s.total_ms;
      }
      prepare_ms.push_back(prep);
      const bool missed = plan->cache == convoy::PlanCacheStatus::kMiss;
      if (missed) misses += 1.0;
      std::vector<Convoy> engine_out = Canonical(executed->convoys());

      const bool cuts = plan->algorithm != AlgorithmId::kCmc &&
                        plan->algorithm != AlgorithmId::kMc2;
      if (cuts) {
        // The CuTS plan's three public layer calls, as the executor makes
        // them (query/algorithm.cc), each timed from here.
        ScopedSpan decomposed(spans, "decomposed", query_span.id(), req);
        const int parent = decomposed.id();
        std::vector<convoy::SimplifiedTrajectory> simplified;
        double t = NowS();
        {
          ScopedSpan span(spans, "simplify", parent, req);
          simplified = convoy::SimplifyDatabase(
              engine->db(), plan->delta, plan->filter.simplifier, 1);
        }
        const double call_ms = (NowS() - t) * 1e3;
        simplify_call_ms += call_ms;
        cuts_queries += 1.0;
        if (missed) simplify_ms += call_ms;
        TraceSession filter_trace;
        convoy::ExecHooks filter_hooks;
        filter_hooks.trace = &filter_trace;
        convoy::DiscoveryStats stats;
        t = NowS();
        convoy::CutsFilterResult filtered;
        {
          ScopedSpan span(spans, "cuts_filter", parent, req);
          filtered = convoy::CutsFilterPresimplified(
              engine->db(), plan->query, plan->filter, std::move(simplified),
              plan->delta, &stats, &filter_hooks, engine->PeekStore().get());
        }
        filter_ms += (NowS() - t) * 1e3;
        AddCounts(filter_trace, "cuts_filter.", &pc);
        TraceSession refine_trace;
        convoy::ExecHooks refine_hooks;
        refine_hooks.trace = &refine_trace;
        std::vector<Convoy> refined;
        t = NowS();
        int refine_span_id = -1;
        {
          ScopedSpan span(spans, "cuts_refine", parent, req);
          refine_span_id = span.id();
          refined = convoy::CutsRefine(engine->db(), plan->query,
                                       filtered.candidates,
                                       plan->filter.refine_mode, &stats, 1,
                                       &refine_hooks);
        }
        refine_ms += (NowS() - t) * 1e3;
        AddCounts(refine_trace, "cuts_refine.", &pc);
        const SpanLog::Span rs =
            spans->Spans()[static_cast<size_t>(refine_span_id)];
        refine_minflt += static_cast<double>(rs.minflt);
        refine_sys_ms += rs.sys_ms;
        refine_user_ms += rs.user_ms;
        segment_tests += static_cast<double>(
            filter_trace.counter(TraceCounter::kFilterSegmentTests));
        mbr_rejects += static_cast<double>(
            filter_trace.counter(TraceCounter::kFilterMbrRejects));
        candidates += static_cast<double>(filtered.candidates.size());
        for (const convoy::Candidate& c : filtered.candidates) {
          for (const Convoy& v : engine_out) {
            if (v.start_tick <= c.end_tick && c.start_tick <= v.end_tick &&
                std::includes(c.objects.begin(), c.objects.end(),
                              v.objects.begin(), v.objects.end())) {
              yielding += 1.0;
              break;
            }
          }
        }
        refine_units += static_cast<double>(
            refine_trace.counter(TraceCounter::kRefineUnits));
        refine_clusterings += static_cast<double>(
            refine_trace.counter(TraceCounter::kSnapshotsClustered));
        if (Canonical(refined) != engine_out) {
          result->harness_ok = false;
          result->notes.push_back("decomposed pipeline differs from Execute "
                                  "on query " + std::to_string(i));
        }
      }

      TraceSession cmc_trace;
      std::vector<Convoy> reference;
      const double c0 = NowS();
      {
        ScopedSpan span(spans, "cmc", query_span.id(), req);
        reference = Reference(*engine, q, &cmc_trace);
      }
      cmc_ms += (NowS() - c0) * 1e3;
      cmc_clusterings += static_cast<double>(
          cmc_trace.counter(TraceCounter::kSnapshotsClustered));
      if (pass == 0) {
        ++result->attempted;
        if (plant_wrong && !planted && !engine_out.empty() &&
            engine_out == reference) {
          engine_out.front().end_tick -= 1;  // the gate must catch this
          planted = true;
        }
        if (engine_out != reference) ++result->wrong_answers;
      }
    }
    pass_minflt[pass] = refine_minflt;
    if (pass == 1) break;

    const double n = static_cast<double>(queries.size());
    layers->Set("planner.prepare_ms", Median(prepare_ms));
    layers->Set("simplify.ms_per_query", simplify_ms / n);
    layers->Set("simplify.cache_miss_frac", misses / n);
    // What one SimplifyDatabase call costs, cache or not: the simplify
    // layer's own speed, also on workloads whose plans hit the cache.
    layers->Set("simplify.call_ms", Frac(simplify_call_ms, cuts_queries));
    layers->Set("cuts_filter.ms_per_query", filter_ms / n);
    layers->Set("cuts_filter.segment_tests", segment_tests / n);
    layers->Set("cuts_filter.mbr_reject_frac",
                Frac(mbr_rejects, mbr_rejects + segment_tests));
    layers->Set("cuts_filter.candidates", candidates / n);
    layers->Set("cuts_filter.candidate_yield", Frac(yielding, candidates));
    layers->Set("cuts_refine.ms_per_query", refine_ms / n);
    layers->Set("cuts_refine.units", refine_units / n);
    layers->Set("cuts_refine.clusterings", refine_clusterings / n);
    layers->Set("cuts_refine.clusterings_per_cmc",
                Frac(refine_clusterings, cmc_clusterings));
    layers->Set("cuts_refine.minflt_per_query", refine_minflt / n);
    layers->Set("cuts_refine.sys_frac",
                Frac(refine_sys_ms, refine_sys_ms + refine_user_ms));
    layers->Set("cmc.ms_per_query", cmc_ms / n);
    layers->Set("cmc.speedup", Frac(cmc_ms, engine_ms));
    const auto get = [&pc](const char* name) {
      auto it = pc.find(std::string("query.") + name);
      return it == pc.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double grid_hits = get("store.grid_cache_hits");
    const double grid_misses = get("store.grid_cache_misses");
    layers->Set("cluster.grid_cache_hit_frac",
                Frac(grid_hits, grid_hits + grid_misses));
  }
  // Traced vs untraced end-to-end, in alternating whole passes. These
  // come after the counted passes: their number depends on the clock, and
  // the counted passes' page faults must not depend on heap history.
  std::vector<double> untraced_ms, traced_ms;
  const Usage usage0 = Usage::Now();
  const double overhead_end = NowS() + in.overhead_seconds;
  do {
    for (int traced = 0; traced < 2; ++traced) {
      std::unique_ptr<ConvoyEngine> engine;
      for (const ConvoyQuery& q : queries) {
        if (!engine || in.fresh_engine_per_query) {
          engine = OpenEngine(base, in.fresh_engine_per_query, queries.front());
        }
        std::vector<Convoy> out;
        TraceSession trace;
        const double t0 = NowS();
        RunQuery(*engine, q, &out, traced ? &trace : nullptr);
        (traced ? traced_ms : untraced_ms).push_back((NowS() - t0) * 1e3);
      }
    }
  } while (NowS() < overhead_end);
  const Usage usage1 = Usage::Now();
  layers->Set("trace.overhead_frac",
              Median(traced_ms) / std::max(1e-9, Median(untraced_ms)) - 1.0);
  // Process-level cost of the whole run (both halves), per query.
  const double ops = static_cast<double>(traced_ms.size() + untraced_ms.size());
  layers->Set("proc.minflt_per_op",
              static_cast<double>(usage1.minflt - usage0.minflt) / ops);
  layers->Set("proc.sys_cpu_frac",
              Frac(usage1.sys_s - usage0.sys_s,
                   (usage1.user_s - usage0.user_s) +
                       (usage1.sys_s - usage0.sys_s)));

  const std::vector<std::string> drifted =
      DriftedCounts(pass_counts[0], pass_counts[1]);
  for (const std::string& name : drifted) {
    result->notes.push_back("count drifted between counted passes: " + name);
  }
  // Page faults depend on the heap's history, which the first pass shares
  // with a traced run of the same seed but not with the second pass; the
  // report carries it for a cross-run comparison.
  result->InfoNum("refine_minflt_first_pass", pass_minflt[0]);
  for (const auto& [name, value] : pass_counts[0]) (*counts)[name] = value;
  (*counts)["canary.drifted"] = drifted.size();
}

// ---------------------------------------------------------- the workload

RunResult RunQueryWorkload(const RunArgs& args) {
  RunResult result;
  QueryWorkload w = args.workload == "cattle_sweep"
                        ? MakeCattleSweep(args.seed, args.scale)
                        : MakeDenseESweep(args.seed, args.scale);
  const std::string csv = args.out_dir + "/" + w.name + "-" +
                          std::to_string(args.seed) + ".csv";
  if (!convoy::SaveTrajectoriesCsv(w.db, csv)) {
    result.harness_ok = false;
    result.notes.push_back("cannot write " + csv);
    return result;
  }
  const std::vector<ConvoyQuery> list = w.queries;
  const convoy::Tick scene_ticks = w.db.EndTick() - w.db.BeginTick() + 1;
  w.db = convoy::TrajectoryDatabase();  // the engine loads its own copy
  std::vector<ConvoyQuery> queries;
  for (const ConvoyQuery& q : list) queries.push_back(OneThread(q));

  if (args.trace) {
    SpanLog spans;
    LayerMetrics layers;
    Counts counts;
    QueryLayerInput in;
    in.csv_path = csv;
    in.queries = queries;
    in.fresh_engine_per_query = w.fresh_engine_per_query;
    in.overhead_seconds = args.seconds;
    RunQueryLayers(in, &spans, &layers, &result, &counts, args.plant_wrong);

    // The ingest layers, lightly: the scene replayed as a live feed.
    auto loaded = convoy::LoadTrajectoriesCsv(csv);
    const size_t feed_ticks = args.scale == Scale::kToy ? 60 : 300;
    LiveWorkload live;
    live.feed = FeedFromScene(loaded.db, queries.front(), feed_ticks, 100,
                              args.seed);
    live.prefix_ticks = 0;
    live.analyst_query = queries.front();
    const IngestSelfTimes self = RunIngestLayers(
        live.feed, live.carry_forward, args.out_dir + "/replay-wal", &spans,
        &layers, &counts);
    const std::string wal_dir = args.out_dir + "/live-wal";
    std::filesystem::remove_all(wal_dir);
    auto server = StartServer(live, wal_dir);
    if (!server.ok()) {
      result.harness_ok = false;
      result.notes.push_back("live server: " + server.status().ToString());
    } else {
      LiveResult lr = RunLive(live, 0, server->server.get(),
                              server->producer.get(), &spans);
      server->producer.reset();
      server->server->Shutdown();
      std::filesystem::remove_all(wal_dir);
      if (!lr.ok) {
        result.harness_ok = false;
        result.notes.push_back(lr.error);
      }
      const double per_tick = self.decode_ms_per_tick + self.wal_ms_per_tick +
                              self.endtick_ms + self.report_ms_per_tick;
      layers.Set("server.wait_ms_p50", Median(lr.tick_ms) - per_tick);
      layers.Set("server.ring_high_water",
                 static_cast<double>(lr.ring_high_water));
      layers.Set("server.retry_naks", static_cast<double>(lr.retry_naks));
      layers.Set("server.events_dropped",
                 static_cast<double>(lr.events_dropped));
      layers.Set("loadgen.late_p90_ms", Quantile(lr.late_ms, 0.9));
    }
    FinishTracedRun(args.out_dir + "/trace-" + w.name + "-" +
                        std::to_string(args.seed) + ".json",
                    spans, counts, &layers, &result);
    std::filesystem::remove(csv);
    return result;
  }

  // ---- untraced: set-up (median of several), then whole passes.
  // Set-up is under 0.1 s of work: it is repeated, half before and half
  // after the timed loop so the repetitions meet different host states,
  // and reported as the median.
  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < kSetupReps / 2 + 1; ++rep) {
    setup = RunSetup(csv, queries.front(), nullptr);
    setup_s.push_back(setup.total_s);
  }
  const ConvoyEngine& warm = *setup.engine;
  const size_t points = warm.Store(1)->TotalPoints();

  struct Exec {
    size_t pass = 0;
    size_t query = 0;
    double ms = 0.0;
    uint64_t fingerprint = 0;
  };
  std::vector<Exec> execs;
  std::map<size_t, std::vector<Convoy>> first_answer;
  size_t passes = 0;
  const double start = NowS();
  const double deadline = start + args.seconds;
  std::unique_ptr<ConvoyEngine> fresh;
  while (passes == 0 || NowS() < deadline) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const ConvoyEngine* engine = &warm;
      if (w.fresh_engine_per_query) {
        fresh.reset();
        fresh = FreshEngine(warm);  // opening it is no query's work
        engine = fresh.get();
      }
      std::vector<Convoy> out;
      const double t0 = NowS();
      const bool ok = RunQuery(*engine, queries[i], &out);
      const double ms = (NowS() - t0) * 1e3;
      if (!ok) {
        ++result.errors;
        continue;
      }
      std::vector<Convoy> canonical = Canonical(std::move(out));
      execs.push_back(Exec{passes, i, ms, Fingerprint(canonical)});
      if (!first_answer.count(i)) first_answer[i] = std::move(canonical);
    }
    ++passes;
  }
  const double wall = NowS() - start;
  const Usage usage = Usage::Now();
  while (setup_s.size() < static_cast<size_t>(kSetupReps)) {
    setup_s.push_back(RunSetup(csv, queries.front(), nullptr).total_s);
  }

  // ---- correctness gate, outside every timed section.
  std::map<size_t, uint64_t> reference_fp;
  std::map<size_t, std::vector<Convoy>> reference;
  for (size_t i = 0; i < queries.size(); ++i) {
    reference[i] = Reference(warm, queries[i]);
    reference_fp[i] = Fingerprint(reference[i]);
  }
  if (args.plant_wrong) {
    // Corrupt the first right, non-empty answer: its first convoy ends a
    // tick early. The gate must count exactly one more wrong answer.
    for (Exec& e : execs) {
      std::vector<Convoy> answer = first_answer[e.query];
      if (answer.empty() || e.fingerprint != reference_fp[e.query]) continue;
      answer.front().end_tick -= 1;
      e.fingerprint = Fingerprint(answer);
      first_answer[e.query] = std::move(answer);
      break;
    }
  }
  std::vector<size_t> wrong_queries;
  for (const Exec& e : execs) {
    if (e.fingerprint != reference_fp[e.query]) {
      ++result.wrong_answers;
      if (std::find(wrong_queries.begin(), wrong_queries.end(), e.query) ==
          wrong_queries.end()) {
        wrong_queries.push_back(e.query);
      }
    }
  }
  std::sort(wrong_queries.begin(), wrong_queries.end());
  // Distinct queries answered wrong at least once: unlike wrong_answers,
  // independent of how many passes the clock allowed.
  result.InfoNum("wrong_queries", static_cast<double>(wrong_queries.size()));
  constexpr size_t kNotedWrong = 8;
  if (wrong_queries.size() > kNotedWrong) {
    result.notes.push_back(std::to_string(wrong_queries.size()) + " of " +
                           std::to_string(queries.size()) +
                           " queries answered wrong; the first " +
                           std::to_string(kNotedWrong) + " follow");
    wrong_queries.resize(kNotedWrong);
  }
  for (size_t i : wrong_queries) {
    const ConvoyQuery& q = queries[i];
    result.notes.push_back(
        "wrong answer q" + std::to_string(i) + " (m=" + std::to_string(q.m) +
        " k=" + std::to_string(q.k) + " e=" + std::to_string(q.e) +
        "): " + DescribeDiff(first_answer[i], reference[i]));
  }
  result.attempted = execs.size() + result.errors;

  // The median is taken per pass (one sample per query of the sweep) and
  // reported as its median over the run's passes, so a slow spell of the
  // host moves only the passes it covers. The p90 needs the whole run's
  // samples to have ten or more beyond it.
  std::vector<std::vector<double>> pass_ms(passes);
  std::vector<double> all_ms;
  const std::string series_path = args.out_dir + "/latency-" + w.name + "-" +
                                  std::to_string(args.seed) + ".txt";
  std::ofstream series(series_path);
  for (const Exec& e : execs) {
    pass_ms[e.pass].push_back(e.ms);
    all_ms.push_back(e.ms);
    series << e.query << " " << e.ms << "\n";
  }
  result.InfoStr("latency_series", series_path);
  std::vector<double> pass_p50;
  for (const std::vector<double>& p : pass_ms) {
    if (!p.empty()) pass_p50.push_back(Quantile(p, 0.5));
  }
  const double p50 = Median(pass_p50);
  const double p90 = Quantile(all_ms, 0.9);
  const auto ticks = static_cast<double>(scene_ticks);
  const double n = static_cast<double>(execs.size());
  result.Add("query_p50_ms", p50, "ms");
  result.Add("query_p90_ms", p90, "ms");
  result.Add("queries_per_s", n / wall, "1/s");
  result.Add("tick_p50_ms", p50 / ticks, "ms");
  result.InfoNum("tick_p90_ms", p90 / ticks);
  result.InfoNum("query_p50_pooled_ms", Quantile(all_ms, 0.5));
  result.Add("rows_per_s", n * static_cast<double>(points) / wall, "1/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("rss_peak_mb", static_cast<double>(usage.maxrss_kb) / 1024.0,
             "MB");
  result.InfoNum("query_samples", n);
  result.InfoNum("passes", static_cast<double>(passes));
  result.InfoNum("queries_per_pass", static_cast<double>(queries.size()));
  result.InfoNum("setup_samples", kSetupReps);
  result.InfoNum("scene_points", static_cast<double>(points));
  result.InfoNum("scene_ticks", static_cast<double>(scene_ticks));
  std::filesystem::remove(csv);
  return result;
}

}  // namespace perfbench
