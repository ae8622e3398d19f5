// Scalability bench (beyond the paper's figures): how the algorithms scale
// with population size N and time-domain length T on a controlled workload,
// and what parallel refinement buys. The paper's evaluation fixes its four
// datasets; a library release needs the growth curves.
//
// Also emits BENCH_hotpath.json (override with --json PATH): the
// machine-readable hot-path numbers — per-snapshot clustering and the
// candidate step, reference vs optimized shapes, the CuTS* filter phase in
// isolation (reference merge scan vs SoA-scalar vs SoA+SIMD kernels), plus
// end-to-end CMC and CuTS* at N = 1000 (untraced and with a full
// TraceSession attached, so tracing overhead is tracked across PRs) — and
// the per-phase wall-clock breakdown of a traced CuTS* engine run from the
// obs/ span aggregates. Schema:
//   { "schema": "convoy-bench-hotpath-v3",
//     "results": [ {"bench": str, "n": int, "threads": int,
//                   "ns_per_op": float}, ... ],
//     "phases": [ {"name": str, "count": int, "total_ms": float}, ... ] }

#include <fstream>
#include <thread>

#include "bench/bench_common.h"
#include "tests/reference_impl.h"
#include "traj/interpolate.h"

namespace {

convoy::ScenarioConfig BaseConfig(size_t n, convoy::Tick t) {
  convoy::ScenarioConfig c = convoy::CarLikeConfig(1.0);
  c.num_objects = n;
  c.time_domain = t;
  c.lifetime_fraction = std::min(1.0, 500.0 / static_cast<double>(t));
  c.num_groups = std::max<size_t>(2, n / 40);
  c.query.k = 120;
  c.group_duration_min = 150;
  c.group_duration_max = 400;
  return c;
}

/// Accumulates (bench, n, threads, ns/op) rows and writes the JSON file.
struct HotpathReport {
  struct Row {
    std::string bench;
    size_t n;
    size_t threads;
    double ns_per_op;
  };
  std::vector<Row> rows;
  /// Span aggregates of the traced CuTS* engine run (wall-clock; not a
  /// cross-PR regression signal, a where-does-the-time-go map).
  std::vector<convoy::QueryMetrics::SpanAggregate> phases;

  void Add(const std::string& bench, size_t n, size_t threads,
           double ns_per_op) {
    rows.push_back(Row{bench, n, threads, ns_per_op});
  }

  double NsOf(const std::string& bench) const {
    for (const Row& r : rows) {
      if (r.bench == bench) return r.ns_per_op;
    }
    return 0.0;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"schema\": \"convoy-bench-hotpath-v3\",\n  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"bench\": \"" << rows[i].bench << "\", \"n\": "
          << rows[i].n << ", \"threads\": " << rows[i].threads
          << ", \"ns_per_op\": " << rows[i].ns_per_op << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"phases\": [\n";
    for (size_t i = 0; i < phases.size(); ++i) {
      out << "    {\"name\": \"" << phases[i].name << "\", \"count\": "
          << phases[i].count << ", \"total_ms\": " << phases[i].total_ms
          << "}" << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }
};

/// The pre-PR-5 per-snapshot clustering shape, mirrored from the retained
/// reference pieces: hash-grid DBSCAN with per-call allocations, clusters
/// out as sorted object-id lists (exactly what ClusterSnapshot produces).
std::vector<std::vector<convoy::ObjectId>> ReferenceClusterSnapshot(
    const std::vector<convoy::Point>& points,
    const std::vector<convoy::ObjectId>& ids, const convoy::ConvoyQuery& q) {
  using namespace convoy;
  if (points.size() < q.m) return {};
  const Clustering clustering =
      reference::ReferenceDbscan(points, q.e, q.m);
  std::vector<std::vector<ObjectId>> out;
  out.reserve(clustering.clusters.size());
  for (const std::vector<size_t>& cluster : clustering.clusters) {
    std::vector<ObjectId> members;
    members.reserve(cluster.size());
    for (const size_t idx : cluster) members.push_back(ids[idx]);
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  return out;
}

/// End-to-end CMC built on the reference pieces only (hash grid, deque
/// DBSCAN, ordered-map candidate step) — the pre-PR-5 execution shape.
std::vector<convoy::Convoy> ReferenceCmcRun(const convoy::TrajectoryDatabase& db,
                                            const convoy::ConvoyQuery& query) {
  using namespace convoy;
  reference::ReferenceCandidateTracker tracker(query.m, query.k);
  std::vector<Candidate> completed;
  std::vector<Point> snapshot;
  std::vector<ObjectId> ids;
  for (Tick t = db.BeginTick(); t <= db.EndTick(); ++t) {
    snapshot.clear();
    ids.clear();
    for (const Trajectory& traj : db.trajectories()) {
      const auto pos = InterpolateAt(traj, t);
      if (!pos.has_value()) continue;
      snapshot.push_back(*pos);
      ids.push_back(traj.id());
    }
    tracker.Advance(ReferenceClusterSnapshot(snapshot, ids, query), t, t, 1,
                    &completed);
  }
  tracker.Flush(&completed);
  return FinalizeCmcResult(completed, CmcOptions{});
}

void RunHotpathSection(const convoy::bench::BenchOptions& opts) {
  using namespace convoy;
  using namespace convoy::bench;
  HotpathReport report;
  const int mult = opts.full ? 3 : 1;

  // ---- per-snapshot clustering, N = 1000 --------------------------------
  {
    Rng rng(7);
    std::vector<Point> points;
    std::vector<ObjectId> ids;
    for (size_t i = 0; i < 1000; ++i) {
      points.emplace_back(rng.Uniform(0, 300), rng.Uniform(0, 300));
      ids.push_back(static_cast<ObjectId>(i));
    }
    ConvoyQuery q;
    q.m = 3;
    q.k = 2;
    q.e = 10.0;

    size_t sink = 0;
    const int ref_iters = 100 * mult;
    Stopwatch ref_watch;
    for (int i = 0; i < ref_iters; ++i) {
      sink += ReferenceClusterSnapshot(points, ids, q).size();
    }
    report.Add("snapshot_cluster_reference", 1000, 1,
               ref_watch.ElapsedSeconds() * 1e9 / ref_iters);

    DbscanScratch scratch;
    FlatClusters clusters;
    const int opt_iters = 200 * mult;
    Stopwatch opt_watch;
    for (int i = 0; i < opt_iters; ++i) {
      clusters.Clear();
      ClusterSnapshot(points, ids, q, &scratch, &clusters);
      sink += clusters.Step(0).size();
    }
    report.Add("snapshot_cluster_csr_arena", 1000, 1,
               opt_watch.ElapsedSeconds() * 1e9 / opt_iters);
    if (sink == 0) std::cout << "";  // keep the loops observable

    // ---- grid build alone, same snapshot --------------------------------
    const int grid_iters = 400 * mult;
    Stopwatch ref_grid;
    for (int i = 0; i < grid_iters; ++i) {
      reference::ReferenceGridIndex g(points, q.e);
      sink += g.NumPoints();
    }
    report.Add("grid_build_reference", 1000, 1,
               ref_grid.ElapsedSeconds() * 1e9 / grid_iters);
    Stopwatch opt_grid;
    for (int i = 0; i < grid_iters; ++i) {
      scratch.grid.Assign(points, q.e);
      sink += scratch.grid.NumPoints();
    }
    report.Add("grid_build_csr_arena", 1000, 1,
               opt_grid.ElapsedSeconds() * 1e9 / grid_iters);
  }

  // ---- candidate step, synthetic 1000-object stream ---------------------
  {
    // 50 disjoint clusters of 20 objects, drifting one object per step —
    // the live set stays saturated, the shape CMC's tracker sees on a
    // large convoy-rich tick.
    const size_t universe = 1000;
    const auto clusters_at = [&](Tick t) {
      std::vector<std::vector<ObjectId>> clusters;
      for (size_t c = 0; c < 50; ++c) {
        std::vector<ObjectId> members;
        for (size_t j = 0; j < 20; ++j) {
          members.push_back(static_cast<ObjectId>(
              (c * 20 + j + (j == 0 ? t : 0)) % universe));
        }
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        clusters.push_back(std::move(members));
      }
      return clusters;
    };
    // The drifted member can collide with another cluster's range; keep
    // the step's clusters disjoint the way DBSCAN guarantees.
    const auto disjoint_clusters_at = [&](Tick t) {
      auto clusters = clusters_at(t);
      std::vector<bool> seen(universe, false);
      for (auto& cluster : clusters) {
        std::vector<ObjectId> kept;
        for (ObjectId id : cluster) {
          if (!seen[id]) {
            seen[id] = true;
            kept.push_back(id);
          }
        }
        cluster = std::move(kept);
      }
      return clusters;
    };

    // Generate every step's clusters up front: the timed region must
    // contain Advance and nothing else, or the generator cost floors the
    // cross-PR metric and dampens real tracker regressions.
    const Tick steps = 60;
    std::vector<std::vector<std::vector<ObjectId>>> step_clusters;
    FlatClusters step_flat;  // the same steps as CandidateTracker reads them
    for (Tick t = 0; t < steps; ++t) {
      step_clusters.push_back(disjoint_clusters_at(t));
      step_flat.AddStep(step_clusters.back());
    }
    const int adv_iters = 3 * mult;
    Stopwatch ref_watch;
    for (int i = 0; i < adv_iters; ++i) {
      reference::ReferenceCandidateTracker tracker(3, 10);
      std::vector<Candidate> done;
      for (Tick t = 0; t < steps; ++t) {
        tracker.Advance(step_clusters[static_cast<size_t>(t)], t, t, 1,
                        &done);
      }
    }
    report.Add("candidate_advance_reference", 1000, 1,
               ref_watch.ElapsedSeconds() * 1e9 /
                   (adv_iters * static_cast<int>(steps)));
    Stopwatch opt_watch;
    for (int i = 0; i < adv_iters; ++i) {
      CandidateTracker tracker(3, 10);
      std::vector<Candidate> done;
      for (Tick t = 0; t < steps; ++t) {
        tracker.Advance(step_flat.Step(static_cast<size_t>(t)), t, t, 1,
                        &done);
      }
    }
    report.Add("candidate_advance_label", 1000, 1,
               opt_watch.ElapsedSeconds() * 1e9 /
                   (adv_iters * static_cast<int>(steps)));
  }

  // ---- end-to-end CMC, N = 1000 -----------------------------------------
  {
    ScenarioConfig c = CarLikeConfig(1.0);
    c.num_objects = 1000;
    c.time_domain = 300;
    c.lifetime_fraction = 1.0;
    c.num_groups = 25;
    c.query.k = 60;
    c.group_duration_min = 80;
    c.group_duration_max = 200;
    const ScenarioData data = GenerateScenario(c, opts.seed);

    const int iters = 2 * mult;
    size_t ref_convoys = 0;
    Stopwatch ref_watch;
    for (int i = 0; i < iters; ++i) {
      ref_convoys = ReferenceCmcRun(data.db, data.query).size();
    }
    report.Add("cmc_e2e_reference", 1000, 1,
               ref_watch.ElapsedSeconds() * 1e9 / iters);

    size_t opt_convoys = 0;
    Stopwatch opt_watch;
    for (int i = 0; i < iters; ++i) {
      opt_convoys = Cmc(data.db, data.query).size();
    }
    report.Add("cmc_e2e_optimized", 1000, 1,
               opt_watch.ElapsedSeconds() * 1e9 / iters);
    if (ref_convoys != opt_convoys) {
      std::cout << "WARNING: reference and optimized CMC disagree ("
                << ref_convoys << " vs " << opt_convoys << " convoys)\n";
    }

    // CuTS* end-to-end on the same dataset. No in-binary reference pair —
    // a faithful pre-rewrite CuTS would mean retaining the whole filter —
    // so this row is the absolute number the cross-PR trajectory tracks
    // (the filter's candidate step and the refinement's CmcRange both sit
    // on the rebuilt hot path).
    Stopwatch cuts_watch;
    size_t cuts_convoys = 0;
    for (int i = 0; i < iters; ++i) {
      cuts_convoys = Cuts(data.db, data.query).size();
    }
    report.Add("cuts_star_e2e_optimized", 1000, 1,
               cuts_watch.ElapsedSeconds() * 1e9 / iters);
    if (cuts_convoys == 0 && opt_convoys != 0) {
      std::cout << "WARNING: CuTS* found no convoys where CMC did\n";
    }

    // ---- CuTS* filter phase alone: reference vs SoA vs SIMD -------------
    // Isolates the filter rewrite. The reference row replays the
    // pre-rewrite shape (vector-of-segments polylines + PolylineDbscan's
    // merge scan, rebuilt per partition); the soa row runs the rewritten
    // filter with the kernels forced scalar (SoA storage + arena scratch,
    // no vectorization); the simd row lifts the force. All three produce
    // the same candidate set.
    {
      CutsFilterOptions fopts = MakeFilterOptions(CutsVariant::kCutsStar);
      const double delta = ComputeDelta(data.db, data.query.e);
      const std::vector<SimplifiedTrajectory> simplified =
          SimplifyDatabase(data.db, delta, fopts.simplifier, 1);
      ConvoyQuery q = data.query;
      q.num_threads = 1;
      const Tick lambda =
          std::max<Tick>(ComputeLambda(data.db, simplified, q.k), 1);
      fopts.delta = delta;
      fopts.lambda = lambda;

      const auto reference_filter = [&]() {
        CandidateTracker tracker(q.m, q.k);
        std::vector<Candidate> candidates;
        PolylineDbscanOptions copts;
        copts.eps = q.e;
        copts.min_pts = q.m;
        copts.distance = fopts.distance;
        copts.use_box_pruning = fopts.use_box_pruning;
        for (Tick ps = data.db.BeginTick(); ps <= data.db.EndTick();
             ps += lambda) {
          const Tick pe = std::min<Tick>(ps + lambda - 1, data.db.EndTick());
          const std::vector<reference::PartitionPolyline> polylines =
              reference::BuildPartitionPolylines(
                  simplified, ps, pe, fopts.use_actual_tolerance, delta);
          std::vector<std::vector<ObjectId>> clusters;
          if (polylines.size() >= q.m) {
            const Clustering clustering =
                reference::PolylineDbscan(polylines, copts);
            for (const std::vector<size_t>& cluster : clustering.clusters) {
              std::vector<ObjectId> ids;
              ids.reserve(cluster.size());
              for (const size_t idx : cluster) {
                ids.push_back(polylines[idx].object);
              }
              std::sort(ids.begin(), ids.end());
              clusters.push_back(std::move(ids));
            }
          }
          FlatClusters step;
          step.AddStep(clusters);
          tracker.Advance(step.Step(0), ps, pe, lambda, &candidates);
        }
        tracker.Flush(&candidates);
        return candidates.size();
      };
      const auto rewritten_filter = [&]() {
        return CutsFilterPresimplified(data.db, q, fopts, simplified, delta,
                                       nullptr)
            .candidates.size();
      };

      const int filter_iters = 5 * mult;
      size_t ref_cands = 0;
      Stopwatch fref;
      for (int i = 0; i < filter_iters; ++i) ref_cands = reference_filter();
      report.Add("cuts_filter_reference", 1000, 1,
                 fref.ElapsedSeconds() * 1e9 / filter_iters);

      simd::ForceScalar(true);
      size_t soa_cands = 0;
      Stopwatch fsoa;
      for (int i = 0; i < filter_iters; ++i) soa_cands = rewritten_filter();
      report.Add("cuts_filter_soa", 1000, 1,
                 fsoa.ElapsedSeconds() * 1e9 / filter_iters);
      simd::ForceScalar(false);

      size_t simd_cands = 0;
      Stopwatch fsimd;
      for (int i = 0; i < filter_iters; ++i) simd_cands = rewritten_filter();
      report.Add("cuts_filter_simd", 1000, 1,
                 fsimd.ElapsedSeconds() * 1e9 / filter_iters);

      if (ref_cands != soa_cands || soa_cands != simd_cands) {
        std::cout << "WARNING: filter paths disagree on candidates ("
                  << ref_cands << " ref vs " << soa_cands << " soa vs "
                  << simd_cands << " simd)\n";
      }
    }

    // ---- tracing overhead + per-phase breakdown ------------------------
    // Same CMC workload with a full TraceSession attached: the delta vs
    // cmc_e2e_optimized is the all-in instrumentation cost (acceptance:
    // within a few percent — counters fold once per tick, never per
    // point). One session spans all iterations; span aggregates only grow.
    {
      TraceSession cmc_trace;
      ExecHooks traced_hooks;
      traced_hooks.trace = &cmc_trace;
      size_t traced_convoys = 0;
      Stopwatch traced_watch;
      for (int i = 0; i < iters; ++i) {
        traced_convoys =
            Cmc(data.db, data.query, {}, nullptr, &traced_hooks).size();
      }
      report.Add("cmc_e2e_traced", 1000, 1,
                 traced_watch.ElapsedSeconds() * 1e9 / iters);
      if (traced_convoys != opt_convoys) {
        std::cout << "WARNING: traced and untraced CMC disagree ("
                  << traced_convoys << " vs " << opt_convoys
                  << " convoys)\n";
      }
    }
    // A traced CuTS* run through the engine covers every instrumented
    // phase (prepare, simplify, filter, refine, finalize) — the span
    // aggregates become the "phases" section of the JSON report.
    {
      ConvoyEngine engine(data.db);
      TraceSession trace;
      const auto plan = engine.Prepare(data.query, AlgorithmChoice::kCutsStar,
                                       {}, {}, &trace);
      ExecHooks hooks;
      hooks.trace = &trace;
      const auto traced = engine.Execute(plan.value(), hooks);
      report.phases = traced.value().metrics().spans;
    }
  }

  PrintHeader("Hot path: reference vs optimized (ns/op)");
  PrintRow({{"bench", 30}, {"reference", 14}, {"optimized", 14},
            {"speedup", 9}});
  PrintRule(67);
  const auto print_pair = [&](const std::string& label,
                              const std::string& ref_key,
                              const std::string& opt_key) {
    const double ref = report.NsOf(ref_key);
    const double opt = report.NsOf(opt_key);
    PrintRow({{label, 30},
              {Fmt(ref, 0), 14},
              {Fmt(opt, 0), 14},
              {Fmt(ref / std::max(1.0, opt), 2) + "x", 9}});
  };
  print_pair("snapshot cluster (N=1000)", "snapshot_cluster_reference",
             "snapshot_cluster_csr_arena");
  print_pair("grid build (N=1000)", "grid_build_reference",
             "grid_build_csr_arena");
  print_pair("candidate advance (1k obj)", "candidate_advance_reference",
             "candidate_advance_label");
  print_pair("CMC end-to-end (N=1000)", "cmc_e2e_reference",
             "cmc_e2e_optimized");
  print_pair("CuTS* filter: SoA+arena", "cuts_filter_reference",
             "cuts_filter_soa");
  print_pair("CuTS* filter: SoA+SIMD", "cuts_filter_reference",
             "cuts_filter_simd");
  std::cout << "\nactive distance-kernel ISA: " << simd::ActiveKernelIsa()
            << " (CuTS* e2e at N=1000: "
            << Fmt(report.NsOf("cuts_star_e2e_optimized") / 1e6, 1)
            << " ms)\n";

  const double untraced = report.NsOf("cmc_e2e_optimized");
  const double traced = report.NsOf("cmc_e2e_traced");
  std::cout << "\ntracing overhead (CMC e2e, N=1000, full TraceSession): "
            << Fmt((traced / std::max(1.0, untraced) - 1.0) * 100.0, 1)
            << "%\n";

  PrintHeader("Per-phase breakdown (traced CuTS* engine run, N = 1000)");
  PrintRow({{"phase", 24}, {"count", 10}, {"total ms", 12}});
  PrintRule(46);
  for (const auto& phase : report.phases) {
    PrintRow({{phase.name, 24}, {std::to_string(phase.count), 10},
              {Fmt(phase.total_ms, 2), 12}});
  }

  if (!opts.json_path.empty()) {
    if (report.Write(opts.json_path)) {
      std::cout << "\nwrote " << opts.json_path << " ("
                << report.rows.size() << " results)\n";
    } else {
      std::cout << "\nWARNING: could not write " << opts.json_path << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace convoy;
  using namespace convoy::bench;
  const BenchOptions opts = ParseArgs(argc, argv);
  const double mult = opts.full ? 2.0 : 1.0;

  PrintHeader("Scalability in N (T = 1500, seconds)");
  PrintRow({{"N", 8}, {"CMC", 12}, {"CuTS*", 12}, {"speedup", 10},
            {"convoys", 10}});
  PrintRule(52);
  for (const size_t n :
       {size_t(64), size_t(128), size_t(256),
        static_cast<size_t>(512 * mult)}) {
    const BenchDataset ds = PrepareDataset(
        BaseConfig(n, static_cast<Tick>(1500)), opts.seed + n);
    DiscoveryStats cmc_stats;
    const auto cmc = Cmc(ds.data.db, ds.data.query, {}, &cmc_stats);
    DiscoveryStats cuts_stats;
    const auto cuts = RunVariant(ds, CutsVariant::kCutsStar, &cuts_stats);
    PrintRow({{std::to_string(n), 8},
              {Fmt(cmc_stats.total_seconds, 3), 12},
              {Fmt(cuts_stats.total_seconds, 3), 12},
              {Fmt(cmc_stats.total_seconds /
                       std::max(1e-9, cuts_stats.total_seconds), 1) + "x",
               10},
              {std::to_string(cuts.size()), 10}});
  }

  PrintHeader("Scalability in T (N = 128, seconds)");
  PrintRow({{"T", 8}, {"CMC", 12}, {"CuTS*", 12}, {"speedup", 10}});
  PrintRule(42);
  for (const Tick t :
       {Tick{1000}, Tick{2000}, Tick{4000},
        static_cast<Tick>(8000 * mult)}) {
    const BenchDataset ds = PrepareDataset(
        BaseConfig(128, t), opts.seed + static_cast<uint64_t>(t));
    DiscoveryStats cmc_stats;
    (void)Cmc(ds.data.db, ds.data.query, {}, &cmc_stats);
    DiscoveryStats cuts_stats;
    (void)RunVariant(ds, CutsVariant::kCutsStar, &cuts_stats);
    PrintRow({{std::to_string(t), 8},
              {Fmt(cmc_stats.total_seconds, 3), 12},
              {Fmt(cuts_stats.total_seconds, 3), 12},
              {Fmt(cmc_stats.total_seconds /
                       std::max(1e-9, cuts_stats.total_seconds), 1) + "x",
               10}});
  }

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  PrintHeader("Thread sweep (default scenario, N = 128, T = 1200; " +
              std::to_string(hw) + " hardware thread(s))");
  PrintRow({{"threads", 10}, {"CMC(s)", 10}, {"speedup", 9}, {"CuTS(s)", 10},
            {"speedup", 9}, {"refine(s)", 11}, {"convoys", 9}});
  PrintRule(68);
  const BenchDataset ds =
      PrepareDataset(BaseConfig(128, 1200), opts.seed + 77);
  // --threads N narrows the sweep to {1, N} (the CI 2x-speedup check);
  // the default sweeps the ladder the ROADMAP tracks across PRs.
  std::vector<size_t> sweep = {1, 2, 4, 8};
  if (opts.threads > 1) sweep = {size_t(1), opts.threads};
  double cmc_serial = 0.0;
  double cuts_serial = 0.0;
  for (const size_t threads : sweep) {
    ConvoyQuery threaded = ds.data.query;
    threaded.num_threads = threads;
    DiscoveryStats cmc_stats;
    (void)Cmc(ds.data.db, threaded, {}, &cmc_stats);
    DiscoveryStats stats;
    const auto result = Cuts(ds.data.db, threaded, CutsVariant::kCuts,
                             FilterOptionsFor(ds), &stats);
    if (threads == 1) {
      cmc_serial = cmc_stats.total_seconds;
      cuts_serial = stats.total_seconds;
    }
    PrintRow({{std::to_string(threads), 10},
              {Fmt(cmc_stats.total_seconds, 3), 10},
              {Fmt(cmc_serial / std::max(1e-9, cmc_stats.total_seconds), 2) +
                   "x", 9},
              {Fmt(stats.total_seconds, 3), 10},
              {Fmt(cuts_serial / std::max(1e-9, stats.total_seconds), 2) +
                   "x", 9},
              {Fmt(stats.refine_seconds, 3), 11},
              {std::to_string(result.size()), 9}});
  }
  // ------------------------------------------------------------------------
  // Planner overhead: Prepare+Execute per query vs. re-Executing one
  // prepared plan, on the same engine and seeded database with the
  // simplification cache warm, so the difference is the planning cost a
  // reused plan no longer pays.
  PrintHeader("Planner overhead (cache warm, ms/query, " +
              std::string("N = 96, T = 800)"));
  const BenchDataset pds = PrepareDataset(BaseConfig(96, 800), opts.seed + 123);
  const ConvoyEngine engine(pds.data.db);
  const ConvoyQuery pq = pds.data.query;
  (void)engine.Prepare(pq);  // prime the simplification cache
  const int iters = opts.full ? 20 : 8;

  Stopwatch prepare_watch;
  size_t planned_convoys = 0;
  for (int i = 0; i < iters; ++i) {
    const auto plan = engine.Prepare(pq);
    const auto result = engine.Execute(plan.value());
    planned_convoys = result.value().Count();
  }
  const double planned_ms = prepare_watch.ElapsedSeconds() * 1e3 / iters;

  // Re-executing one prepared plan is the sweep-style usage Prepare exists
  // for: planning cost paid once, execution repeated.
  const auto reused_plan = engine.Prepare(pq);
  Stopwatch execute_watch;
  for (int i = 0; i < iters; ++i) {
    (void)engine.Execute(reused_plan.value());
  }
  const double execute_ms = execute_watch.ElapsedSeconds() * 1e3 / iters;

  PrintRow({{"path", 24}, {"ms/query", 12}, {"overhead", 12},
            {"convoys", 9}});
  PrintRule(57);
  PrintRow({{"Prepare+Execute", 24}, {Fmt(planned_ms, 3), 12},
            {Fmt(planned_ms - execute_ms, 3), 12},
            {std::to_string(planned_convoys), 9}});
  PrintRow({{"Execute (plan reused)", 24}, {Fmt(execute_ms, 3), 12},
            {"-", 12}, {std::to_string(planned_convoys), 9}});

  // ------------------------------------------------------------------------
  // Build-once, query-N: the SnapshotStore and the clustering memo. The
  // row-oriented path re-derives every per-tick snapshot on each call
  // (interpolation, alive-object scan, fresh GridIndex); the engine's
  // store pays the derivation once at Prepare, and the first Execute
  // files every tick's clusters in the memo, so warm re-Executes of a CMC
  // plan cluster nothing and re-run only the candidate tracker. Warm must
  // stay measurably below the per-call path.
  PrintHeader("Build-once query-N (CMC plan, N = 96, T = 800, ms/query)");
  const BenchDataset cds =
      PrepareDataset(BaseConfig(96, 800), opts.seed + 321);
  const ConvoyQuery cq = cds.data.query;
  const int cmc_iters = opts.full ? 10 : 5;

  Stopwatch rowpath_watch;
  size_t rowpath_convoys = 0;
  for (int i = 0; i < cmc_iters; ++i) {
    rowpath_convoys = Cmc(cds.data.db, cq).size();
  }
  const double rowpath_ms =
      rowpath_watch.ElapsedSeconds() * 1e3 / cmc_iters;

  const ConvoyEngine cmc_engine(cds.data.db);
  Stopwatch prepare_store_watch;
  const auto cmc_plan = cmc_engine.Prepare(cq, AlgorithmChoice::kCmc);
  const double prepare_store_ms =
      prepare_store_watch.ElapsedSeconds() * 1e3;

  Stopwatch cold_watch;  // store built, clustering memo still empty
  size_t store_convoys = cmc_engine.Execute(cmc_plan.value()).value().Count();
  const double cold_ms = cold_watch.ElapsedSeconds() * 1e3;

  Stopwatch warm_store_watch;  // every tick served by the memo
  for (int i = 0; i < cmc_iters; ++i) {
    store_convoys = cmc_engine.Execute(cmc_plan.value()).value().Count();
  }
  const double warm_ms =
      warm_store_watch.ElapsedSeconds() * 1e3 / cmc_iters;

  PrintRow({{"path", 30}, {"ms/query", 12}, {"vs row path", 12},
            {"convoys", 9}});
  PrintRule(63);
  PrintRow({{"Cmc() per call (row path)", 30}, {Fmt(rowpath_ms, 3), 12},
            {"1.0x", 12}, {std::to_string(rowpath_convoys), 9}});
  PrintRow({{"Prepare (incl. store build)", 30},
            {Fmt(prepare_store_ms, 3), 12}, {"once", 12}, {"-", 9}});
  PrintRow({{"Execute #1 (memo miss)", 30}, {Fmt(cold_ms, 3), 12},
            {Fmt(rowpath_ms / std::max(1e-9, cold_ms), 2) + "x", 12},
            {std::to_string(store_convoys), 9}});
  PrintRow({{"Execute warm (memo hit)", 30}, {Fmt(warm_ms, 3), 12},
            {Fmt(rowpath_ms / std::max(1e-9, warm_ms), 2) + "x", 12},
            {std::to_string(store_convoys), 9}});

  RunHotpathSection(opts);

  std::cout << "\nshape: CuTS*'s advantage over CMC grows with N (snapshot "
               "clustering cost)\nand stays roughly constant in T (both "
               "scale linearly). Snapshot clustering,\npartition filtering, "
               "and refinement all parallelize across independent\nunits of "
               "work with identical results — on a single-core host the "
               "extra\nthreads only add scheduling overhead, so expect "
               "speedup only when\nhardware threads > 1.\n";
  return 0;
}
