#include "core/cuts_filter.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "cluster/polyline_soa.h"
#include "core/cluster_memo.h"
#include "core/cmc.h"
#include "core/params.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "traj/snapshot_store.h"
#include "util/stopwatch.h"

namespace convoy {

std::vector<PartitionPolyline> BuildPartitionPolylines(
    const std::vector<SimplifiedTrajectory>& simplified, Tick part_start,
    Tick part_end, bool use_actual_tolerance, double delta_used) {
  std::vector<PartitionPolyline> polylines;
  for (const SimplifiedTrajectory& simp : simplified) {
    PartitionPolyline poly;
    poly.object = simp.id();
    if (simp.NumSegments() == 0) {
      // Single-sample trajectory: represent it as a degenerate zero-
      // length segment so the filter can still see the object (a
      // one-tick convoy through it must not be dismissed).
      if (simp.NumVertices() != 1) continue;
      const TimedPoint& v = simp.vertices().front();
      if (v.t < part_start || v.t > part_end) continue;
      poly.segments.push_back(TimedSegment(v, v));
      poly.tolerances.push_back(0.0);
    } else {
      const auto range = simp.SegmentsIntersecting(part_start, part_end);
      if (!range.has_value()) continue;
      for (size_t s = range->first; s <= range->second; ++s) {
        poly.segments.push_back(simp.GetSegment(s));
        poly.tolerances.push_back(use_actual_tolerance
                                      ? simp.SegmentTolerance(s)
                                      : delta_used);
      }
    }
    poly.FinalizeBounds();
    polylines.push_back(std::move(poly));
  }
  return polylines;
}

namespace {

// The result of clustering one time partition: the object-id clusters the
// tracker consumes, as one owned step (a partition clustered on a worker
// outlives the worker's arena until it is consumed), plus per-partition
// stats so parallel runs can aggregate them deterministically (in
// partition order).
struct PartitionClusters {
  FlatClusters clusters;
  PolylineClusterStats cluster_stats;
  size_t num_polylines = 0;
  bool clustered = false;
};

// `scratch` is the worker's arena: the SoA storage and every clustering
// buffer live there and are reused across the partitions one worker
// processes, so the steady-state hot path performs no allocations.
PartitionClusters ClusterPartition(
    const std::vector<SimplifiedTrajectory>& simplified, Tick part_start,
    Tick part_end, const ConvoyQuery& query, const CutsFilterOptions& options,
    double delta_used, PolylineDbscanScratch* scratch) {
  PartitionClusters out;
  BuildPolylineSoa(simplified, part_start, part_end,
                   options.use_actual_tolerance, delta_used, &scratch->soa);
  out.num_polylines = scratch->soa.NumPolylines();
  if (out.num_polylines < query.m) {
    out.clusters.AddStep(ClusterSpans());
    return out;
  }

  PolylineDbscanOptions cluster_options;
  cluster_options.eps = query.e;
  cluster_options.min_pts = query.m;
  cluster_options.distance = options.distance;
  cluster_options.use_box_pruning = options.use_box_pruning;

  const Clustering clustering =
      PolylineDbscanSoa(cluster_options, scratch, &out.cluster_stats);
  out.clustered = true;
  // One polyline per object and DBSCAN partitions are disjoint, so the
  // partition's object-id clusters are disjoint sorted sets — the invariant
  // CandidateTracker::Advance's labeled single-pass intersection relies on
  // (overlap would silently demote it to the pairwise fallback).
  out.clusters.AddStep(clustering.clusters, scratch->soa.object.data());
  return out;
}

// The filter's time partitions: [begin, end] cut into runs of `length`
// ticks from begin, the last one possibly shorter; none when end < begin
// (a database of empty trajectories). Bounds derive from the partition
// index in unsigned arithmetic, so a domain at the top of the tick range
// cannot overflow. Precondition: length >= 1.
struct Partitioning {
  Tick begin;
  Tick end;
  Tick length;

  size_t Count() const {
    if (end < begin) return 0;
    return static_cast<size_t>((static_cast<uint64_t>(end) -
                                static_cast<uint64_t>(begin)) /
                               static_cast<uint64_t>(length)) +
           1;
  }
  Tick First(size_t p) const {
    return static_cast<Tick>(static_cast<uint64_t>(begin) +
                             p * static_cast<uint64_t>(length));
  }
  Tick Last(size_t p) const {
    const uint64_t first = static_cast<uint64_t>(First(p));
    const uint64_t left = static_cast<uint64_t>(end) - first;
    return static_cast<Tick>(
        first + std::min(left, static_cast<uint64_t>(length) - 1));
  }
};

// The clustering half of the filter: the partitions are clustered
// (concurrently when asked to — partitions are independent, and each
// worker chunk clusters out of one reused scratch arena) and collected in
// partition order, so the result and every count are the same at every
// thread count.
FilterClusters ClusterPartitions(
    const std::vector<SimplifiedTrajectory>& simplified,
    const Partitioning& parts, const ConvoyQuery& query,
    const CutsFilterOptions& options, double delta_used,
    DiscoveryStats* stats, TraceSession* trace) {
  FilterClusters out;
  const size_t count = parts.Count();
  out.members.begin = parts.begin;
  out.members.length = parts.length;
  out.members.offsets.reserve(count + 1);
  PolylineClusterStats cluster_stats;
  size_t num_clusterings = 0;
  OrderedParallelFor(
      count, query.num_threads, kSmallUnits,
      [] { return PolylineDbscanScratch(); },
      [&](PolylineDbscanScratch& scratch, size_t p) {
        ScopedSpan span(trace, "filter.partition");
        return ClusterPartition(simplified, parts.First(p), parts.Last(p),
                                query, options, delta_used, &scratch);
      },
      [&](size_t, const PartitionClusters& part) {
        TraceCount(trace, TraceCounter::kFilterPartitions, 1);
        TraceCount(trace, TraceCounter::kFilterPolylines, part.num_polylines);
        TraceCount(trace, TraceCounter::kFilterSegmentTests,
                   part.cluster_stats.segment_tests);
        TraceCount(trace, TraceCounter::kFilterMbrRejects,
                   part.cluster_stats.mbr_rejects);
        if (part.clustered) ++num_clusterings;
        cluster_stats.pair_tests += part.cluster_stats.pair_tests;
        cluster_stats.box_pruned += part.cluster_stats.box_pruned;
        cluster_stats.segment_tests += part.cluster_stats.segment_tests;
        cluster_stats.mbr_rejects += part.cluster_stats.mbr_rejects;
        const ClusterSpans clusters = part.clusters.Step(0);
        out.partitions.AddStep(clusters);
        // The partition's clusters are disjoint, so their union is their
        // concatenation.
        std::vector<ObjectId>& ids = out.members.ids;
        const size_t first = ids.size();
        for (size_t c = 0; c < clusters.size(); ++c) {
          ids.insert(ids.end(), clusters[c].begin(), clusters[c].end());
        }
        std::sort(ids.begin() + static_cast<std::ptrdiff_t>(first),
                  ids.end());
        out.members.offsets.push_back(ids.size());
      });
  if (stats != nullptr) {
    stats->num_clusterings += num_clusterings;
    stats->polyline_pair_tests += cluster_stats.pair_tests;
    stats->polyline_box_pruned += cluster_stats.box_pruned;
    stats->segment_distance_tests += cluster_stats.segment_tests;
    stats->segment_mbr_rejects += cluster_stats.mbr_rejects;
  }
  return out;
}

}  // namespace

size_t FilterClusters::Bytes() const {
  return partitions.Bytes() +
         members.offsets.capacity() * sizeof(size_t) +
         members.ids.capacity() * sizeof(ObjectId);
}

CutsFilterResult CutsFilter(const TrajectoryDatabase& db,
                            const ConvoyQuery& query,
                            const CutsFilterOptions& options,
                            DiscoveryStats* stats) {
  if (db.Empty()) return CutsFilterResult{};

  Stopwatch phase;
  const double delta =
      options.delta > 0.0 ? options.delta : ComputeDelta(db, query.e);
  const std::vector<SimplifiedTrajectory> simplified =
      SimplifyDatabase(db, delta, options.simplifier, query.num_threads);
  if (stats != nullptr) stats->simplify_seconds += phase.ElapsedSeconds();

  return CutsFilterPresimplified(db, query, options, simplified, delta, stats);
}

CutsFilterResult CutsFilterPresimplified(
    const TrajectoryDatabase& db, const ConvoyQuery& query,
    const CutsFilterOptions& options,
    const std::vector<SimplifiedTrajectory>& simplified, double delta_used,
    DiscoveryStats* stats, const ExecHooks* hooks,
    const SnapshotStore* store) {
  return CutsFilterWithMemo(db, query, options, simplified, delta_used,
                            /*memo=*/nullptr, stats, hooks, store);
}

CutsFilterResult CutsFilterWithMemo(
    const TrajectoryDatabase& db, const ConvoyQuery& query,
    const CutsFilterOptions& options,
    const std::vector<SimplifiedTrajectory>& simplified, double delta_used,
    const MemoSlot* memo, DiscoveryStats* stats, const ExecHooks* hooks,
    const SnapshotStore* store) {
  CutsFilterResult result;
  if (db.Empty()) return result;
  result.delta_used = delta_used;
  if (stats != nullptr) {
    stats->delta_used = result.delta_used;
    stats->vertex_reduction_percent = VertexReductionPercent(db, simplified);
  }

  // --- Filter phase ---------------------------------------------------------
  Stopwatch phase;
  result.lambda_used = options.lambda > 0
                           ? options.lambda
                           : ComputeLambda(db, simplified, query.k);
  if (stats != nullptr) stats->lambda_used = result.lambda_used;

  // The store materializes the time domain at build; without one, the
  // bounds cost a full trajectory scan each.
  const Partitioning parts{
      store != nullptr ? store->begin_tick() : db.BeginTick(),
      store != nullptr ? store->end_tick() : db.EndTick(),
      std::max<Tick>(result.lambda_used, 1)};

  // The clustering half, from the memo when it holds this key's.
  TraceSession* const trace = TraceOf(hooks);
  std::shared_ptr<const FilterClusters> held;
  if (memo != nullptr) {
    held = memo->memo->Filter(memo->key);
    TraceCount(trace,
               held != nullptr ? TraceCounter::kClusterMemoHits
                               : TraceCounter::kClusterMemoMisses,
               1);
  }
  FilterClusters computed;
  if (held == nullptr) {
    computed = ClusterPartitions(simplified, parts, query, options,
                                 result.delta_used, stats, trace);
    if (memo != nullptr) {
      computed.partitions.ShrinkToFit();
      computed.members.ids.shrink_to_fit();
      held = memo->memo->PublishFilter(
          memo->key, std::make_shared<const FilterClusters>(
                         std::move(computed)));
    }
  }
  const FilterClusters& clusters = held != nullptr ? *held : computed;

  // The tracking half: the candidate tracker advances over the partitions
  // in order, on this thread — one ordered pass, so the candidates are the
  // same at every thread count and with or without the memo.
  CandidateTracker tracker(query.m, query.k);
  for (size_t p = 0; p < clusters.partitions.NumSteps(); ++p) {
    tracker.Advance(clusters.partitions.Step(p), parts.First(p),
                    parts.Last(p), /*step_weight=*/parts.length,
                    &result.candidates);
  }
  tracker.Flush(&result.candidates);
  // Read once after the sequential pass — thread-count invariant.
  TraceTrackerTally(trace, tracker.tally());
  result.members =
      held != nullptr ? held->members : std::move(computed.members);

  if (stats != nullptr) {
    stats->filter_seconds += phase.ElapsedSeconds();
    stats->num_candidates = result.candidates.size();
    for (const Candidate& cand : result.candidates) {
      const double n = static_cast<double>(cand.objects.size());
      const double lifetime =
          static_cast<double>(cand.end_tick - cand.start_tick + 1);
      stats->refinement_unit += n * n * lifetime;
    }
  }
  return result;
}

}  // namespace convoy
