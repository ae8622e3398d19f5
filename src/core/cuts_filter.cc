#include "core/cuts_filter.h"

#include <algorithm>
#include <utility>

#include "cluster/polyline_soa.h"
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

// The result of clustering one time partition: the cluster object-id lists
// the tracker consumes, plus per-partition stats so parallel runs can
// aggregate them deterministically (in partition order).
struct PartitionClusters {
  std::vector<std::vector<ObjectId>> cluster_objects;
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
  if (out.num_polylines < query.m) return out;

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
  for (const std::vector<size_t>& cluster : clustering.clusters) {
    std::vector<ObjectId> ids;
    ids.reserve(cluster.size());
    for (const size_t idx : cluster) ids.push_back(scratch->soa.object[idx]);
    std::sort(ids.begin(), ids.end());
    out.cluster_objects.push_back(std::move(ids));
  }
  return out;
}

}  // namespace

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
  const Tick begin = store != nullptr ? store->begin_tick() : db.BeginTick();
  const Tick end = store != nullptr ? store->end_tick() : db.EndTick();
  const Tick lambda = std::max<Tick>(result.lambda_used, 1);

  std::vector<std::pair<Tick, Tick>> partitions;
  for (Tick part_start = begin; part_start <= end; part_start += lambda) {
    partitions.emplace_back(part_start,
                            std::min<Tick>(part_start + lambda - 1, end));
  }
  result.members.begin = begin;
  result.members.length = lambda;
  result.members.offsets.reserve(partitions.size() + 1);

  // Cluster the partitions (concurrently when asked to — partitions are
  // independent, and each worker chunk clusters out of one reused scratch
  // arena), then advance the candidate tracker in partition order on this
  // thread. The ordered tracker pass is what makes the parallel filter
  // bit-identical to the serial one.
  TraceSession* const trace = TraceOf(hooks);
  CandidateTracker tracker(query.m, query.k);
  PolylineClusterStats cluster_stats;
  size_t num_clusterings = 0;
  OrderedParallelFor(
      partitions.size(), query.num_threads, kSmallUnits,
      [] { return PolylineDbscanScratch(); },
      [&](PolylineDbscanScratch& scratch, size_t i) {
        ScopedSpan span(trace, "filter.partition");
        return ClusterPartition(simplified, partitions[i].first,
                                partitions[i].second, query, options,
                                result.delta_used, &scratch);
      },
      [&](size_t i, const PartitionClusters& part) {
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
        tracker.Advance(part.cluster_objects, partitions[i].first,
                        partitions[i].second, /*step_weight=*/lambda,
                        &result.candidates);
        // The partition's clusters are disjoint, so their union is their
        // concatenation.
        std::vector<ObjectId>& ids = result.members.ids;
        const size_t first = ids.size();
        for (const std::vector<ObjectId>& cluster : part.cluster_objects) {
          ids.insert(ids.end(), cluster.begin(), cluster.end());
        }
        std::sort(ids.begin() + static_cast<std::ptrdiff_t>(first),
                  ids.end());
        result.members.offsets.push_back(ids.size());
      });
  tracker.Flush(&result.candidates);
  // Read once after the sequential consume pass — thread-count invariant.
  TraceTrackerTally(trace, tracker.tally());

  if (stats != nullptr) {
    stats->filter_seconds += phase.ElapsedSeconds();
    stats->num_candidates = result.candidates.size();
    stats->num_clusterings += num_clusterings;
    stats->polyline_pair_tests += cluster_stats.pair_tests;
    stats->polyline_box_pruned += cluster_stats.box_pruned;
    stats->segment_distance_tests += cluster_stats.segment_tests;
    stats->segment_mbr_rejects += cluster_stats.mbr_rejects;
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
