#include "cluster/polyline_soa.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "geom/point.h"

namespace convoy {

void PolylineSoa::Clear() {
  object.clear();
  seg_start.clear();
  bminx.clear();
  bmaxx.clear();
  bminy.clear();
  bmaxy.clear();
  ptol.clear();
  x0.clear();
  y0.clear();
  x1.clear();
  y1.clear();
  t0.clear();
  t1.clear();
  sminx.clear();
  smaxx.clear();
  sminy.clear();
  smaxy.clear();
  stol.clear();
}

void PolylineSoa::PushSegment(double px0, double py0, double px1, double py1,
                              Tick tick0, Tick tick1, double tolerance) {
  x0.push_back(px0);
  y0.push_back(py0);
  x1.push_back(px1);
  y1.push_back(py1);
  t0.push_back(static_cast<double>(tick0));
  t1.push_back(static_cast<double>(tick1));
  sminx.push_back(std::min(px0, px1));
  smaxx.push_back(std::max(px0, px1));
  sminy.push_back(std::min(py0, py1));
  smaxy.push_back(std::max(py0, py1));
  stol.push_back(tolerance);
}

void PolylineSoa::FinalizePolyline(ObjectId id, size_t first_segment) {
  object.push_back(id);
  seg_start.push_back(static_cast<uint32_t>(x0.size()));
  // min over {min(x0,x1)} equals the min over all endpoints Box::Extend
  // takes — same doubles, so the bounds match FinalizeBounds bit-for-bit.
  double pminx = std::numeric_limits<double>::infinity();
  double pmaxx = -std::numeric_limits<double>::infinity();
  double pminy = std::numeric_limits<double>::infinity();
  double pmaxy = -std::numeric_limits<double>::infinity();
  double tol = 0.0;
  for (size_t s = first_segment; s < x0.size(); ++s) {
    pminx = std::min(pminx, sminx[s]);
    pmaxx = std::max(pmaxx, smaxx[s]);
    pminy = std::min(pminy, sminy[s]);
    pmaxy = std::max(pmaxy, smaxy[s]);
    tol = std::max(tol, stol[s]);
  }
  bminx.push_back(pminx);
  bmaxx.push_back(pmaxx);
  bminy.push_back(pminy);
  bmaxy.push_back(pmaxy);
  ptol.push_back(tol);
}

simd::SegmentSoa PolylineSoa::SegmentView() const {
  simd::SegmentSoa view;
  view.x0 = x0.data();
  view.y0 = y0.data();
  view.x1 = x1.data();
  view.y1 = y1.data();
  view.t0 = t0.data();
  view.t1 = t1.data();
  view.minx = sminx.data();
  view.maxx = smaxx.data();
  view.miny = sminy.data();
  view.maxy = smaxy.data();
  view.tol = stol.data();
  return view;
}

void BuildPolylineSoa(const std::vector<SimplifiedTrajectory>& simplified,
                      Tick part_start, Tick part_end,
                      bool use_actual_tolerance, double delta_used,
                      PolylineSoa* out) {
  out->Clear();
  out->seg_start.push_back(0);
  for (const SimplifiedTrajectory& simp : simplified) {
    const size_t first_segment = out->x0.size();
    if (simp.NumSegments() == 0) {
      // Single-sample trajectory: a degenerate zero-length segment keeps
      // the object visible to the filter (as the reference gather does).
      if (simp.NumVertices() != 1) continue;
      const TimedPoint& v = simp.vertices().front();
      if (v.t < part_start || v.t > part_end) continue;
      out->PushSegment(v.pos.x, v.pos.y, v.pos.x, v.pos.y, v.t, v.t, 0.0);
    } else {
      const auto range = simp.SegmentsIntersecting(part_start, part_end);
      if (!range.has_value()) continue;
      const std::vector<TimedPoint>& verts = simp.vertices();
      for (size_t s = range->first; s <= range->second; ++s) {
        const TimedPoint& a = verts[s];
        const TimedPoint& b = verts[s + 1];
        out->PushSegment(a.pos.x, a.pos.y, b.pos.x, b.pos.y, a.t, b.t,
                         use_actual_tolerance ? simp.SegmentTolerance(s)
                                              : delta_used);
      }
    }
    out->FinalizePolyline(simp.id(), first_segment);
  }
}

Clustering PolylineDbscanSoa(const PolylineDbscanOptions& opts,
                             PolylineDbscanScratch* scratch,
                             PolylineClusterStats* stats) {
  Clustering result;
  const PolylineSoa& soa = scratch->soa;
  const size_t n = soa.NumPolylines();
  if (n == 0) return result;

  const simd::SegmentSoa segs = soa.SegmentView();
  size_t pair_tests = 0;
  size_t box_pruned = 0;
  simd::PairCounters pair_counters;
  const auto qualify = [&](size_t a, size_t b) {
    return simd::PairSegmentsQualify(
        segs, soa.seg_start[a], soa.seg_start[a + 1], soa.seg_start[b],
        soa.seg_start[b + 1], opts.eps,
        opts.distance == SegmentDistanceKind::kDStar,
        /*mbr_prune=*/opts.use_box_pruning, &pair_counters);
  };

  // Capacity-retaining adjacency reset (inner clear keeps each vector's
  // backing store across partitions).
  if (scratch->adjacency.size() < n) scratch->adjacency.resize(n);
  std::vector<std::vector<uint32_t>>& adjacency = scratch->adjacency;
  for (size_t i = 0; i < n; ++i) adjacency[i].clear();

  if (opts.use_box_pruning) {
    // Lemma 2 sweep over the contiguous box arrays, then exact tests on the
    // survivors — the hot path the SIMD box kernel accelerates.
    std::vector<uint32_t>& survivors = scratch->survivors;
    if (survivors.size() < n) survivors.resize(n);
    for (size_t a = 0; a + 1 < n; ++a) {
      const uint32_t count = simd::BoxPruneSweep(
          soa.bminx.data(), soa.bmaxx.data(), soa.bminy.data(),
          soa.bmaxy.data(), soa.ptol.data(), static_cast<uint32_t>(a + 1),
          static_cast<uint32_t>(n), soa.bminx[a], soa.bmaxx[a], soa.bminy[a],
          soa.bmaxy[a], opts.eps + soa.ptol[a], survivors.data());
      pair_tests += n - 1 - a;
      box_pruned += (n - 1 - a) - count;
      for (uint32_t s = 0; s < count; ++s) {
        const uint32_t b = survivors[s];
        if (qualify(a, b)) {
          adjacency[a].push_back(b);
          adjacency[b].push_back(static_cast<uint32_t>(a));
        }
      }
    }
  } else {
    for (size_t a = 0; a + 1 < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        ++pair_tests;
        if (qualify(a, b)) {
          adjacency[a].push_back(static_cast<uint32_t>(b));
          adjacency[b].push_back(static_cast<uint32_t>(a));
        }
      }
    }
  }

  // Expansion: the same FIFO walk as the reference TRAJ-DBSCAN, over
  // scratch-backed label/frontier storage (a vector with a head index is
  // deque order).
  constexpr uint32_t kUnvisited = 0xFFFFFFFF;
  constexpr uint32_t kNoise = 0xFFFFFFFE;
  std::vector<uint32_t>& label = scratch->label;
  label.assign(n, kUnvisited);
  std::vector<uint32_t>& frontier = scratch->frontier;

  const auto is_core = [&](size_t p) {
    return adjacency[p].size() + 1 >= opts.min_pts;
  };

  for (size_t seed = 0; seed < n; ++seed) {
    if (label[seed] != kUnvisited) continue;
    if (!is_core(seed)) {
      label[seed] = kNoise;
      continue;
    }
    const uint32_t cluster_id = static_cast<uint32_t>(result.clusters.size());
    result.clusters.emplace_back();
    label[seed] = cluster_id;
    result.clusters.back().push_back(seed);

    frontier.assign(adjacency[seed].begin(), adjacency[seed].end());
    size_t head = 0;
    while (head < frontier.size()) {
      const size_t p = frontier[head++];
      if (label[p] == kNoise) {
        label[p] = cluster_id;  // border polyline
        result.clusters.back().push_back(p);
        continue;
      }
      if (label[p] != kUnvisited) continue;
      label[p] = cluster_id;
      result.clusters.back().push_back(p);
      if (is_core(p)) {
        for (const uint32_t nb : adjacency[p]) {
          if (label[nb] == kUnvisited || label[nb] == kNoise) {
            frontier.push_back(nb);
          }
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->pair_tests += pair_tests;
    stats->box_pruned += box_pruned;
    stats->segment_tests += pair_counters.segment_tests;
    stats->mbr_rejects += pair_counters.mbr_rejects;
  }
  return result;
}

}  // namespace convoy
