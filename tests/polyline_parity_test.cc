// Parity contract for the CuTS* hot-path rewrite: the CSR-SoA polyline
// storage, the arena-backed SoA TRAJ-DBSCAN, and the SIMD distance kernels
// must be bit-identical to the retained reference path (PartitionPolyline +
// PolylinesAreNeighbors' merge scan + PolylineDbscan) on adversarial
// segment shapes — collinear runs, zero-length segments, eps-boundary
// straddles, duplicate polylines, single-segment and single-vertex
// trajectories — and the end-to-end CuTS/CuTS+/CuTS* filters built on them
// must agree at 1, 2, and 8 threads, with the AVX2 and forced-scalar
// kernels interchangeable everywhere.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/polyline_dbscan.h"
#include "cluster/polyline_soa.h"
#include "core/cuts.h"
#include "core/cuts_filter.h"
#include "core/cuts_refine.h"
#include "core/params.h"
#include "geom/distance.h"
#include "simd/dist_kernels.h"
#include "simplify/simplifier.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace convoy {
namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Whether the AVX2 kernel entry points may be called directly on this
// build/host (CONVOY_SIMD=OFF builds forward them to scalar, so they are
// always callable there; with AVX2 codegen the CPU must support it).
bool Avx2Callable() {
  return !simd::Avx2Compiled() || simd::Avx2Available();
}

// ----------------------------------------------------- polyline builders --

PartitionPolyline MakePoly(ObjectId id, const std::vector<TimedPoint>& verts,
                           double tol) {
  PartitionPolyline p;
  p.object = id;
  if (verts.size() == 1) {
    // The degenerate single-vertex shape BuildPartitionPolylines emits.
    p.segments.push_back(TimedSegment(verts[0], verts[0]));
    p.tolerances.push_back(0.0);
  } else {
    for (size_t i = 0; i + 1 < verts.size(); ++i) {
      p.segments.push_back(TimedSegment(verts[i], verts[i + 1]));
      p.tolerances.push_back(tol);
    }
  }
  p.FinalizeBounds();
  return p;
}

PolylineSoa SoaFrom(const std::vector<PartitionPolyline>& polys) {
  PolylineSoa soa;
  soa.seg_start.push_back(0);
  for (const PartitionPolyline& p : polys) {
    const size_t first = soa.NumSegments();
    for (size_t s = 0; s < p.segments.size(); ++s) {
      const TimedSegment& seg = p.segments[s];
      soa.PushSegment(seg.start.pos.x, seg.start.pos.y, seg.end.pos.x,
                      seg.end.pos.y, seg.start.t, seg.end.t,
                      p.tolerances[s]);
    }
    soa.FinalizePolyline(p.object, first);
  }
  return soa;
}

struct NamedPolylines {
  const char* name;
  std::vector<PartitionPolyline> polys;
};

// The adversarial shapes the ISSUE calls out. eps for all suites is 5.0.
std::vector<NamedPolylines> AdversarialPolylineSets() {
  constexpr double kEps = 5.0;
  std::vector<NamedPolylines> out;

  {  // Collinear segments: several polylines along the same line, shifted
     // in time, plus one crossing them (DLL = 0 through SegmentsIntersect).
    NamedPolylines d{"collinear", {}};
    for (int i = 0; i < 6; ++i) {
      std::vector<TimedPoint> v;
      for (int s = 0; s <= 4; ++s) {
        v.emplace_back(s * 10.0, 0.0, static_cast<Tick>(i + s * 2));
      }
      d.polys.push_back(MakePoly(static_cast<ObjectId>(i), v, 0.5));
    }
    d.polys.push_back(MakePoly(100,
                               {TimedPoint(20.0, -8.0, 0),
                                TimedPoint(20.0, 8.0, 10)},
                               0.25));
    out.push_back(std::move(d));
  }
  {  // Zero-length segments (stationary objects) and single-vertex
     // degenerates; some within eps of each other, some not.
    NamedPolylines d{"zero_length", {}};
    for (int i = 0; i < 5; ++i) {
      const double x = i * 3.0;
      d.polys.push_back(MakePoly(static_cast<ObjectId>(i),
                                 {TimedPoint(x, 1.0, 0), TimedPoint(x, 1.0, 5),
                                  TimedPoint(x, 1.0, 9)},
                                 0.0));
    }
    d.polys.push_back(MakePoly(50, {TimedPoint(6.0, 1.0, 4)}, 0.0));
    d.polys.push_back(MakePoly(51, {TimedPoint(200.0, 200.0, 4)}, 0.0));
    out.push_back(std::move(d));
  }
  {  // eps-boundary straddle: parallel tracks at exactly eps, exactly
     // eps + both tolerances, and one ulp beyond — the band where any
     // reordered arithmetic would flip the decision.
    NamedPolylines d{"eps_boundary", {}};
    const double tol = 0.125;  // exact in binary
    const auto track = [&](ObjectId id, double y) {
      return MakePoly(id,
                      {TimedPoint(0.0, y, 0), TimedPoint(40.0, y, 10)}, tol);
    };
    d.polys.push_back(track(0, 0.0));
    d.polys.push_back(track(1, kEps));
    d.polys.push_back(track(2, kEps + 2.0 * tol));
    d.polys.push_back(
        track(3, (kEps + 2.0 * tol) * (1.0 + 4e-16)));  // just outside
    d.polys.push_back(track(4, kEps * 3.0));
    out.push_back(std::move(d));
  }
  {  // Duplicate polylines: byte-identical tracks under different ids —
     // distance 0 everywhere, every pair neighbors, one big cluster.
    NamedPolylines d{"duplicates", {}};
    for (int i = 0; i < 5; ++i) {
      d.polys.push_back(MakePoly(static_cast<ObjectId>(i),
                                 {TimedPoint(1.0, 2.0, 0),
                                  TimedPoint(7.0, 5.0, 4),
                                  TimedPoint(3.0, 9.0, 9)},
                                 0.5));
    }
    d.polys.push_back(MakePoly(60,
                               {TimedPoint(100.0, 100.0, 0),
                                TimedPoint(108.0, 100.0, 9)},
                               0.5));
    out.push_back(std::move(d));
  }
  {  // Single-segment trajectories scattered on a grid with mixed time
     // intervals — lots of 1-vs-1 segment pairs, partial time overlap.
    NamedPolylines d{"single_segment", {}};
    Rng rng(1234);
    for (int i = 0; i < 24; ++i) {
      const double x = rng.Uniform(0, 30);
      const double y = rng.Uniform(0, 30);
      const Tick t0 = rng.UniformInt(0, 10);
      const Tick t1 = t0 + rng.UniformInt(1, 6);
      d.polys.push_back(MakePoly(
          static_cast<ObjectId>(i),
          {TimedPoint(x, y, t0),
           TimedPoint(x + rng.Uniform(-4, 4), y + rng.Uniform(-4, 4), t1)},
          rng.Uniform(0.0, 1.0)));
    }
    out.push_back(std::move(d));
  }
  {  // Random clumpy walks: broad coverage with varying segment counts.
    NamedPolylines d{"random_walks", {}};
    Rng rng(99);
    for (int i = 0; i < 30; ++i) {
      std::vector<TimedPoint> v;
      double x = rng.Uniform(0, 40);
      double y = rng.Uniform(0, 40);
      Tick t = rng.UniformInt(0, 4);
      const int steps = static_cast<int>(rng.UniformInt(1, 6));
      v.emplace_back(x, y, t);
      for (int s = 0; s < steps; ++s) {
        x += rng.Gaussian(0, 3);
        y += rng.Gaussian(0, 3);
        t += rng.UniformInt(1, 3);
        v.emplace_back(x, y, t);
      }
      d.polys.push_back(MakePoly(static_cast<ObjectId>(i), v,
                                 rng.Uniform(0.0, 0.8)));
    }
    out.push_back(std::move(d));
  }
  return out;
}

PolylineDbscanOptions OptsFor(SegmentDistanceKind kind, bool box_pruning) {
  PolylineDbscanOptions o;
  o.eps = 5.0;
  o.min_pts = 2;
  o.distance = kind;
  o.use_box_pruning = box_pruning;
  return o;
}

// -------------------------------------------- distance kernel bit parity --

// The scalar DistanceBatch must reproduce geom::DLL / geom::DStar bit-for-
// bit (it calls them), and the AVX2 lanes must reproduce the scalar batch
// bit-for-bit — per lane, including inf for non-overlapping D* pairs.
TEST(PolylineParity, DistanceBatchBitIdentical) {
  for (const NamedPolylines& dist : AdversarialPolylineSets()) {
    SCOPED_TRACE(dist.name);
    const PolylineSoa soa = SoaFrom(dist.polys);
    const simd::SegmentSoa segs = soa.SegmentView();
    const size_t n = soa.NumPolylines();
    for (size_t pa = 0; pa < n; ++pa) {
      for (size_t pb = 0; pb < n; ++pb) {
        if (pa == pb) continue;
        const size_t b_begin = soa.seg_start[pb];
        const size_t count = soa.seg_start[pb + 1] - b_begin;
        std::vector<double> scalar(count);
        std::vector<double> vec(count);
        for (size_t a = soa.seg_start[pa]; a < soa.seg_start[pa + 1]; ++a) {
          for (const bool dstar : {false, true}) {
            simd::DistanceBatchScalar(segs, a, b_begin, count, dstar,
                                      scalar.data());
            // Reference: the exact calls the legacy merge scan makes.
            const size_t qa = a - soa.seg_start[pa];
            const TimedSegment& sq = dist.polys[pa].segments[qa];
            for (size_t l = 0; l < count; ++l) {
              const TimedSegment& si = dist.polys[pb].segments[l];
              const double want = dstar ? DStar(sq, si)
                                        : DLL(sq.Spatial(), si.Spatial());
              ASSERT_EQ(Bits(want), Bits(scalar[l]))
                  << "scalar vs geom, a=" << a << " lane=" << l
                  << " dstar=" << dstar;
            }
            if (Avx2Callable()) {
              simd::DistanceBatchAvx2(segs, a, b_begin, count, dstar,
                                      vec.data());
              for (size_t l = 0; l < count; ++l) {
                ASSERT_EQ(Bits(scalar[l]), Bits(vec[l]))
                    << "avx2 vs scalar, a=" << a << " lane=" << l
                    << " dstar=" << dstar;
              }
            }
          }
        }
      }
    }
  }
}

// The qualify kernel (merge-scan replacement) must return the reference
// boolean for every polyline pair, and the scalar/AVX2 variants must agree
// on the work counters too (same block-of-four discipline).
TEST(PolylineParity, PairQualifyMatchesReferenceScan) {
  for (const NamedPolylines& dist : AdversarialPolylineSets()) {
    SCOPED_TRACE(dist.name);
    const PolylineSoa soa = SoaFrom(dist.polys);
    const simd::SegmentSoa segs = soa.SegmentView();
    const size_t n = soa.NumPolylines();
    for (const SegmentDistanceKind kind :
         {SegmentDistanceKind::kDll, SegmentDistanceKind::kDStar}) {
      for (const bool mbr : {false, true}) {
        // Reference boolean: the merge scan without box pruning (the
        // polyline-level box test is a separate kernel).
        PolylineDbscanOptions ref_opts = OptsFor(kind, false);
        for (size_t pa = 0; pa < n; ++pa) {
          for (size_t pb = 0; pb < n; ++pb) {
            if (pa == pb) continue;
            const bool want = PolylinesAreNeighbors(
                dist.polys[pa], dist.polys[pb], ref_opts, nullptr);
            simd::PairCounters sc;
            const bool got_scalar = simd::PairSegmentsQualifyScalar(
                segs, soa.seg_start[pa], soa.seg_start[pa + 1],
                soa.seg_start[pb], soa.seg_start[pb + 1], ref_opts.eps,
                kind == SegmentDistanceKind::kDStar, mbr, &sc);
            EXPECT_EQ(want, got_scalar)
                << "pa=" << pa << " pb=" << pb << " mbr=" << mbr;
            if (Avx2Callable()) {
              simd::PairCounters vc;
              const bool got_vec = simd::PairSegmentsQualifyAvx2(
                  segs, soa.seg_start[pa], soa.seg_start[pa + 1],
                  soa.seg_start[pb], soa.seg_start[pb + 1], ref_opts.eps,
                  kind == SegmentDistanceKind::kDStar, mbr, &vc);
              EXPECT_EQ(got_scalar, got_vec) << "pa=" << pa << " pb=" << pb;
              EXPECT_EQ(sc.segment_tests, vc.segment_tests)
                  << "pa=" << pa << " pb=" << pb;
              EXPECT_EQ(sc.mbr_rejects, vc.mbr_rejects)
                  << "pa=" << pa << " pb=" << pb;
            }
          }
        }
      }
    }
  }
}

// The Lemma 2 box sweep: per-candidate decisions must equal the reference
// formula Dmin(box_a, box_b) > eps + tol_a + tol_b exactly, and the AVX2
// sweep (sqrt-free two-sided compare + exact fallback in the ambiguous
// band) must produce the same survivor list as the scalar sweep.
TEST(PolylineParity, BoxPruneSweepBitIdentical) {
  for (const NamedPolylines& dist : AdversarialPolylineSets()) {
    SCOPED_TRACE(dist.name);
    const PolylineSoa soa = SoaFrom(dist.polys);
    const uint32_t n = static_cast<uint32_t>(soa.NumPolylines());
    std::vector<uint32_t> s_scalar(n);
    std::vector<uint32_t> s_vec(n);
    for (uint32_t a = 0; a < n; ++a) {
      const double eps_plus_atol = 5.0 + soa.ptol[a];
      const uint32_t c_scalar = simd::BoxPruneSweepScalar(
          soa.bminx.data(), soa.bmaxx.data(), soa.bminy.data(),
          soa.bmaxy.data(), soa.ptol.data(), 0, n, soa.bminx[a],
          soa.bmaxx[a], soa.bminy[a], soa.bmaxy[a], eps_plus_atol,
          s_scalar.data());
      // Reference decision, straight from the legacy neighborhood test.
      std::vector<uint32_t> want;
      for (uint32_t b = 0; b < n; ++b) {
        const double bound = eps_plus_atol + soa.ptol[b];
        if (!(Dmin(dist.polys[a].bbox, dist.polys[b].bbox) > bound)) {
          want.push_back(b);
        }
      }
      ASSERT_EQ(want.size(), c_scalar);
      for (uint32_t i = 0; i < c_scalar; ++i) {
        EXPECT_EQ(want[i], s_scalar[i]) << "a=" << a;
      }
      if (Avx2Callable()) {
        const uint32_t c_vec = simd::BoxPruneSweepAvx2(
            soa.bminx.data(), soa.bmaxx.data(), soa.bminy.data(),
            soa.bmaxy.data(), soa.ptol.data(), 0, n, soa.bminx[a],
            soa.bmaxx[a], soa.bminy[a], soa.bmaxy[a], eps_plus_atol,
            s_vec.data());
        ASSERT_EQ(c_scalar, c_vec) << "a=" << a;
        for (uint32_t i = 0; i < c_scalar; ++i) {
          EXPECT_EQ(s_scalar[i], s_vec[i]) << "a=" << a;
        }
      }
    }
  }
}

// The point-radius scan behind GridIndex::ScanRange: identical output,
// identical order, including eps-boundary and duplicate points.
TEST(PolylineParity, RadiusScanBitIdentical) {
  if (!Avx2Callable()) GTEST_SKIP() << "AVX2 compiled but not supported";
  Rng rng(7);
  std::vector<double> sx;
  std::vector<double> sy;
  std::vector<uint32_t> point_of;
  for (uint32_t i = 0; i < 257; ++i) {  // odd size: exercises the tail
    sx.push_back(rng.Uniform(0, 20));
    sy.push_back(rng.Uniform(0, 20));
    point_of.push_back(1000 + i);
  }
  // Duplicates and exact-boundary points.
  sx.push_back(10.0); sy.push_back(10.0); point_of.push_back(1);
  sx.push_back(10.0); sy.push_back(10.0); point_of.push_back(2);
  sx.push_back(13.0); sy.push_back(14.0); point_of.push_back(3);  // d = 5
  for (int probe = 0; probe < 50; ++probe) {
    const double px = probe == 0 ? 10.0 : rng.Uniform(0, 20);
    const double py = probe == 0 ? 10.0 : rng.Uniform(0, 20);
    const double r = probe == 0 ? 5.0 : rng.Uniform(0.1, 8.0);
    std::vector<size_t> got_scalar;
    std::vector<size_t> got_vec;
    simd::RadiusScanScalar(sx.data(), sy.data(), point_of.data(), 0,
                           sx.size(), px, py, r * r, &got_scalar);
    simd::RadiusScanAvx2(sx.data(), sy.data(), point_of.data(), 0, sx.size(),
                         px, py, r * r, &got_vec);
    ASSERT_EQ(got_scalar, got_vec) << "probe " << probe;
  }
}

// ------------------------------------------------------ clustering parity --

// PolylineDbscanSoa must reproduce PolylineDbscan's clusters exactly for
// every option combination, with the kernels forced scalar and (when the
// host supports it) on the AVX2 path, and the shared stats must agree.
TEST(PolylineParity, SoaDbscanMatchesReference) {
  for (const NamedPolylines& dist : AdversarialPolylineSets()) {
    SCOPED_TRACE(dist.name);
    for (const SegmentDistanceKind kind :
         {SegmentDistanceKind::kDll, SegmentDistanceKind::kDStar}) {
      for (const bool box_pruning : {false, true}) {
        const PolylineDbscanOptions opts = OptsFor(kind, box_pruning);
        PolylineClusterStats ref_stats;
        const Clustering want = PolylineDbscan(dist.polys, opts, &ref_stats);
        for (const bool force_scalar : {true, false}) {
          if (!force_scalar && !Avx2Callable()) continue;
          simd::ForceScalar(force_scalar);
          PolylineDbscanScratch scratch;
          scratch.soa = SoaFrom(dist.polys);
          PolylineClusterStats soa_stats;
          const Clustering got = PolylineDbscanSoa(opts, &scratch, &soa_stats);
          EXPECT_EQ(want.clusters, got.clusters)
              << "kind=" << static_cast<int>(kind) << " box=" << box_pruning
              << " scalar=" << force_scalar;
          EXPECT_EQ(ref_stats.pair_tests, soa_stats.pair_tests);
          EXPECT_EQ(ref_stats.box_pruned, soa_stats.box_pruned);
        }
        simd::ForceScalar(false);
      }
    }
  }
}

// The scratch arena must not leak state between partitions: reusing one
// scratch across all distributions in sequence gives the same clusters as
// a fresh scratch per call.
TEST(PolylineParity, ScratchReuseIsStateless) {
  const PolylineDbscanOptions opts = OptsFor(SegmentDistanceKind::kDStar, true);
  PolylineDbscanScratch reused;
  for (int round = 0; round < 2; ++round) {
    for (const NamedPolylines& dist : AdversarialPolylineSets()) {
      SCOPED_TRACE(dist.name);
      PolylineDbscanScratch fresh;
      fresh.soa = SoaFrom(dist.polys);
      reused.soa = SoaFrom(dist.polys);
      const Clustering want = PolylineDbscanSoa(opts, &fresh, nullptr);
      const Clustering got = PolylineDbscanSoa(opts, &reused, nullptr);
      EXPECT_EQ(want.clusters, got.clusters) << "round " << round;
    }
  }
}

// BuildPolylineSoa must select and value segments exactly like
// BuildPartitionPolylines — same objects, same segment ranges, same
// degenerate single-vertex handling, bit-identical bounds and tolerances.
TEST(PolylineParity, BuildPolylineSoaMatchesReferenceBuilder) {
  Rng rng(31);
  const TrajectoryDatabase db =
      testutil::RandomClumpyDb(rng, 40, 60, 80.0, 2.0, 0.9);
  const double delta = ComputeDelta(db, 6.0);
  const std::vector<SimplifiedTrajectory> simplified =
      SimplifyDatabase(db, delta, SimplifierKind::kDpStar);
  for (const Tick lambda : {Tick{7}, Tick{20}}) {
    for (Tick ps = db.BeginTick(); ps <= db.EndTick(); ps += lambda) {
      const Tick pe = std::min<Tick>(ps + lambda - 1, db.EndTick());
      for (const bool actual_tol : {true, false}) {
        const std::vector<PartitionPolyline> want = BuildPartitionPolylines(
            simplified, ps, pe, actual_tol, delta);
        PolylineSoa got;
        BuildPolylineSoa(simplified, ps, pe, actual_tol, delta, &got);
        const PolylineSoa mirrored = SoaFrom(want);
        ASSERT_EQ(mirrored.NumPolylines(), got.NumPolylines());
        EXPECT_EQ(mirrored.object, got.object);
        EXPECT_EQ(mirrored.seg_start, got.seg_start);
        const auto bits_equal = [](const std::vector<double>& x,
                                   const std::vector<double>& y) {
          if (x.size() != y.size()) return false;
          for (size_t i = 0; i < x.size(); ++i) {
            if (Bits(x[i]) != Bits(y[i])) return false;
          }
          return true;
        };
        EXPECT_TRUE(bits_equal(mirrored.x0, got.x0));
        EXPECT_TRUE(bits_equal(mirrored.y0, got.y0));
        EXPECT_TRUE(bits_equal(mirrored.x1, got.x1));
        EXPECT_TRUE(bits_equal(mirrored.y1, got.y1));
        EXPECT_TRUE(bits_equal(mirrored.t0, got.t0));
        EXPECT_TRUE(bits_equal(mirrored.t1, got.t1));
        EXPECT_TRUE(bits_equal(mirrored.stol, got.stol));
        EXPECT_TRUE(bits_equal(mirrored.bminx, got.bminx));
        EXPECT_TRUE(bits_equal(mirrored.bmaxx, got.bmaxx));
        EXPECT_TRUE(bits_equal(mirrored.bminy, got.bminy));
        EXPECT_TRUE(bits_equal(mirrored.bmaxy, got.bmaxy));
        EXPECT_TRUE(bits_equal(mirrored.ptol, got.ptol));
      }
    }
  }
}

// ------------------------------------------------------------ e2e parity --

// The pre-rewrite filter, replayed from the retained reference pieces:
// per-partition BuildPartitionPolylines + PolylineDbscan, sequential
// candidate tracking.
std::vector<Candidate> ReferenceFilterCandidates(
    const TrajectoryDatabase& db, const ConvoyQuery& q,
    const CutsFilterOptions& fopts,
    const std::vector<SimplifiedTrajectory>& simplified, double delta,
    Tick lambda) {
  CandidateTracker tracker(q.m, q.k);
  std::vector<Candidate> candidates;
  PolylineDbscanOptions copts;
  copts.eps = q.e;
  copts.min_pts = q.m;
  copts.distance = fopts.distance;
  copts.use_box_pruning = fopts.use_box_pruning;
  for (Tick ps = db.BeginTick(); ps <= db.EndTick(); ps += lambda) {
    const Tick pe = std::min<Tick>(ps + lambda - 1, db.EndTick());
    const std::vector<PartitionPolyline> polylines = BuildPartitionPolylines(
        simplified, ps, pe, fopts.use_actual_tolerance, delta);
    std::vector<std::vector<ObjectId>> clusters;
    if (polylines.size() >= q.m) {
      const Clustering clustering = PolylineDbscan(polylines, copts);
      for (const std::vector<size_t>& cluster : clustering.clusters) {
        std::vector<ObjectId> ids;
        ids.reserve(cluster.size());
        for (const size_t idx : cluster) ids.push_back(polylines[idx].object);
        std::sort(ids.begin(), ids.end());
        clusters.push_back(std::move(ids));
      }
    }
    tracker.Advance(testutil::Step(clusters), ps, pe, lambda, &candidates);
  }
  tracker.Flush(&candidates);
  return candidates;
}

void ExpectSameCandidates(const std::vector<Candidate>& want,
                          const std::vector<Candidate>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].objects, got[i].objects) << "candidate " << i;
    EXPECT_EQ(want[i].start_tick, got[i].start_tick) << "candidate " << i;
    EXPECT_EQ(want[i].end_tick, got[i].end_tick) << "candidate " << i;
    EXPECT_EQ(want[i].lifetime, got[i].lifetime) << "candidate " << i;
  }
}

// The rewritten filter must hand the tracker the same clusters — so the
// same candidates — as the reference replay, for every variant, at 1, 2,
// and 8 threads, scalar-forced and vectorized; and the refined convoys of
// the full Cuts() runs must match the reference-filter + CutsRefine chain.
TEST(PolylineParity, EndToEndFilterAndConvoyParity) {
  Rng rng(424242);
  const TrajectoryDatabase db =
      testutil::RandomClumpyDb(rng, 48, 90, 60.0, 1.5, 0.85);
  ConvoyQuery q;
  q.m = 3;
  q.k = 12;
  q.e = 6.0;

  for (const CutsVariant variant :
       {CutsVariant::kCuts, CutsVariant::kCutsPlus, CutsVariant::kCutsStar}) {
    SCOPED_TRACE(ToString(variant));
    CutsFilterOptions fopts = MakeFilterOptions(variant);
    const double delta = ComputeDelta(db, q.e);
    const std::vector<SimplifiedTrajectory> simplified =
        SimplifyDatabase(db, delta, fopts.simplifier);
    const Tick lambda = std::max<Tick>(ComputeLambda(db, simplified, q.k), 1);
    fopts.delta = delta;
    fopts.lambda = lambda;

    const std::vector<Candidate> want =
        ReferenceFilterCandidates(db, q, fopts, simplified, delta, lambda);

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      for (const bool force_scalar : {true, false}) {
        if (!force_scalar && !Avx2Callable()) continue;
        simd::ForceScalar(force_scalar);
        ConvoyQuery run = q;
        run.num_threads = threads;
        const CutsFilterResult got =
            CutsFilterPresimplified(db, run, fopts, simplified, delta, nullptr);
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " scalar=" + std::to_string(force_scalar));
        ExpectSameCandidates(want, got.candidates);
      }
    }
    simd::ForceScalar(false);

    const std::vector<Convoy> ref_convoys =
        CutsRefine(db, q, want, fopts.refine_mode);
    const std::vector<Convoy> got_convoys = Cuts(db, q, variant, fopts);
    EXPECT_EQ(ref_convoys, got_convoys);
  }
}

}  // namespace
}  // namespace convoy
