// AVX2 (4-wide double) kernels. Compiled with -mavx2 -ffp-contract=off only
// when CMake enables CONVOY_SIMD and the compiler accepts the flag;
// otherwise every entry point forwards to the scalar kernel.
//
// Bit-identity discipline: every vector lane executes the exact IEEE
// operation DAG of the scalar reference, in the same order —
//   * std::max(a, b) == _mm256_max_pd(b, a) (both return the second
//     argument when a < b is false, NaN included), likewise std::min;
//   * std::clamp(v, lo, hi) == two blends keyed on (v < lo) and (hi < r);
//   * vaddpd/vsubpd/vmulpd/vdivpd/vsqrtpd are IEEE-correctly-rounded, i.e.
//     identical to their scalar counterparts;
//   * no FMA contraction (-mavx2 does not enable FMA, and the TU pins
//     -ffp-contract=off), so a*b+c rounds twice on both paths.
// The only divergence allowed is *which* lanes get computed; values never
// differ. tests/polyline_parity_test.cc asserts this on adversarial shapes.

#include "simd/kernels_detail.h"

#if defined(CONVOY_SIMD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace convoy::simd {

namespace {

// std::max(a, b) / std::min(a, b) with the scalar argument order preserved
// (x86 max/min return the *second* source on NaN or equality, exactly like
// the ternary in std::max/std::min).
inline __m256d VMax(__m256d a, __m256d b) { return _mm256_max_pd(b, a); }
inline __m256d VMin(__m256d a, __m256d b) { return _mm256_min_pd(b, a); }

inline __m256d VAbs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

// Bitwise negation (sign flip) — matches the scalar unary minus exactly,
// including on signed zeros (0.0 - x would turn -(+0.0) into +0.0).
inline __m256d VNeg(__m256d v) {
  return _mm256_xor_pd(_mm256_set1_pd(-0.0), v);
}

// std::clamp(v, lo, hi): (v < lo) ? lo : (hi < v) ? hi : v. NaN propagates
// (both compares false), as in the scalar version.
inline __m256d VClamp(__m256d v, __m256d lo, __m256d hi) {
  __m256d r = _mm256_blendv_pd(v, lo, _mm256_cmp_pd(v, lo, _CMP_LT_OQ));
  r = _mm256_blendv_pd(r, hi, _mm256_cmp_pd(hi, r, _CMP_LT_OQ));
  return r;
}

struct Vec2 {
  __m256d x;
  __m256d y;
};

// Four independent timed segments (or one broadcast four times).
struct SegLanes {
  __m256d x0, y0, x1, y1, t0, t1;
};

inline SegLanes Broadcast(const SegmentSoa& s, size_t i) {
  return SegLanes{_mm256_set1_pd(s.x0[i]), _mm256_set1_pd(s.y0[i]),
                  _mm256_set1_pd(s.x1[i]), _mm256_set1_pd(s.y1[i]),
                  _mm256_set1_pd(s.t0[i]), _mm256_set1_pd(s.t1[i])};
}

inline SegLanes Load4(const SegmentSoa& s, size_t base) {
  return SegLanes{_mm256_loadu_pd(s.x0 + base), _mm256_loadu_pd(s.y0 + base),
                  _mm256_loadu_pd(s.x1 + base), _mm256_loadu_pd(s.y1 + base),
                  _mm256_loadu_pd(s.t0 + base), _mm256_loadu_pd(s.t1 + base)};
}

// TimedSegment::PositionAt, four lanes.
inline Vec2 PosAt(const SegLanes& s, __m256d t) {
  const __m256d degenerate = _mm256_cmp_pd(s.t1, s.t0, _CMP_LE_OQ);
  const __m256d s_raw = _mm256_div_pd(_mm256_sub_pd(t, s.t0),
                                      _mm256_sub_pd(s.t1, s.t0));
  const __m256d ratio =
      VClamp(s_raw, _mm256_setzero_pd(), _mm256_set1_pd(1.0));
  Vec2 r;
  r.x = _mm256_add_pd(s.x0,
                      _mm256_mul_pd(_mm256_sub_pd(s.x1, s.x0), ratio));
  r.y = _mm256_add_pd(s.y0,
                      _mm256_mul_pd(_mm256_sub_pd(s.y1, s.y0), ratio));
  r.x = _mm256_blendv_pd(r.x, s.x0, degenerate);
  r.y = _mm256_blendv_pd(r.y, s.y0, degenerate);
  return r;
}

// TimedSegment::Velocity, four lanes.
inline Vec2 Velocity(const SegLanes& s) {
  const __m256d dt = _mm256_sub_pd(s.t1, s.t0);
  const __m256d empty =
      _mm256_cmp_pd(dt, _mm256_setzero_pd(), _CMP_LE_OQ);
  const __m256d inv = _mm256_div_pd(_mm256_set1_pd(1.0), dt);
  Vec2 r;
  r.x = _mm256_mul_pd(_mm256_sub_pd(s.x1, s.x0), inv);
  r.y = _mm256_mul_pd(_mm256_sub_pd(s.y1, s.y0), inv);
  r.x = _mm256_blendv_pd(r.x, _mm256_setzero_pd(), empty);
  r.y = _mm256_blendv_pd(r.y, _mm256_setzero_pd(), empty);
  return r;
}

// geom::DStar(p, q), four lanes, including the invalid-overlap -> +inf case.
inline __m256d DStarLanes(const SegLanes& p, const SegLanes& q) {
  const __m256d lo = VMax(p.t0, q.t0);  // ticks are exact doubles
  const __m256d hi = VMin(p.t1, q.t1);
  const Vec2 p0 = PosAt(p, lo);
  const Vec2 q0 = PosAt(q, lo);
  const __m256d d0x = _mm256_sub_pd(p0.x, q0.x);
  const __m256d d0y = _mm256_sub_pd(p0.y, q0.y);
  const Vec2 pv = Velocity(p);
  const Vec2 qv = Velocity(q);
  const __m256d dvx = _mm256_sub_pd(pv.x, qv.x);
  const __m256d dvy = _mm256_sub_pd(pv.y, qv.y);
  const __m256d dv2 =
      _mm256_add_pd(_mm256_mul_pd(dvx, dvx), _mm256_mul_pd(dvy, dvy));
  const __m256d dot =
      _mm256_add_pd(_mm256_mul_pd(d0x, dvx), _mm256_mul_pd(d0y, dvy));
  const __m256d s = _mm256_div_pd(VNeg(dot), dv2);
  __m256d t = VClamp(_mm256_add_pd(lo, s), lo, hi);
  // dv2 <= 0: parallel motion, CPA at the overlap start.
  t = _mm256_blendv_pd(
      t, lo, _mm256_cmp_pd(dv2, _mm256_setzero_pd(), _CMP_LE_OQ));
  const Vec2 pt = PosAt(p, t);
  const Vec2 qt = PosAt(q, t);
  const __m256d dx = _mm256_sub_pd(pt.x, qt.x);
  const __m256d dy = _mm256_sub_pd(pt.y, qt.y);
  __m256d dist = _mm256_sqrt_pd(
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
  // Disjoint time intervals (hi < lo, exact integer compare on exact
  // doubles) -> +infinity, as the scalar DStar returns.
  const __m256d invalid = _mm256_cmp_pd(hi, lo, _CMP_LT_OQ);
  dist = _mm256_blendv_pd(
      dist, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
      invalid);
  return dist;
}

// Cross(a, b, c) = (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x), four lanes.
inline __m256d CrossLanes(__m256d ax, __m256d ay, __m256d bx, __m256d by,
                          __m256d cx, __m256d cy) {
  return _mm256_sub_pd(
      _mm256_mul_pd(_mm256_sub_pd(bx, ax), _mm256_sub_pd(cy, ay)),
      _mm256_mul_pd(_mm256_sub_pd(by, ay), _mm256_sub_pd(cx, ax)));
}

// OnSegment(a, b, p), four lanes (mask result).
inline __m256d OnSegLanes(__m256d ax, __m256d ay, __m256d bx, __m256d by,
                          __m256d px, __m256d py) {
  const __m256d minx = VMin(ax, bx);
  const __m256d maxx = VMax(ax, bx);
  const __m256d miny = VMin(ay, by);
  const __m256d maxy = VMax(ay, by);
  const __m256d in_x =
      _mm256_and_pd(_mm256_cmp_pd(minx, px, _CMP_LE_OQ),
                    _mm256_cmp_pd(px, maxx, _CMP_LE_OQ));
  const __m256d in_y =
      _mm256_and_pd(_mm256_cmp_pd(miny, py, _CMP_LE_OQ),
                    _mm256_cmp_pd(py, maxy, _CMP_LE_OQ));
  return _mm256_and_pd(in_x, in_y);
}

// DPL2(p, segment(a, b)), four lanes.
inline __m256d Dpl2Lanes(__m256d px, __m256d py, __m256d ax, __m256d ay,
                         __m256d bx, __m256d by) {
  const __m256d dx = _mm256_sub_pd(bx, ax);
  const __m256d dy = _mm256_sub_pd(by, ay);
  const __m256d len2 =
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
  const __m256d ex0 = _mm256_sub_pd(px, ax);
  const __m256d ey0 = _mm256_sub_pd(py, ay);
  // Degenerate segment: D2(p, a). Computed unconditionally and blended —
  // the dead general-path lanes may hold NaN (0/0), never read.
  const __m256d deg =
      _mm256_add_pd(_mm256_mul_pd(ex0, ex0), _mm256_mul_pd(ey0, ey0));
  const __m256d dot =
      _mm256_add_pd(_mm256_mul_pd(ex0, dx), _mm256_mul_pd(ey0, dy));
  const __m256d ratio = VClamp(_mm256_div_pd(dot, len2),
                               _mm256_setzero_pd(), _mm256_set1_pd(1.0));
  const __m256d cx = _mm256_add_pd(ax, _mm256_mul_pd(dx, ratio));
  const __m256d cy = _mm256_add_pd(ay, _mm256_mul_pd(dy, ratio));
  const __m256d ex = _mm256_sub_pd(px, cx);
  const __m256d ey = _mm256_sub_pd(py, cy);
  const __m256d gen =
      _mm256_add_pd(_mm256_mul_pd(ex, ex), _mm256_mul_pd(ey, ey));
  return _mm256_blendv_pd(
      gen, deg, _mm256_cmp_pd(len2, _mm256_setzero_pd(), _CMP_EQ_OQ));
}

// geom::DLL(u, v) with u the (broadcast) query segment and v four candidate
// segments: SegmentsIntersect -> 0, else sqrt of the min endpoint DPL2.
inline __m256d DllLanes(const SegLanes& u, const SegLanes& v) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d d1 = CrossLanes(v.x0, v.y0, v.x1, v.y1, u.x0, u.y0);
  const __m256d d2 = CrossLanes(v.x0, v.y0, v.x1, v.y1, u.x1, u.y1);
  const __m256d d3 = CrossLanes(u.x0, u.y0, u.x1, u.y1, v.x0, v.y0);
  const __m256d d4 = CrossLanes(u.x0, u.y0, u.x1, u.y1, v.x1, v.y1);
  const auto pos = [&](__m256d d) { return _mm256_cmp_pd(d, zero, _CMP_GT_OQ); };
  const auto neg = [&](__m256d d) { return _mm256_cmp_pd(d, zero, _CMP_LT_OQ); };
  const auto eqz = [&](__m256d d) { return _mm256_cmp_pd(d, zero, _CMP_EQ_OQ); };
  const __m256d straddle_u =
      _mm256_or_pd(_mm256_and_pd(pos(d1), neg(d2)),
                   _mm256_and_pd(neg(d1), pos(d2)));
  const __m256d straddle_v =
      _mm256_or_pd(_mm256_and_pd(pos(d3), neg(d4)),
                   _mm256_and_pd(neg(d3), pos(d4)));
  __m256d inter = _mm256_and_pd(straddle_u, straddle_v);
  inter = _mm256_or_pd(
      inter, _mm256_and_pd(eqz(d1), OnSegLanes(v.x0, v.y0, v.x1, v.y1,
                                               u.x0, u.y0)));
  inter = _mm256_or_pd(
      inter, _mm256_and_pd(eqz(d2), OnSegLanes(v.x0, v.y0, v.x1, v.y1,
                                               u.x1, u.y1)));
  inter = _mm256_or_pd(
      inter, _mm256_and_pd(eqz(d3), OnSegLanes(u.x0, u.y0, u.x1, u.y1,
                                               v.x0, v.y0)));
  inter = _mm256_or_pd(
      inter, _mm256_and_pd(eqz(d4), OnSegLanes(u.x0, u.y0, u.x1, u.y1,
                                               v.x1, v.y1)));
  const __m256d e1 = Dpl2Lanes(u.x0, u.y0, v.x0, v.y0, v.x1, v.y1);
  const __m256d e2 = Dpl2Lanes(u.x1, u.y1, v.x0, v.y0, v.x1, v.y1);
  const __m256d e3 = Dpl2Lanes(v.x0, v.y0, u.x0, u.y0, u.x1, u.y1);
  const __m256d e4 = Dpl2Lanes(v.x1, v.y1, u.x0, u.y0, u.x1, u.y1);
  const __m256d dmin = VMin(VMin(e1, e2), VMin(e3, e4));
  const __m256d dist = _mm256_sqrt_pd(dmin);
  return _mm256_blendv_pd(dist, zero, inter);
}

inline __m256d DistLanes(const SegLanes& q, const SegLanes& c, bool dstar) {
  return dstar ? DStarLanes(q, c) : DllLanes(q, c);
}

inline unsigned MaskOf(__m256d m) {
  return static_cast<unsigned>(_mm256_movemask_pd(m));
}

inline uint64_t PopCount4(unsigned mask) {
  return static_cast<uint64_t>(__builtin_popcount(mask & 0xFu));
}

// One full 4-lane block of the qualify scan (counter discipline identical
// to detail::QualifyBlockScalar: whole block tallied, hit reported after).
inline bool QualifyBlockAvx2(const SegmentSoa& segs, const SegLanes& q,
                             size_t a, double bound_base, size_t base,
                             bool dstar, bool mbr_prune,
                             PairCounters* counters) {
  const __m256d bound = _mm256_add_pd(_mm256_set1_pd(bound_base),
                                      _mm256_loadu_pd(segs.tol + base));
  unsigned active = 0xFu;
  if (mbr_prune) {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d aminx = _mm256_set1_pd(segs.minx[a]);
    const __m256d amaxx = _mm256_set1_pd(segs.maxx[a]);
    const __m256d aminy = _mm256_set1_pd(segs.miny[a]);
    const __m256d amaxy = _mm256_set1_pd(segs.maxy[a]);
    const __m256d bminx = _mm256_loadu_pd(segs.minx + base);
    const __m256d bmaxx = _mm256_loadu_pd(segs.maxx + base);
    const __m256d bminy = _mm256_loadu_pd(segs.miny + base);
    const __m256d bmaxy = _mm256_loadu_pd(segs.maxy + base);
    const __m256d dx =
        VMax(VMax(zero, _mm256_sub_pd(aminx, bmaxx)),
             _mm256_sub_pd(bminx, amaxx));
    const __m256d dy =
        VMax(VMax(zero, _mm256_sub_pd(aminy, bmaxy)),
             _mm256_sub_pd(bminy, amaxy));
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const __m256d m = VMax(
        VMax(VMax(VAbs(aminx), VAbs(amaxx)), VMax(VAbs(bminx), VAbs(bmaxx))),
        VMax(VMax(VAbs(aminy), VAbs(amaxy)), VMax(VAbs(bminy), VAbs(bmaxy))));
    const __m256d thr = _mm256_add_pd(
        bound, _mm256_mul_pd(m, _mm256_set1_pd(detail::kMbrSlack)));
    const __m256d reject =
        _mm256_cmp_pd(d2, _mm256_mul_pd(thr, thr), _CMP_GT_OQ);
    const unsigned reject_mask = MaskOf(reject) & 0xFu;
    counters->mbr_rejects += PopCount4(reject_mask);
    active = ~reject_mask & 0xFu;
  }
  counters->segment_tests += PopCount4(active);
  if (active == 0) return false;
  const __m256d dist = DistLanes(q, Load4(segs, base), dstar);
  const unsigned hit = MaskOf(_mm256_cmp_pd(dist, bound, _CMP_LE_OQ));
  return (hit & active) != 0;
}

}  // namespace

bool Avx2Compiled() { return true; }

bool PairSegmentsQualifyAvx2(const SegmentSoa& segs, size_t a_begin,
                             size_t a_end, size_t b_begin, size_t b_end,
                             double eps, bool dstar, bool mbr_prune,
                             PairCounters* counters) {
  size_t last_a = static_cast<size_t>(-1);
  SegLanes q{};
  double bound_base = 0.0;
  return detail::QualifyScan(
      segs, a_begin, a_end, b_begin, b_end,
      [&](size_t a, size_t base, size_t lanes) {
        if (a != last_a) {
          last_a = a;
          q = Broadcast(segs, a);
          bound_base = eps + segs.tol[a];
        }
        if (lanes == 4) {
          return QualifyBlockAvx2(segs, q, a, bound_base, base, dstar,
                                  mbr_prune, counters);
        }
        return detail::QualifyBlockScalar(segs, a, bound_base, base, lanes,
                                          dstar, mbr_prune, counters);
      });
}

uint32_t BoxPruneSweepAvx2(const double* bminx, const double* bmaxx,
                           const double* bminy, const double* bmaxy,
                           const double* btol, uint32_t b_begin,
                           uint32_t b_end, double aminx, double amaxx,
                           double aminy, double amaxy, double eps_plus_atol,
                           uint32_t* survivors) {
  uint32_t count = 0;
  uint32_t b = b_begin;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vaminx = _mm256_set1_pd(aminx);
  const __m256d vamaxx = _mm256_set1_pd(amaxx);
  const __m256d vaminy = _mm256_set1_pd(aminy);
  const __m256d vamaxy = _mm256_set1_pd(amaxy);
  const __m256d vbase = _mm256_set1_pd(eps_plus_atol);
  const __m256d vhi = _mm256_set1_pd(detail::kBoxHi);
  const __m256d vlo = _mm256_set1_pd(detail::kBoxLo);
  for (; b + 4 <= b_end; b += 4) {
    const __m256d bound = _mm256_add_pd(vbase, _mm256_loadu_pd(btol + b));
    const __m256d dx =
        VMax(VMax(zero, _mm256_sub_pd(vaminx, _mm256_loadu_pd(bmaxx + b))),
             _mm256_sub_pd(_mm256_loadu_pd(bminx + b), vamaxx));
    const __m256d dy =
        VMax(VMax(zero, _mm256_sub_pd(vaminy, _mm256_loadu_pd(bmaxy + b))),
             _mm256_sub_pd(_mm256_loadu_pd(bminy + b), vamaxy));
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const __m256d b2 = _mm256_mul_pd(bound, bound);
    // Two-sided sqrt-free compare; the +-8-ulp ambiguous band resolves via
    // the exact scalar formula, so decisions match BoxPruneSweepScalar
    // bit-for-bit (see kernels_detail.h).
    unsigned prune =
        MaskOf(_mm256_cmp_pd(d2, _mm256_mul_pd(b2, vhi), _CMP_GT_OQ));
    const unsigned keep =
        MaskOf(_mm256_cmp_pd(d2, _mm256_mul_pd(b2, vlo), _CMP_LT_OQ));
    unsigned ambiguous = ~(prune | keep) & 0xFu;
    while (ambiguous != 0) {
      const unsigned l =
          static_cast<unsigned>(__builtin_ctz(ambiguous));
      ambiguous &= ambiguous - 1;
      const uint32_t j = b + l;
      const double lane_bound = eps_plus_atol + btol[j];
      if (detail::BoxPrunedExact(aminx, amaxx, aminy, amaxy, bminx[j],
                                 bmaxx[j], bminy[j], bmaxy[j], lane_bound)) {
        prune |= 1u << l;
      }
    }
    for (unsigned l = 0; l < 4; ++l) {
      if ((prune & (1u << l)) == 0) survivors[count++] = b + l;
    }
  }
  for (; b < b_end; ++b) {
    const double bound = eps_plus_atol + btol[b];
    if (!detail::BoxPrunedExact(aminx, amaxx, aminy, amaxy, bminx[b],
                                bmaxx[b], bminy[b], bmaxy[b], bound)) {
      survivors[count++] = b;
    }
  }
  return count;
}

void DistanceBatchAvx2(const SegmentSoa& segs, size_t a, size_t b_begin,
                       size_t count, bool dstar, double* out) {
  const SegLanes q = Broadcast(segs, a);
  size_t l = 0;
  for (; l + 4 <= count; l += 4) {
    _mm256_storeu_pd(out + l, DistLanes(q, Load4(segs, b_begin + l), dstar));
  }
  for (; l < count; ++l) {
    out[l] = detail::LaneDistance(segs, a, b_begin + l, dstar);
  }
}

}  // namespace convoy::simd

#else  // !(CONVOY_SIMD_AVX2 && __AVX2__): forward everything to scalar.

namespace convoy::simd {

bool Avx2Compiled() { return false; }

bool PairSegmentsQualifyAvx2(const SegmentSoa& segs, size_t a_begin,
                             size_t a_end, size_t b_begin, size_t b_end,
                             double eps, bool dstar, bool mbr_prune,
                             PairCounters* counters) {
  return PairSegmentsQualifyScalar(segs, a_begin, a_end, b_begin, b_end, eps,
                                   dstar, mbr_prune, counters);
}

uint32_t BoxPruneSweepAvx2(const double* bminx, const double* bmaxx,
                           const double* bminy, const double* bmaxy,
                           const double* btol, uint32_t b_begin,
                           uint32_t b_end, double aminx, double amaxx,
                           double aminy, double amaxy, double eps_plus_atol,
                           uint32_t* survivors) {
  return BoxPruneSweepScalar(bminx, bmaxx, bminy, bmaxy, btol, b_begin, b_end,
                             aminx, amaxx, aminy, amaxy, eps_plus_atol,
                             survivors);
}

void DistanceBatchAvx2(const SegmentSoa& segs, size_t a, size_t b_begin,
                       size_t count, bool dstar, double* out) {
  DistanceBatchScalar(segs, a, b_begin, count, dstar, out);
}

}  // namespace convoy::simd

#endif  // CONVOY_SIMD_AVX2 && __AVX2__
