// Scalar reference kernels — the compile-time fallback (-DCONVOY_SIMD=OFF)
// and the runtime fallback (no AVX2 / ForceScalar). Distances go through
// the geom:: functions the legacy merge scan calls, so this path is
// reference-identical by construction; the AVX2 TU must match *it*.

#include "simd/kernels_detail.h"

namespace convoy::simd {

bool PairSegmentsQualifyScalar(const SegmentSoa& segs, size_t a_begin,
                               size_t a_end, size_t b_begin, size_t b_end,
                               double eps, bool dstar, bool mbr_prune,
                               PairCounters* counters) {
  return detail::QualifyScan(
      segs, a_begin, a_end, b_begin, b_end,
      [&](size_t a, size_t base, size_t lanes) {
        const double bound_base = eps + segs.tol[a];
        return detail::QualifyBlockScalar(segs, a, bound_base, base, lanes,
                                          dstar, mbr_prune, counters);
      });
}

uint32_t BoxPruneSweepScalar(const double* bminx, const double* bmaxx,
                             const double* bminy, const double* bmaxy,
                             const double* btol, uint32_t b_begin,
                             uint32_t b_end, double aminx, double amaxx,
                             double aminy, double amaxy, double eps_plus_atol,
                             uint32_t* survivors) {
  uint32_t count = 0;
  for (uint32_t b = b_begin; b < b_end; ++b) {
    const double bound = eps_plus_atol + btol[b];
    if (!detail::BoxPrunedExact(aminx, amaxx, aminy, amaxy, bminx[b],
                                bmaxx[b], bminy[b], bmaxy[b], bound)) {
      survivors[count++] = b;
    }
  }
  return count;
}

void DistanceBatchScalar(const SegmentSoa& segs, size_t a, size_t b_begin,
                         size_t count, bool dstar, double* out) {
  for (size_t l = 0; l < count; ++l) {
    out[l] = detail::LaneDistance(segs, a, b_begin + l, dstar);
  }
}

}  // namespace convoy::simd
