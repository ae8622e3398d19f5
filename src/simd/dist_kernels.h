#ifndef CONVOY_SIMD_DIST_KERNELS_H_
#define CONVOY_SIMD_DIST_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace convoy::simd {

/// Borrowed structure-of-arrays view of timed segments laid out in scan
/// order (the CSR layout PolylineSoa builds per time partition). All arrays
/// are indexed by global segment index; ticks are stored as doubles (the
/// conversion from Tick is exact for |t| < 2^53, which the tick domain
/// guarantees), so the kernels never touch integers in the hot loop.
struct SegmentSoa {
  const double* x0 = nullptr;  ///< start endpoint
  const double* y0 = nullptr;
  const double* x1 = nullptr;  ///< end endpoint
  const double* y1 = nullptr;
  const double* t0 = nullptr;  ///< begin tick, exact double
  const double* t1 = nullptr;  ///< end tick, exact double
  const double* minx = nullptr;  ///< per-segment MBR
  const double* maxx = nullptr;
  const double* miny = nullptr;
  const double* maxy = nullptr;
  const double* tol = nullptr;  ///< per-segment simplification tolerance
};

/// Work tallies of one PairSegmentsQualify call. Both kernels process
/// candidates in identical blocks of (up to) four lanes and only early-exit
/// at block boundaries, so the tallies are bit-identical between the scalar
/// and the AVX2 path.
struct PairCounters {
  uint64_t segment_tests = 0;  ///< pairs whose exact distance was computed
  uint64_t mbr_rejects = 0;    ///< pairs rejected by the segment-MBR bound
};

/// The polyline e-neighborhood test over the SoA layout: true if some
/// examined segment pair (a in [a_begin,a_end), b in [b_begin,b_end))
/// satisfies dist(a, b) <= eps + tol[a] + tol[b], with dist = DLL (dstar
/// false) or D* (dstar true). The examined pair set is exactly the
/// reference merge scan's pointer walk — including its tie rule, which
/// advances both pointers on an equal end tick and therefore skips pairs
/// whose only shared tick is that boundary. Both ranges must be ascending
/// and contiguous in time (simplified-trajectory segments are). `mbr_prune`
/// rejects segment pairs whose MBRs are provably farther than the bound
/// (by more than the combined rounding slack, so the decision can never
/// contradict the exact distance test). The boolean result is identical to
/// the reference merge scan (tests/reference_impl.h) for every input.
bool PairSegmentsQualifyScalar(const SegmentSoa& segs, size_t a_begin,
                               size_t a_end, size_t b_begin, size_t b_end,
                               double eps, bool dstar, bool mbr_prune,
                               PairCounters* counters);
bool PairSegmentsQualifyAvx2(const SegmentSoa& segs, size_t a_begin,
                             size_t a_end, size_t b_begin, size_t b_end,
                             double eps, bool dstar, bool mbr_prune,
                             PairCounters* counters);
/// Runtime-dispatched (AVX2 when compiled in, supported, and not forced off).
bool PairSegmentsQualify(const SegmentSoa& segs, size_t a_begin, size_t a_end,
                         size_t b_begin, size_t b_end, double eps, bool dstar,
                         bool mbr_prune, PairCounters* counters);

/// The Lemma 2 polyline-level bounding-box sweep: for every candidate b in
/// [b_begin, b_end) decides `Dmin(box_a, box_b) > (eps_plus_atol + btol[b])`
/// exactly as the reference (fl-for-fl, including the sqrt), and writes the
/// survivors (ascending) to `survivors` (caller-sized to b_end - b_begin).
/// Returns the survivor count. The AVX2 path avoids the sqrt via a two-sided
/// squared-compare whose ambiguous band falls back to the exact scalar
/// formula, so its decisions are bit-identical to the scalar path.
uint32_t BoxPruneSweepScalar(const double* bminx, const double* bmaxx,
                             const double* bminy, const double* bmaxy,
                             const double* btol, uint32_t b_begin,
                             uint32_t b_end, double aminx, double amaxx,
                             double aminy, double amaxy, double eps_plus_atol,
                             uint32_t* survivors);
uint32_t BoxPruneSweepAvx2(const double* bminx, const double* bmaxx,
                           const double* bminy, const double* bmaxy,
                           const double* btol, uint32_t b_begin,
                           uint32_t b_end, double aminx, double amaxx,
                           double aminy, double amaxy, double eps_plus_atol,
                           uint32_t* survivors);
uint32_t BoxPruneSweep(const double* bminx, const double* bmaxx,
                       const double* bminy, const double* bmaxy,
                       const double* btol, uint32_t b_begin, uint32_t b_end,
                       double aminx, double amaxx, double aminy, double amaxy,
                       double eps_plus_atol, uint32_t* survivors);

/// Parity-test surface: the raw per-lane distances (DLL, or D* when `dstar`)
/// of query segment `a` against candidates [b_begin, b_begin + count),
/// written to `out`. The scalar path calls geom::DLL / geom::DStar directly;
/// the AVX2 path runs the vector lanes the qualify kernel uses — the parity
/// suite asserts the two are bit-identical.
void DistanceBatchScalar(const SegmentSoa& segs, size_t a, size_t b_begin,
                         size_t count, bool dstar, double* out);
void DistanceBatchAvx2(const SegmentSoa& segs, size_t a, size_t b_begin,
                       size_t count, bool dstar, double* out);

// --------------------------------------------------------------- policy --
/// True when the AVX2 kernel TU was compiled with AVX2 codegen
/// (CMake -DCONVOY_SIMD=ON and a compiler that accepts -mavx2).
bool Avx2Compiled();

/// True when the running CPU supports AVX2 (checked once, cached).
bool Avx2Available();

/// Forces every dispatched kernel onto the scalar path (debugging aid; also
/// how the bench isolates the SIMD contribution). Thread-safe; affects
/// calls that start after the store.
void ForceScalar(bool on);
bool ScalarForced();

/// "avx2" or "scalar" — what a dispatched call would run right now.
const char* ActiveKernelIsa();

}  // namespace convoy::simd

#endif  // CONVOY_SIMD_DIST_KERNELS_H_
