// Runtime kernel selection. The dispatched entry points pick AVX2 only when
// all three hold: the AVX2 TU was compiled with AVX2 codegen
// (-DCONVOY_SIMD=ON + compiler support), the running CPU reports AVX2, and
// the scalar path is not forced. Because both paths are bit-identical (see
// kernels_avx2.cc), dispatch never affects results — only speed.

#include <atomic>

#include "simd/dist_kernels.h"

namespace convoy::simd {

namespace {

// Invariant: a debugging/bench toggle read with relaxed ordering. Readers
// only need *some* current value — the scalar and AVX2 kernels return
// bit-identical results, so a racing toggle can change which code computes
// an answer but never the answer itself.
std::atomic<bool> g_force_scalar{false};

bool CpuHasAvx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

inline bool UseAvx2() {
  return Avx2Compiled() && Avx2Available() && !ScalarForced();
}

}  // namespace

bool Avx2Available() {
  static const bool available = CpuHasAvx2();
  return available;
}

void ForceScalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

bool ScalarForced() { return g_force_scalar.load(std::memory_order_relaxed); }

const char* ActiveKernelIsa() { return UseAvx2() ? "avx2" : "scalar"; }

bool PairSegmentsQualify(const SegmentSoa& segs, size_t a_begin, size_t a_end,
                         size_t b_begin, size_t b_end, double eps, bool dstar,
                         bool mbr_prune, PairCounters* counters) {
  if (UseAvx2()) {
    return PairSegmentsQualifyAvx2(segs, a_begin, a_end, b_begin, b_end, eps,
                                   dstar, mbr_prune, counters);
  }
  return PairSegmentsQualifyScalar(segs, a_begin, a_end, b_begin, b_end, eps,
                                   dstar, mbr_prune, counters);
}

uint32_t BoxPruneSweep(const double* bminx, const double* bmaxx,
                       const double* bminy, const double* bmaxy,
                       const double* btol, uint32_t b_begin, uint32_t b_end,
                       double aminx, double amaxx, double aminy, double amaxy,
                       double eps_plus_atol, uint32_t* survivors) {
  if (UseAvx2()) {
    return BoxPruneSweepAvx2(bminx, bmaxx, bminy, bmaxy, btol, b_begin, b_end,
                             aminx, amaxx, aminy, amaxy, eps_plus_atol,
                             survivors);
  }
  return BoxPruneSweepScalar(bminx, bmaxx, bminy, bmaxy, btol, b_begin, b_end,
                             aminx, amaxx, aminy, amaxy, eps_plus_atol,
                             survivors);
}

}  // namespace convoy::simd
