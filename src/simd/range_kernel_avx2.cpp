// AVX2 variant of the range-compare kernel family. This translation unit
// is the only place x86 intrinsics are allowed (bd_lint rule `intrinsics`);
// it is compiled with -mavx2 on x86-64 and the dispatcher only selects it
// after __builtin_cpu_supports("avx2") says the CPU can run it.
//
// Comparison semantics: _CMP_LE_OQ / _CMP_LT_OQ are ordered-quiet, i.e.
// false when either operand is NaN — exactly the scalar
// (lo <= v) & (v < hi). Loads are unaligned (loadu), so the columns carry
// no alignment requirement beyond std::vector's.

#include "simd/range_kernel.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

namespace bluedove::simd {
namespace {

inline int range_mask(__m256d lo, __m256d hi, __m256d v) {
  const __m256d in = _mm256_and_pd(_mm256_cmp_pd(lo, v, _CMP_LE_OQ),
                                   _mm256_cmp_pd(v, hi, _CMP_LT_OQ));
  return _mm256_movemask_pd(in);
}

// base[idx[0..3]]. The unmasked _mm256_i32gather_pd starts from
// _mm256_undefined_pd(), a self-initialised local that GCC reports as
// maybe-uninitialized once inlined; the masked form with a zero source
// and every lane enabled is the same vgatherdpd.
inline __m256d gather4(const double* base, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

// mask -> the selected lane ids packed to the front (ascending), junk lanes
// repeating lane 0 behind them. Drives the branchless left-pack: a shuffle
// by kLaneLut[mask] followed by one unconditional 4-lane store replaces the
// data-dependent ctz loop, whose branch mispredicts dominate as soon as
// match density is non-trivial.
alignas(16) constexpr std::uint32_t kLaneLut[16][4] = {
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3}};

std::size_t scan_avx2(const double* lo, const double* hi, std::size_t n,
                      double v, std::uint32_t* sel) {
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask =
        range_mask(_mm256_loadu_pd(lo + i), _mm256_loadu_pd(hi + i), vv);
    const __m128i lanes =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kLaneLut[mask]));
    const __m128i idx =
        _mm_add_epi32(_mm_set1_epi32(static_cast<int>(i)), lanes);
    // Always stores 4 entries, of which only popcount(mask) survive. In
    // bounds: count <= i holds (at most one match per row seen so far), so
    // the last byte written is at index count+3 <= i+3 <= n-1.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + count), idx);
    count += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) {
    sel[count] = static_cast<std::uint32_t>(i);
    count += static_cast<std::size_t>((lo[i] <= v) & (v < hi[i]));
  }
  return count;
}

std::size_t compact_avx2(const double* lo, const double* hi, double v,
                         std::uint32_t* sel, std::size_t count) {
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t kept = 0;
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    // The group's indices live in a register before any in-place store, so
    // sel[kept] writes (kept <= j always) cannot clobber this iteration's
    // input; the store itself stays in bounds for the same count<=i
    // argument as scan_avx2 (kept+3 <= j+3 <= count-1).
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + j));
    const int mask = range_mask(gather4(lo, idx), gather4(hi, idx), vv);
    const __m128i perm =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kLaneLut[mask]));
    const __m128i packed = _mm_castps_si128(
        _mm_permutevar_ps(_mm_castsi128_ps(idx), perm));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + kept), packed);
    kept += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; j < count; ++j) {
    const std::uint32_t i = sel[j];
    sel[kept] = i;
    kept += static_cast<std::size_t>((lo[i] <= v) & (v < hi[i]));
  }
  return kept;
}

constexpr RangeKernel kAvx2Kernel{scan_avx2, compact_avx2, KernelKind::kAvx2,
                                  "avx2", 4};

}  // namespace

namespace detail {
const RangeKernel* avx2_kernel() { return &kAvx2Kernel; }
}  // namespace detail

}  // namespace bluedove::simd

#else  // not an AVX2-capable build target

namespace bluedove::simd::detail {
const RangeKernel* avx2_kernel() { return nullptr; }
}  // namespace bluedove::simd::detail

#endif
