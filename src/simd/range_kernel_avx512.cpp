// AVX-512 variant of the range-compare kernel family (8 doubles per
// vector). Compiled only for x86-64, in its own translation unit with
// per-file -mavx512f -mavx512vl; the dispatcher selects it after
// __builtin_cpu_supports confirms both features at runtime.
//
// This is the ISA the selection-vector pattern was made for:
// _mm512_cmp_pd_mask produces the lane mask directly in a mask register
// and _mm256_mask_compressstoreu_epi32 left-packs the surviving indices in
// one instruction — no lane LUT, no over-store, exactly popcount(mask)
// entries written. Comparison predicates are the same ordered-quiet
// _CMP_LE_OQ / _CMP_LT_OQ as the AVX2 variant, so NaN deselects exactly
// like the scalar (lo <= v) & (v < hi).

#include "simd/range_kernel.h"

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512VL__)

#include <immintrin.h>

namespace bluedove::simd {
namespace {

inline __mmask8 range_mask8(__m512d lo, __m512d hi, __m512d v) {
  return _mm512_cmp_pd_mask(lo, v, _CMP_LE_OQ) &
         _mm512_cmp_pd_mask(v, hi, _CMP_LT_OQ);
}

// base[idx[0..7]]. The unmasked _mm512_i32gather_pd starts from
// _mm512_undefined_pd(), a self-initialised local that GCC reports as
// maybe-uninitialized once inlined; the masked form with a zero source
// and every lane enabled is the same vgatherdpd.
inline __m512d gather8(const double* base, __m256i idx) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx, base, 8);
}

std::size_t scan_avx512(const double* lo, const double* hi, std::size_t n,
                        double v, std::uint32_t* sel) {
  const __m512d vv = _mm512_set1_pd(v);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 mask =
        range_mask8(_mm512_loadu_pd(lo + i), _mm512_loadu_pd(hi + i), vv);
    _mm256_mask_compressstoreu_epi32(sel + count, mask, idx);
    count += static_cast<std::size_t>(__builtin_popcount(mask));
    idx = _mm256_add_epi32(idx, step);
  }
  for (; i < n; ++i) {
    sel[count] = static_cast<std::uint32_t>(i);
    count += static_cast<std::size_t>((lo[i] <= v) & (v < hi[i]));
  }
  return count;
}

std::size_t compact_avx512(const double* lo, const double* hi, double v,
                           std::uint32_t* sel, std::size_t count) {
  const __m512d vv = _mm512_set1_pd(v);
  std::size_t kept = 0;
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    // Indices are read into a register before the in-place compress-store
    // (kept <= j always), so the store cannot clobber this group's input.
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + j));
    const __mmask8 mask = range_mask8(gather8(lo, idx), gather8(hi, idx), vv);
    _mm256_mask_compressstoreu_epi32(sel + kept, mask, idx);
    kept += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  for (; j < count; ++j) {
    const std::uint32_t i = sel[j];
    sel[kept] = i;
    kept += static_cast<std::size_t>((lo[i] <= v) & (v < hi[i]));
  }
  return kept;
}

constexpr RangeKernel kAvx512Kernel{scan_avx512, compact_avx512,
                                    KernelKind::kAvx512, "avx512", 8};

}  // namespace

namespace detail {
const RangeKernel* avx512_kernel() { return &kAvx512Kernel; }
}  // namespace detail

}  // namespace bluedove::simd

#else  // not an AVX-512-capable build target

namespace bluedove::simd::detail {
const RangeKernel* avx512_kernel() { return nullptr; }
}  // namespace bluedove::simd::detail

#endif
