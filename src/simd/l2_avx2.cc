// AVX2+FMA distance kernels. This TU (alone) is compiled with
// -mavx2 -mfma; it must only be *called* after the runtime dispatcher has
// confirmed CPUID support, so nothing here may leak into headers.

#include "simd/kernels.h"

#if defined(DBLSH_HAVE_AVX2)

#include <immintrin.h>

namespace dblsh {
namespace simd {
namespace internal {
namespace {

/// Horizontal sum of an 8-lane register.
inline float Sum8(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

}  // namespace

float L2SquaredAvx2(const float* a, const float* b, size_t dim) {
  // Four independent accumulator chains: FMA latency is ~4 cycles at 2/cycle
  // throughput, so fewer chains leave the FMA ports idle on long vectors.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    const __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 16),
                                    _mm256_loadu_ps(b + i + 16));
    const __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 24),
                                    _mm256_loadu_ps(b + i + 24));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    acc2 = _mm256_fmadd_ps(d2, d2, acc2);
    acc3 = _mm256_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float total = Sum8(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                   _mm256_add_ps(acc2, acc3)));
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

float DotAvx2(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float total = Sum8(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                   _mm256_add_ps(acc2, acc3)));
  for (; i < dim; ++i) {
    total += a[i] * b[i];
  }
  return total;
}

void L2SquaredBatchAvx2(const float* query, const float* base, size_t dim,
                        const uint32_t* ids, size_t n, float* out) {
  L2SquaredBatchImpl<&L2SquaredAvx2>(query, base, dim, ids, n, out);
}

namespace {

/// 8 code bytes widened to an 8-lane float register (u8 -> i32 -> f32;
/// both conversions are exact for 0..255).
inline __m256 Load8Codes(const uint8_t* code) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code));
  return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
}

}  // namespace

float Sq8ScoreAvx2(const float* prep, const float* scale,
                   const uint8_t* code, size_t dim) {
  // Two accumulator chains (not four): each step already chains a widening
  // load + fnmadd + fmadd, so the FMA ports stay fed at lower unroll.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 = _mm256_fnmadd_ps(_mm256_loadu_ps(scale + i),
                                       Load8Codes(code + i),
                                       _mm256_loadu_ps(prep + i));
    const __m256 d1 = _mm256_fnmadd_ps(_mm256_loadu_ps(scale + i + 8),
                                       Load8Codes(code + i + 8),
                                       _mm256_loadu_ps(prep + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d = _mm256_fnmadd_ps(_mm256_loadu_ps(scale + i),
                                      Load8Codes(code + i),
                                      _mm256_loadu_ps(prep + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float total = Sum8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d = prep[i] - scale[i] * static_cast<float>(code[i]);
    total += d * d;
  }
  return total;
}

float Sq8L2AsymAvx2(const float* query, const float* offset,
                    const float* scale, const uint8_t* code, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    // Decode offset + scale * code in-register, then difference to query.
    const __m256 r0 = _mm256_fmadd_ps(_mm256_loadu_ps(scale + i),
                                      Load8Codes(code + i),
                                      _mm256_loadu_ps(offset + i));
    const __m256 r1 = _mm256_fmadd_ps(_mm256_loadu_ps(scale + i + 8),
                                      Load8Codes(code + i + 8),
                                      _mm256_loadu_ps(offset + i + 8));
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(query + i), r0);
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(query + i + 8), r1);
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 r = _mm256_fmadd_ps(_mm256_loadu_ps(scale + i),
                                     Load8Codes(code + i),
                                     _mm256_loadu_ps(offset + i));
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(query + i), r);
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float total = Sum8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d =
        query[i] - (offset[i] + scale[i] * static_cast<float>(code[i]));
    total += d * d;
  }
  return total;
}

void Sq8ScoreBatchAvx2(const float* prep, const float* scale,
                       const uint8_t* codes, size_t dim, const uint32_t* ids,
                       size_t n, float* out) {
  Sq8ScoreBatchImpl<&Sq8ScoreAvx2>(prep, scale, codes, dim, ids, n, out);
}

}  // namespace internal
}  // namespace simd
}  // namespace dblsh

#endif  // DBLSH_HAVE_AVX2
