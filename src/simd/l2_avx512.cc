// AVX-512F distance kernels. This TU (alone) is compiled with -mavx512f;
// it must only be *called* after the runtime dispatcher has confirmed
// CPUID support. Tails use masked loads, so there is no scalar remainder.

#include "simd/kernels.h"

#if defined(DBLSH_HAVE_AVX512)

#include <immintrin.h>

namespace dblsh {
namespace simd {
namespace internal {

float L2SquaredAvx512(const float* a, const float* b, size_t dim) {
  // Four independent accumulator chains to cover the FMA latency/throughput
  // product on 512-bit ports.
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= dim; i += 64) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    const __m512 d2 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 32),
                                    _mm512_loadu_ps(b + i + 32));
    const __m512 d3 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 48),
                                    _mm512_loadu_ps(b + i + 48));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
    acc2 = _mm512_fmadd_ps(d2, d2, acc2);
    acc3 = _mm512_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < dim) {
    const __mmask16 m = static_cast<__mmask16>((1u << (dim - i)) - 1u);
    const __m512 d = _mm512_maskz_sub_ps(m, _mm512_maskz_loadu_ps(m, a + i),
                                         _mm512_maskz_loadu_ps(m, b + i));
    acc1 = _mm512_fmadd_ps(d, d, acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                            _mm512_add_ps(acc2, acc3)));
}

float DotAvx512(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= dim; i += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32),
                           _mm512_loadu_ps(b + i + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48),
                           _mm512_loadu_ps(b + i + 48), acc3);
  }
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < dim) {
    const __mmask16 m = static_cast<__mmask16>((1u << (dim - i)) - 1u);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                           _mm512_maskz_loadu_ps(m, b + i), acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                            _mm512_add_ps(acc2, acc3)));
}

void L2SquaredBatchAvx512(const float* query, const float* base, size_t dim,
                          const uint32_t* ids, size_t n, float* out) {
  L2SquaredBatchImpl<&L2SquaredAvx512>(query, base, dim, ids, n, out);
}

namespace {

/// 16 code bytes widened to a 16-lane float register (u8 -> i32 -> f32;
/// both conversions are exact for 0..255).
inline __m512 Load16Codes(const uint8_t* code) {
  const __m128i bytes =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(code));
  return _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
}

}  // namespace

float Sq8ScoreAvx512(const float* prep, const float* scale,
                     const uint8_t* code, size_t dim) {
  // Scalar tail instead of the fp32 kernels' masked loads: a masked *byte*
  // load needs AVX-512BW and this TU only assumes -mavx512f.
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 d0 = _mm512_fnmadd_ps(_mm512_loadu_ps(scale + i),
                                       Load16Codes(code + i),
                                       _mm512_loadu_ps(prep + i));
    const __m512 d1 = _mm512_fnmadd_ps(_mm512_loadu_ps(scale + i + 16),
                                       Load16Codes(code + i + 16),
                                       _mm512_loadu_ps(prep + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 d = _mm512_fnmadd_ps(_mm512_loadu_ps(scale + i),
                                      Load16Codes(code + i),
                                      _mm512_loadu_ps(prep + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  float total = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d = prep[i] - scale[i] * static_cast<float>(code[i]);
    total += d * d;
  }
  return total;
}

float Sq8L2AsymAvx512(const float* query, const float* offset,
                      const float* scale, const uint8_t* code, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    // Decode offset + scale * code in-register, then difference to query.
    const __m512 r0 = _mm512_fmadd_ps(_mm512_loadu_ps(scale + i),
                                      Load16Codes(code + i),
                                      _mm512_loadu_ps(offset + i));
    const __m512 r1 = _mm512_fmadd_ps(_mm512_loadu_ps(scale + i + 16),
                                      Load16Codes(code + i + 16),
                                      _mm512_loadu_ps(offset + i + 16));
    const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(query + i), r0);
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(query + i + 16), r1);
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 r = _mm512_fmadd_ps(_mm512_loadu_ps(scale + i),
                                     Load16Codes(code + i),
                                     _mm512_loadu_ps(offset + i));
    const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(query + i), r);
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  float total = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d =
        query[i] - (offset[i] + scale[i] * static_cast<float>(code[i]));
    total += d * d;
  }
  return total;
}

void Sq8ScoreBatchAvx512(const float* prep, const float* scale,
                         const uint8_t* codes, size_t dim,
                         const uint32_t* ids, size_t n, float* out) {
  Sq8ScoreBatchImpl<&Sq8ScoreAvx512>(prep, scale, codes, dim, ids, n, out);
}

}  // namespace internal
}  // namespace simd
}  // namespace dblsh

#endif  // DBLSH_HAVE_AVX512
