#ifndef DBLSH_SIMD_SCALAR_KERNELS_H_
#define DBLSH_SIMD_SCALAR_KERNELS_H_

// The portable scalar kernels, shared verbatim by the kScalar dispatch
// tier (simd.cc), the small-dim inline fast path in util/distance.h and
// PqStore's ADC scan (dataset/vector_store.cc). Keeping one definition is
// what makes "forced scalar is bit-identical to the historical results" a
// structural guarantee instead of a comment. Header-only and
// dependency-free on purpose: distance.h includes it, so it must not pull
// in simd.h or anything heavier.

#include <cstddef>
#include <cstdint>

namespace dblsh {
namespace simd {

/// ||a - b||^2 in float with 4 independent accumulators (fixed summation
/// order: the reference the vector tiers are property-tested against).
/// No alignment requirement; any dim.
inline float ScalarL2Squared(const float* a, const float* b, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

/// <a, b> in float, same unroll/summation structure as ScalarL2Squared.
inline float ScalarDot(const float* a, const float* b, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < dim; ++i) {
    acc0 += a[i] * b[i];
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

/// SQ8 hot-path score between a prepared query and one u8 row:
/// sum_d (prep[d] - scale[d] * code[d])^2. `prep` is the per-query
/// precomputation scale[d] * quantize(query)[d] (see Sq8Store::PrepareQuery);
/// with both sides expressed in code space the per-dimension offsets cancel,
/// so the row side needs only one u8 load and one FMA-shaped multiply. Same
/// unroll/summation structure as ScalarL2Squared: this is the reference the
/// vector tiers are property-tested against.
inline float ScalarSq8Score(const float* prep, const float* scale,
                            const uint8_t* code, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 = prep[i] - scale[i] * static_cast<float>(code[i]);
    const float d1 = prep[i + 1] - scale[i + 1] * static_cast<float>(code[i + 1]);
    const float d2 = prep[i + 2] - scale[i + 2] * static_cast<float>(code[i + 2]);
    const float d3 = prep[i + 3] - scale[i + 3] * static_cast<float>(code[i + 3]);
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const float d = prep[i] - scale[i] * static_cast<float>(code[i]);
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

/// SQ8 exact re-rank distance between the raw fp32 query and one decoded
/// u8 row: sum_d (query[d] - (offset[d] + scale[d] * code[d]))^2. Unlike
/// ScalarSq8Score the query side is *not* quantized, so this removes the
/// query-quantization error from the final ordering — the re-rank scorer.
inline float ScalarSq8L2Asym(const float* query, const float* offset,
                             const float* scale, const uint8_t* code,
                             size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 =
        query[i] - (offset[i] + scale[i] * static_cast<float>(code[i]));
    const float d1 = query[i + 1] -
        (offset[i + 1] + scale[i + 1] * static_cast<float>(code[i + 1]));
    const float d2 = query[i + 2] -
        (offset[i + 2] + scale[i + 2] * static_cast<float>(code[i + 2]));
    const float d3 = query[i + 3] -
        (offset[i + 3] + scale[i + 3] * static_cast<float>(code[i + 3]));
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const float d =
        query[i] - (offset[i] + scale[i] * static_cast<float>(code[i]));
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

/// PQ ADC score between a per-query lookup table and one m-byte code row:
/// sum_j lut[j * 256 + code[j]] for j in [0, m) — every subspace
/// contributes one table lookup, no arithmetic on the row side at all
/// (PqStore::PrepareQuery bakes the squared sub-distances into `lut`).
///
/// PQ has no vector tier (a score is m dependent table loads; AVX2/AVX-512
/// gather kernels measured 0.6-1.4x this loop at m <= 184), so this is
/// the one ADC kernel on every CPU and PqStore::ScoreBatch calls it
/// directly. Its summation order is fixed: 8 bins where bin[l]
/// accumulates the terms j == l (mod 8) in ascending j, then the reduce
/// ((b0+b4)+(b2+b6)) + ((b1+b5)+(b3+b7)). Changing it changes PQ scores,
/// and thus search results, in the last bits.
inline float ScalarPqAdc(const float* lut, const uint8_t* code, size_t m) {
  float bins[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    bins[0] += lut[(j + 0) * 256 + code[j + 0]];
    bins[1] += lut[(j + 1) * 256 + code[j + 1]];
    bins[2] += lut[(j + 2) * 256 + code[j + 2]];
    bins[3] += lut[(j + 3) * 256 + code[j + 3]];
    bins[4] += lut[(j + 4) * 256 + code[j + 4]];
    bins[5] += lut[(j + 5) * 256 + code[j + 5]];
    bins[6] += lut[(j + 6) * 256 + code[j + 6]];
    bins[7] += lut[(j + 7) * 256 + code[j + 7]];
  }
  for (; j < m; ++j) {
    bins[j & 7] += lut[j * 256 + code[j]];
  }
  return ((bins[0] + bins[4]) + (bins[2] + bins[6])) +
         ((bins[1] + bins[5]) + (bins[3] + bins[7]));
}

}  // namespace simd
}  // namespace dblsh

#endif  // DBLSH_SIMD_SCALAR_KERNELS_H_
