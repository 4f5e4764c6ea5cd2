#ifndef DBLSH_SIMD_KERNELS_H_
#define DBLSH_SIMD_KERNELS_H_

// Internal: raw kernel entry points implemented in the vector-tier
// translation unit (l2_avx2.cc). Only simd.cc should include this; user
// code goes through simd::Active().

#include <cstddef>
#include <cstdint>

namespace dblsh {
namespace simd {
namespace internal {

/// Shared one-to-many driver: instantiated by each tier (simd.cc for
/// scalar, l2_avx2.cc for AVX2) with that tier's one-to-one kernel, so the
/// prefetch policy and the ids-vs-contiguous row logic exist exactly once
/// while still compiling under each tier's flags. `ids == nullptr` means
/// rows 0..n-1.
template <float (*KernelFn)(const float*, const float*, size_t)>
void L2SquaredBatchImpl(const float* query, const float* base, size_t dim,
                        const uint32_t* ids, size_t n, float* out) {
  constexpr size_t kAhead = 4;       // rows of prefetch distance
  constexpr size_t kMaxPrefetch = 512;  // bytes per row worth fetching ahead
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const size_t next = ids ? ids[i + kAhead] : i + kAhead;
      const char* p = reinterpret_cast<const char*>(base + next * dim);
      const size_t bytes = dim * sizeof(float);
      for (size_t off = 0; off < bytes && off < kMaxPrefetch; off += 64) {
        __builtin_prefetch(p + off, 0, 3);
      }
    }
    const size_t row = ids ? ids[i] : i;
    out[i] = KernelFn(query, base + row * dim, dim);
  }
}

/// SQ8 sibling of L2SquaredBatchImpl: one-to-many over u8 code rows (row r
/// starts at `codes + r * dim`, one byte per dimension), scored against a
/// prepared query (see ScalarSq8Score for the math). Same prefetch policy;
/// a code row is dim bytes — a quarter of the fp32 footprint, which is the
/// whole point — so the lookahead covers proportionally more rows per
/// cache line. `ids == nullptr` means rows 0..n-1.
template <float (*KernelFn)(const float*, const float*, const uint8_t*,
                            size_t)>
void Sq8ScoreBatchImpl(const float* prep, const float* scale,
                       const uint8_t* codes, size_t dim, const uint32_t* ids,
                       size_t n, float* out) {
  constexpr size_t kAhead = 4;          // rows of prefetch distance
  constexpr size_t kMaxPrefetch = 512;  // bytes per row worth fetching ahead
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const size_t next = ids ? ids[i + kAhead] : i + kAhead;
      const char* p = reinterpret_cast<const char*>(codes + next * dim);
      for (size_t off = 0; off < dim && off < kMaxPrefetch; off += 64) {
        __builtin_prefetch(p + off, 0, 3);
      }
    }
    const size_t row = ids ? ids[i] : i;
    out[i] = KernelFn(prep, scale, codes + row * dim, dim);
  }
}

// AVX2+FMA raw entry points. Contracts are uniform — no alignment
// requirement, any dim (tail handled scalar), results match the scalar
// tier to float rounding — so they are documented once here rather than
// per prototype. Call only after CPUID says the tier is supported (the
// dispatcher in simd.cc guarantees this).
#if defined(DBLSH_HAVE_AVX2)
/// ||a - b||^2 with 8-lane FMA accumulation.
float L2SquaredAvx2(const float* a, const float* b, size_t dim);
/// <a, b> with 8-lane FMA accumulation.
float DotAvx2(const float* a, const float* b, size_t dim);
/// One-to-many ||query - row||^2 (see L2SquaredBatchImpl for semantics).
void L2SquaredBatchAvx2(const float* query, const float* base, size_t dim,
                        const uint32_t* ids, size_t n, float* out);
/// SQ8 prepared-query vs u8-row score (see ScalarSq8Score), 8 lanes.
float Sq8ScoreAvx2(const float* prep, const float* scale,
                   const uint8_t* code, size_t dim);
/// SQ8 exact re-rank distance (see ScalarSq8L2Asym), 8 lanes.
float Sq8L2AsymAvx2(const float* query, const float* offset,
                    const float* scale, const uint8_t* code, size_t dim);
/// One-to-many SQ8 score (see Sq8ScoreBatchImpl for semantics).
void Sq8ScoreBatchAvx2(const float* prep, const float* scale,
                       const uint8_t* codes, size_t dim, const uint32_t* ids,
                       size_t n, float* out);
#endif

}  // namespace internal
}  // namespace simd
}  // namespace dblsh

#endif  // DBLSH_SIMD_KERNELS_H_
