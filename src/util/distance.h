#ifndef DBLSH_UTIL_DISTANCE_H_
#define DBLSH_UTIL_DISTANCE_H_

#include <cmath>
#include <cstddef>

#include "simd/scalar_kernels.h"
#include "simd/simd.h"

namespace dblsh {

// These wrappers forward to the runtime-dispatched kernel subsystem
// (src/simd/) so every existing call site picks up AVX2 without
// source changes. Batch verification should use the one-to-many entry
// points in core/verify.h instead of looping over these.
//
// Below kSimdDispatchMinDim the dispatch indirection (atomic load +
// non-inlinable function-pointer call) costs as much as the distance
// itself, so short vectors — the kd-tree/projected-space hot loops, whose
// configured dimensionality is m ~ 6-12 for every method here — keep the
// historical inline 4-way unrolled loop, which the scalar kernel tier
// reproduces bit-for-bit. From 16 floats (two 8-lane AVX2 registers) up,
// the SIMD kernels win despite the call overhead.
inline constexpr size_t kSimdDispatchMinDim = 16;

/// Squared Euclidean distance between two length-`dim` float vectors.
inline float L2DistanceSquared(const float* a, const float* b, size_t dim) {
  if (dim >= kSimdDispatchMinDim) return simd::Active().l2_squared(a, b, dim);
  return simd::ScalarL2Squared(a, b, dim);
}

/// Euclidean distance.
inline float L2Distance(const float* a, const float* b, size_t dim) {
  return std::sqrt(L2DistanceSquared(a, b, dim));
}

/// Inner product <a, b>.
inline float DotProduct(const float* a, const float* b, size_t dim) {
  if (dim >= kSimdDispatchMinDim) return simd::Active().dot(a, b, dim);
  return simd::ScalarDot(a, b, dim);
}

/// Squared L2 norm of a vector.
inline float NormSquared(const float* a, size_t dim) {
  return DotProduct(a, a, dim);
}

}  // namespace dblsh

#endif  // DBLSH_UTIL_DISTANCE_H_
