#include "simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "simd/kernels.h"
#include "simd/scalar_kernels.h"

namespace dblsh {
namespace simd {
namespace {

// ------------------------------------------------------------- scalar ----
// The scalar tier is the pre-SIMD util/distance.h kernel (4-way unrolled
// partial sums) — literally the same inline functions, shared via
// scalar_kernels.h — so forcing kScalar yields exactly the historical
// results.

float L2SquaredScalar(const float* a, const float* b, size_t dim) {
  return ScalarL2Squared(a, b, dim);
}

float DotScalar(const float* a, const float* b, size_t dim) {
  return ScalarDot(a, b, dim);
}

void L2SquaredBatchScalar(const float* query, const float* base, size_t dim,
                          const uint32_t* ids, size_t n, float* out) {
  internal::L2SquaredBatchImpl<&L2SquaredScalar>(query, base, dim, ids, n,
                                                 out);
}

float Sq8ScoreScalarKernel(const float* prep, const float* scale,
                           const uint8_t* code, size_t dim) {
  return ScalarSq8Score(prep, scale, code, dim);
}

float Sq8L2AsymScalarKernel(const float* query, const float* offset,
                            const float* scale, const uint8_t* code,
                            size_t dim) {
  return ScalarSq8L2Asym(query, offset, scale, code, dim);
}

void Sq8ScoreBatchScalar(const float* prep, const float* scale,
                         const uint8_t* codes, size_t dim,
                         const uint32_t* ids, size_t n, float* out) {
  internal::Sq8ScoreBatchImpl<&Sq8ScoreScalarKernel>(prep, scale, codes, dim,
                                                     ids, n, out);
}

constexpr DistanceKernels kScalarKernels = {
    &L2SquaredScalar, &DotScalar, &L2SquaredBatchScalar,
    &Sq8ScoreScalarKernel, &Sq8ScoreBatchScalar, &Sq8L2AsymScalarKernel,
    KernelKind::kScalar, "scalar"};

#if defined(DBLSH_HAVE_AVX2)
constexpr DistanceKernels kAvx2Kernels = {
    &internal::L2SquaredAvx2, &internal::DotAvx2,
    &internal::L2SquaredBatchAvx2, &internal::Sq8ScoreAvx2,
    &internal::Sq8ScoreBatchAvx2, &internal::Sq8L2AsymAvx2,
    KernelKind::kAvx2, "avx2"};
#endif

// ----------------------------------------------------------- dispatch ----

bool CpuSupports(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return true;
    case KernelKind::kAvx2:
#if defined(DBLSH_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

const DistanceKernels* TableFor(KernelKind kind) {
  switch (kind) {
#if defined(DBLSH_HAVE_AVX2)
    case KernelKind::kAvx2:
      return &kAvx2Kernels;
#endif
    default:
      return &kScalarKernels;
  }
}

/// Best tier the CPU can run, honoring a DBLSH_SIMD environment override.
/// An override that cannot be honored falls back to CPUID selection with a
/// stderr warning — silently comparing the wrong kernels would defeat the
/// variable's purpose (apples-to-apples runs on mixed hardware).
const DistanceKernels* Detect() {
  if (const char* env = std::getenv("DBLSH_SIMD")) {
    const std::string v(env);
    if (v == "scalar" || v == "avx2") {
      const KernelKind forced =
          v == "scalar" ? KernelKind::kScalar : KernelKind::kAvx2;
      if (CpuSupports(forced)) return TableFor(forced);
      std::fprintf(stderr,
                   "dblsh: DBLSH_SIMD=%s is not available on this "
                   "CPU/binary; falling back to auto selection\n",
                   env);
    } else if (v != "auto") {
      std::fprintf(stderr,
                   "dblsh: unrecognized DBLSH_SIMD=\"%s\" (expected scalar"
                   " | avx2 | auto); using auto selection\n",
                   env);
    }
  }
  if (CpuSupports(KernelKind::kAvx2)) return TableFor(KernelKind::kAvx2);
  return TableFor(KernelKind::kScalar);
}

/// Startup selection, computed (and any DBLSH_SIMD warning printed) once
/// per process.
const DistanceKernels* AutoTable() {
  static const DistanceKernels* table = Detect();
  return table;
}

std::atomic<const DistanceKernels*> g_active{nullptr};

}  // namespace

const DistanceKernels& Active() {
  const DistanceKernels* table = g_active.load(std::memory_order_relaxed);
  if (table == nullptr) {
    // Benign race: AutoTable() is idempotent and returns static storage.
    table = AutoTable();
    g_active.store(table, std::memory_order_relaxed);
  }
  return *table;
}

bool Supported(KernelKind kind) { return CpuSupports(kind); }

Status ForceKernel(KernelKind kind) {
  if (!CpuSupports(kind)) {
    return Status::InvalidArgument(
        std::string("SIMD kernel tier \"") + KernelName(kind) +
        "\" is not available (not compiled in or unsupported by this CPU)");
  }
  g_active.store(TableFor(kind), std::memory_order_relaxed);
  return Status::OK();
}

void UseAutoKernel() {
  g_active.store(AutoTable(), std::memory_order_relaxed);
}

const char* KernelName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace simd
}  // namespace dblsh
