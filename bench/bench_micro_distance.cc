// Microbenchmark for the SIMD distance-kernel subsystem (src/simd/).
//
// Measures the candidate-verification hot path: one query against a stream
// of randomly-ordered row ids, comparing
//   (a) the historical code path — a per-candidate call of the *scalar*
//       one-to-one kernel (what every method's verification loop did before
//       the batch migration), against
//   (b) each compiled-and-runnable tier's one-to-many batch kernel
//       (prefetched, as used by core/verify.h),
// plus one row for PQ ADC: per-candidate scalar calls against PqStore's
// prefetching batch loop (PQ scoring has no vector tier).
//
// Self-timed on purpose (no google-benchmark dependency), so it always
// builds and the "batch >= 2x scalar at dim >= 128" acceptance check can
// run anywhere. Usage: bench_micro_distance [n_rows]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dataset/float_matrix.h"
#include "dataset/vector_store.h"
#include "simd/scalar_kernels.h"
#include "simd/simd.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using dblsh::Rng;
using dblsh::Timer;
using dblsh::simd::DistanceKernels;
using dblsh::simd::KernelKind;

constexpr double kMinMeasureSec = 0.05;

/// Runs `fn` in growing rounds until it has consumed kMinMeasureSec of
/// wall clock; returns nanoseconds per inner item.
template <typename Fn>
double TimePerItem(size_t items_per_call, Fn&& fn) {
  size_t reps = 1;
  for (;;) {
    Timer t;
    for (size_t r = 0; r < reps; ++r) fn();
    const double sec = t.ElapsedSec();
    if (sec >= kMinMeasureSec) {
      return sec * 1e9 / (static_cast<double>(reps) *
                          static_cast<double>(items_per_call));
    }
    reps = sec <= 0.0 ? reps * 8 : reps * 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Working-set cap: this bench measures *kernel* throughput, so the
  // candidate rows must stay cache-resident — out of cache, every kernel
  // degenerates to the same memory-bandwidth number. Pass an explicit row
  // count to measure a bandwidth-bound sweep instead.
  const size_t max_bytes = size_t{1536} * 1024;
  const size_t n_override = argc > 1 ? std::stoul(argv[1]) : 0;
  const size_t dims[] = {16, 64, 128, 384, 960};

  std::vector<KernelKind> tiers = {KernelKind::kScalar};
  if (dblsh::simd::Supported(KernelKind::kAvx2)) {
    tiers.push_back(KernelKind::kAvx2);
  }

  // Grab each tier's dispatch table once; "scalar loop" below always means
  // per-candidate calls of the scalar one-to-one kernel.
  std::vector<DistanceKernels> tables;
  for (const KernelKind kind : tiers) {
    if (!dblsh::simd::ForceKernel(kind).ok()) return 1;
    tables.push_back(dblsh::simd::Active());
  }
  dblsh::simd::UseAutoKernel();
  const DistanceKernels& scalar = tables[0];

  std::printf("bench_micro_distance: auto tier = %s\n",
              dblsh::simd::Active().name);
  std::printf("%6s  %6s  %18s  %14s  %9s\n", "dim", "rows", "kernel",
              "ns/candidate", "speedup");

  float checksum = 0.f;
  for (const size_t dim : dims) {
    const size_t n =
        n_override > 0
            ? n_override
            : std::clamp<size_t>(max_bytes / (dim * sizeof(float)), 256,
                                 8192);
    Rng rng(static_cast<uint64_t>(dim) * 977 + 1);
    std::vector<float> base(n * dim), query(dim);
    for (auto& v : base) v = static_cast<float>(rng.Gaussian());
    for (auto& v : query) v = static_cast<float>(rng.Gaussian());
    // Random visit order: index-emitted candidates are not sequential.
    std::vector<uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.UniformInt(i + 1)]);
    }
    std::vector<float> out(n);

    const double scalar_loop_ns = TimePerItem(n, [&] {
      float acc = 0.f;
      for (size_t i = 0; i < n; ++i) {
        acc += scalar.l2_squared(query.data(),
                                 base.data() + static_cast<size_t>(ids[i]) * dim,
                                 dim);
      }
      checksum += acc;
    });
    std::printf("%6zu  %6zu  %18s  %14.2f  %8.2fx\n", dim, n, "scalar loop",
                scalar_loop_ns, 1.0);

    for (const DistanceKernels& table : tables) {
      const double batch_ns = TimePerItem(n, [&] {
        table.l2_squared_batch(query.data(), base.data(), dim, ids.data(), n,
                               out.data());
        checksum += out[0];
      });
      std::printf("%6zu  %6zu  %12s batch  %14.2f  %8.2fx\n", dim, n,
                  table.name, batch_ns, scalar_loop_ns / batch_ns);
    }

    // PQ ADC scan at the same candidate stream: m = floor(0.48 * dim) code
    // bytes per row (the finest codebook under 0.12x of fp32, matching the
    // serving default), scored via per-query LUT accumulation. PQ has one
    // scalar kernel on every tier: the row compares per-candidate
    // ScalarPqAdc calls with PqStore::ScoreBatch's prefetching loop.
    const size_t m = std::max<size_t>(1, (dim * 48) / 100);
    const dblsh::PqStore store(
        std::make_unique<dblsh::FloatMatrix>(n, dim, base), m);
    std::vector<float> lut;
    store.PrepareQuery(query.data(), &lut);
    const uint8_t* codes = store.codes().data();
    const double adc_loop_ns = TimePerItem(n, [&] {
      float acc = 0.f;
      for (size_t i = 0; i < n; ++i) {
        acc += dblsh::simd::ScalarPqAdc(
            lut.data(), codes + static_cast<size_t>(ids[i]) * m, m);
      }
      checksum += acc;
    });
    const double adc_batch_ns = TimePerItem(n, [&] {
      store.ScoreBatch(lut.data(), 0, ids.data(), n, out.data());
      checksum += out[0];
    });
    std::printf("%6zu  %6zu  %18s  %14.2f  %8.2fx\n", dim, n,
                ("adc m=" + std::to_string(m) + " batch").c_str(),
                adc_batch_ns, adc_loop_ns / adc_batch_ns);
  }
  // Keep the accumulators alive.
  std::printf("(checksum %g)\n", static_cast<double>(checksum));
  return 0;
}
