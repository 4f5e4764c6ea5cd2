#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "core/verify.h"
#include "dataset/synthetic.h"
#include "dataset/vector_store.h"
#include "simd/scalar_kernels.h"
#include "simd/simd.h"
#include "util/random.h"

namespace dblsh {
namespace {

using simd::KernelKind;

/// Every tier the CPU can run; kScalar is always present.
std::vector<KernelKind> SupportedKinds() {
  std::vector<KernelKind> kinds = {KernelKind::kScalar};
  if (simd::Supported(KernelKind::kAvx2)) kinds.push_back(KernelKind::kAvx2);
  return kinds;
}

/// Pins a kernel for the duration of one test and always restores auto
/// dispatch, so test order can't leak a forced tier.
class SimdKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::UseAutoKernel(); }
};

double ReferenceL2Squared(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

double ReferenceDot(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

// Property test: every compiled-and-runnable dispatch tier agrees with a
// double-precision reference on odd dimensions (scalar tails) and on
// unaligned pointers (all loads are loadu).
TEST_F(SimdKernelTest, AllTiersMatchDoubleReferenceAcrossDimsAndAlignment) {
  const size_t dims[] = {1, 3, 7, 17, 100, 960};
  Rng rng(20260731);
  for (const size_t dim : dims) {
    // Over-allocate so we can offset by one float to force misalignment.
    std::vector<float> a_buf(dim + 1), b_buf(dim + 1);
    for (auto& v : a_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : b_buf) v = static_cast<float>(rng.Gaussian());
    for (const size_t offset : {size_t{0}, size_t{1}}) {
      const float* a = a_buf.data() + offset;
      const float* b = b_buf.data() + offset;
      const double ref_l2 = ReferenceL2Squared(a, b, dim);
      const double ref_dot = ReferenceDot(a, b, dim);
      // Relative tolerance scaled to float accumulation error over `dim`
      // terms of O(1) magnitude.
      const double tol = 1e-4 * std::max(1.0, static_cast<double>(dim));
      for (const KernelKind kind : SupportedKinds()) {
        SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                     " dim=" + std::to_string(dim) +
                     " offset=" + std::to_string(offset));
        ASSERT_TRUE(simd::ForceKernel(kind).ok());
        const auto& kernels = simd::Active();
        EXPECT_EQ(kernels.kind, kind);
        EXPECT_NEAR(kernels.l2_squared(a, b, dim), ref_l2,
                    tol * std::max(1.0, std::abs(ref_l2)));
        EXPECT_NEAR(kernels.dot(a, b, dim), ref_dot,
                    tol * std::max(1.0, std::abs(ref_dot)));
      }
    }
  }
}

// The one-to-many batch entry point must agree bit-for-bit with n calls of
// the same tier's one-to-one kernel, for both an id list and the
// contiguous (ids == nullptr) form.
TEST_F(SimdKernelTest, BatchMatchesOneToOnePerTier) {
  const size_t dims[] = {1, 3, 7, 17, 100, 960};
  const size_t n = 57;  // not a multiple of any chunk size
  Rng rng(42);
  for (const size_t dim : dims) {
    std::vector<float> base(n * dim), query(dim);
    for (auto& v : base) v = static_cast<float>(rng.Gaussian());
    for (auto& v : query) v = static_cast<float>(rng.Gaussian());
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>((i * 13) % n);  // shuffled, in-range
    }
    for (const KernelKind kind : SupportedKinds()) {
      SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                   " dim=" + std::to_string(dim));
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      const auto& kernels = simd::Active();
      std::vector<float> out(n, -1.f);
      kernels.l2_squared_batch(query.data(), base.data(), dim, ids.data(), n,
                               out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.l2_squared(query.data(),
                                             base.data() + ids[i] * dim, dim))
            << "id " << ids[i];
      }
      kernels.l2_squared_batch(query.data(), base.data(), dim, nullptr, n,
                               out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.l2_squared(query.data(),
                                             base.data() + i * dim, dim))
            << "row " << i;
      }
    }
  }
}

double ReferenceSq8Score(const float* prep, const float* scale,
                         const uint8_t* code, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(prep[i]) -
                     static_cast<double>(scale[i]) * double(code[i]);
    acc += d * d;
  }
  return acc;
}

double ReferenceSq8L2Asym(const float* query, const float* offset,
                          const float* scale, const uint8_t* code,
                          size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d =
        static_cast<double>(query[i]) -
        (static_cast<double>(offset[i]) +
         static_cast<double>(scale[i]) * double(code[i]));
    acc += d * d;
  }
  return acc;
}

// The u8 asymmetric kernels across every runnable tier, odd dims (scalar
// tails, masked/partial vector tails) and unaligned inputs, against
// double-precision references.
TEST_F(SimdKernelTest, Sq8TiersMatchDoubleReferenceAcrossDimsAndAlignment) {
  const size_t dims[] = {1, 3, 7, 17, 31, 100, 960};
  Rng rng(20260808);
  for (const size_t dim : dims) {
    std::vector<float> prep_buf(dim + 1), scale_buf(dim + 1),
        offset_buf(dim + 1), query_buf(dim + 1);
    std::vector<uint8_t> code_buf(dim + 1);
    for (auto& v : prep_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : scale_buf) {
      v = 0.01f + std::fabs(static_cast<float>(rng.Gaussian()));
    }
    for (auto& v : offset_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : query_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : code_buf) {
      v = static_cast<uint8_t>(rng.UniformInt(256));
    }
    for (const size_t offset : {size_t{0}, size_t{1}}) {
      const float* prep = prep_buf.data() + offset;
      const float* scale = scale_buf.data() + offset;
      const float* off = offset_buf.data() + offset;
      const float* query = query_buf.data() + offset;
      const uint8_t* code = code_buf.data() + offset;
      const double ref_score = ReferenceSq8Score(prep, scale, code, dim);
      const double ref_asym = ReferenceSq8L2Asym(query, off, scale, code, dim);
      // Codes reach 255, so per-term magnitudes are O(scale * 255);
      // scale the tolerance to the reference value.
      const double tol = 1e-4 * std::max(1.0, static_cast<double>(dim));
      for (const KernelKind kind : SupportedKinds()) {
        SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                     " dim=" + std::to_string(dim) +
                     " offset=" + std::to_string(offset));
        ASSERT_TRUE(simd::ForceKernel(kind).ok());
        const auto& kernels = simd::Active();
        EXPECT_NEAR(kernels.sq8_score(prep, scale, code, dim), ref_score,
                    tol * std::max(1.0, ref_score));
        EXPECT_NEAR(kernels.sq8_l2_asym(query, off, scale, code, dim),
                    ref_asym, tol * std::max(1.0, ref_asym));
      }
    }
  }
}

// sq8_score_batch must agree bit-for-bit with n calls of the same tier's
// sq8_score, for both the id-list and the contiguous (ids == nullptr)
// forms.
TEST_F(SimdKernelTest, Sq8BatchMatchesOneToOnePerTier) {
  const size_t dims[] = {1, 3, 7, 17, 100, 960};
  const size_t n = 57;  // not a multiple of any chunk size
  Rng rng(4242);
  for (const size_t dim : dims) {
    std::vector<uint8_t> codes(n * dim);
    std::vector<float> prep(dim), scale(dim);
    for (auto& v : codes) v = static_cast<uint8_t>(rng.UniformInt(256));
    for (auto& v : prep) v = static_cast<float>(rng.Gaussian());
    for (auto& v : scale) {
      v = 0.01f + std::fabs(static_cast<float>(rng.Gaussian()));
    }
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>((i * 13) % n);  // shuffled, in-range
    }
    for (const KernelKind kind : SupportedKinds()) {
      SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                   " dim=" + std::to_string(dim));
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      const auto& kernels = simd::Active();
      std::vector<float> out(n, -1.f);
      kernels.sq8_score_batch(prep.data(), scale.data(), codes.data(), dim,
                              ids.data(), n, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.sq8_score(prep.data(), scale.data(),
                                            codes.data() + ids[i] * dim, dim))
            << "id " << ids[i];
      }
      kernels.sq8_score_batch(prep.data(), scale.data(), codes.data(), dim,
                              nullptr, n, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.sq8_score(prep.data(), scale.data(),
                                            codes.data() + i * dim, dim))
            << "row " << i;
      }
    }
  }
}

double ReferencePqAdc(const float* lut, const uint8_t* code, size_t m) {
  double acc = 0.0;
  for (size_t j = 0; j < m; ++j) {
    acc += static_cast<double>(lut[j * 256 + code[j]]);
  }
  return acc;
}

// PQ ADC has one scalar kernel on every CPU (no dispatch tier; the test
// names predate that). It must match a double-precision reference across
// odd subspace counts (the 8-bin loop's tails) and unaligned LUT pointers.
TEST_F(SimdKernelTest, PqAdcTiersMatchDoubleReferenceAndEachOther) {
  const size_t ms[] = {1, 3, 5, 7, 8, 9, 16, 17, 31, 64};
  Rng rng(20260809);
  for (const size_t m : ms) {
    std::vector<float> lut_buf(m * 256 + 1);
    std::vector<uint8_t> code_buf(m + 1);
    for (auto& v : lut_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : code_buf) v = static_cast<uint8_t>(rng.UniformInt(256));
    for (const size_t offset : {size_t{0}, size_t{1}}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   " offset=" + std::to_string(offset));
      const float* lut = lut_buf.data() + offset;
      const uint8_t* code = code_buf.data() + offset;
      const double ref = ReferencePqAdc(lut, code, m);
      const double tol = 1e-5 * std::max(1.0, static_cast<double>(m));
      EXPECT_NEAR(simd::ScalarPqAdc(lut, code, m), ref,
                  tol * std::max(1.0, std::abs(ref)));
    }
  }
}

// PqStore::ScoreBatch (the prefetching batch loop) must agree bit-for-bit
// with one ScalarPqAdc call per row, for both the id-list and the
// contiguous (ids == nullptr, offset by `start`) forms, at odd n.
TEST_F(SimdKernelTest, PqAdcBatchMatchesOneToOnePerTier) {
  const size_t ms[] = {1, 3, 8, 16, 17, 64};
  const size_t n = 57;
  Rng rng(424242);
  for (const size_t m : ms) {
    SCOPED_TRACE("m=" + std::to_string(m));
    auto data = std::make_unique<FloatMatrix>(n + 3, m * 2);
    for (auto& v : data->mutable_data()) {
      v = static_cast<float>(rng.Gaussian());
    }
    const PqStore store(std::move(data), m);
    std::vector<float> query(m * 2);
    for (auto& v : query) v = static_cast<float>(rng.Gaussian());
    std::vector<float> lut;
    store.PrepareQuery(query.data(), &lut);
    const uint8_t* codes = store.codes().data();
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>((i * 13) % (n + 3));  // shuffled
    }
    std::vector<float> out(n, -1.f);
    store.ScoreBatch(lut.data(), 0, ids.data(), n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], simd::ScalarPqAdc(lut.data(), codes + ids[i] * m, m))
          << "id " << ids[i];
    }
    store.ScoreBatch(lut.data(), 3, nullptr, n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i],
                simd::ScalarPqAdc(lut.data(), codes + (i + 3) * m, m))
          << "row " << i + 3;
    }
  }
}

TEST_F(SimdKernelTest, ForceKernelRejectsUnavailableTiers) {
  EXPECT_TRUE(simd::ForceKernel(KernelKind::kScalar).ok());
  // Value 2 was the AVX-512 tier; it is no tier now, so the rejection
  // branch runs on every CPU and must leave the forced tier in place.
  const Status s = simd::ForceKernel(static_cast<KernelKind>(2));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(simd::Active().kind, KernelKind::kScalar);
  simd::UseAutoKernel();
  EXPECT_TRUE(simd::Supported(simd::Active().kind));
}

// VerifyCandidates must honor per-candidate early exits: the budget stops
// the pass at exactly the budgeted push even mid-chunk.
TEST_F(SimdKernelTest, VerifyCandidatesHonorsBudgetMidChunk) {
  const size_t n = 100, dim = 8;
  FloatMatrix data(n, dim);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      data.at(i, j) = static_cast<float>(rng.Gaussian());
    }
  }
  TopKHeap heap(5);
  QueryStats stats;
  VerifyOptions options;
  options.budget = 37;  // inside the second chunk
  const VerifyResult result = VerifyCandidates(
      data.row(0), data, /*ids=*/nullptr, n, options, &heap, &stats);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.pushed, 37u);
  EXPECT_EQ(stats.candidates_verified, 37u);
}

// Cross-kernel equivalence: each of the 12 registered methods must return
// the same neighbor ids (and distances up to float accumulation error)
// regardless of the dispatch tier. Build and query are repeated per tier so
// index construction (r0 estimation etc.) also runs through the kernels.
TEST_F(SimdKernelTest, AllMethodsReturnSameResultsAcrossTiers) {
  const FloatMatrix data =
      GenerateClustered({.n = 1200, .dim = 32, .clusters = 10, .seed = 77});
  FloatMatrix queries;
  for (size_t i = 0; i < 6; ++i) {
    queries.AppendRow(data.row(i * 199), data.cols());
  }
  const size_t k = 8;
  for (const std::string& name : IndexFactory::ListMethods()) {
    SCOPED_TRACE(name);
    std::vector<std::vector<std::vector<Neighbor>>> per_kind;
    for (const KernelKind kind : SupportedKinds()) {
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      auto made = IndexFactory::Make(name);
      ASSERT_TRUE(made.ok()) << made.status().ToString();
      ASSERT_TRUE(made.value()->Build(&data).ok());
      std::vector<std::vector<Neighbor>> results;
      for (size_t q = 0; q < queries.rows(); ++q) {
        results.push_back(made.value()->Query(queries.row(q), k));
      }
      per_kind.push_back(std::move(results));
    }
    for (size_t v = 1; v < per_kind.size(); ++v) {
      SCOPED_TRACE(std::string("tier ") +
                   simd::KernelName(SupportedKinds()[v]));
      for (size_t q = 0; q < queries.rows(); ++q) {
        ASSERT_EQ(per_kind[v][q].size(), per_kind[0][q].size())
            << "query " << q;
        for (size_t r = 0; r < per_kind[v][q].size(); ++r) {
          EXPECT_EQ(per_kind[v][q][r].id, per_kind[0][q][r].id)
              << "query " << q << " rank " << r;
          EXPECT_NEAR(per_kind[v][q][r].dist, per_kind[0][q][r].dist, 1e-3)
              << "query " << q << " rank " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dblsh
