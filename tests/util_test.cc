#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/distance.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/top_k_heap.h"

namespace dblsh {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, ReseedResetsStream) {
  Rng rng(42);
  const uint64_t first = rng.NextU64();
  rng.NextU64();
  rng.Seed(42);
  EXPECT_EQ(rng.NextU64(), first);
}

// -------------------------------------------------------------- Distance --

TEST(DistanceTest, L2KnownValues) {
  const float a[] = {0.f, 0.f, 0.f};
  const float b[] = {1.f, 2.f, 2.f};
  EXPECT_FLOAT_EQ(L2DistanceSquared(a, b, 3), 9.f);
  EXPECT_FLOAT_EQ(L2Distance(a, b, 3), 3.f);
}

TEST(DistanceTest, ZeroDistanceToSelf) {
  const float a[] = {1.5f, -2.f, 3.f, 0.25f, 9.f};
  EXPECT_FLOAT_EQ(L2DistanceSquared(a, a, 5), 0.f);
}

TEST(DistanceTest, HandlesNonMultipleOfFourDims) {
  // Exercises the scalar tail of the unrolled kernel.
  for (size_t dim = 1; dim <= 9; ++dim) {
    std::vector<float> a(dim), b(dim);
    float expected = 0.f;
    for (size_t j = 0; j < dim; ++j) {
      a[j] = static_cast<float>(j);
      b[j] = static_cast<float>(2 * j + 1);
      const float d = a[j] - b[j];
      expected += d * d;
    }
    EXPECT_FLOAT_EQ(L2DistanceSquared(a.data(), b.data(), dim), expected)
        << "dim=" << dim;
  }
}

TEST(DistanceTest, DotProductKnownValue) {
  const float a[] = {1.f, 2.f, 3.f, 4.f, 5.f};
  const float b[] = {5.f, 4.f, 3.f, 2.f, 1.f};
  EXPECT_FLOAT_EQ(DotProduct(a, b, 5), 35.f);
  EXPECT_FLOAT_EQ(NormSquared(a, 5), 55.f);
}

// ------------------------------------------------------------- TopKHeap --

TEST(TopKHeapTest, KeepsKSmallest) {
  TopKHeap heap(3);
  for (uint32_t i = 0; i < 10; ++i) {
    heap.Push(static_cast<float>(10 - i), i);  // distances 10..1
  }
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_FLOAT_EQ(result[0].dist, 1.f);
  EXPECT_FLOAT_EQ(result[1].dist, 2.f);
  EXPECT_FLOAT_EQ(result[2].dist, 3.f);
}

TEST(TopKHeapTest, ThresholdIsInfinityUntilFull) {
  TopKHeap heap(2);
  EXPECT_TRUE(std::isinf(heap.Threshold()));
  heap.Push(1.f, 0);
  EXPECT_TRUE(std::isinf(heap.Threshold()));
  heap.Push(2.f, 1);
  EXPECT_FLOAT_EQ(heap.Threshold(), 2.f);
  heap.Push(0.5f, 2);
  EXPECT_FLOAT_EQ(heap.Threshold(), 1.f);
}

TEST(TopKHeapTest, ZeroKIsAlwaysEmpty) {
  TopKHeap heap(0);
  heap.Push(1.f, 0);
  EXPECT_EQ(heap.Size(), 0u);
  EXPECT_TRUE(heap.TakeSorted().empty());
}

TEST(TopKHeapTest, FewerThanKStaysPartial) {
  TopKHeap heap(5);
  heap.Push(3.f, 0);
  heap.Push(1.f, 1);
  EXPECT_FALSE(heap.Full());
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1u);
}

TEST(TopKHeapTest, TieBreaksById) {
  TopKHeap heap(2);
  heap.Push(1.f, 7);
  heap.Push(1.f, 3);
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 3u);
  EXPECT_EQ(result[1].id, 7u);
}

// Regression: Push at a full heap used to compare by distance only, so an
// equal-distance candidate with a smaller id was rejected and the result
// set depended on candidate arrival order. The full Neighbor ordering
// (dist, then id) must decide replacement too.
TEST(TopKHeapTest, FullHeapReplacementUsesIdTieBreak) {
  TopKHeap heap(2);
  heap.Push(1.f, 4);
  heap.Push(2.f, 9);
  EXPECT_TRUE(heap.Full());
  heap.Push(2.f, 6);  // ties the threshold with a smaller id: must evict 9
  auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 4u);
  EXPECT_EQ(result[1].id, 6u);

  // A larger id at the threshold distance must still be rejected.
  TopKHeap heap2(2);
  heap2.Push(1.f, 4);
  heap2.Push(2.f, 6);
  heap2.Push(2.f, 9);
  result = heap2.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 4u);
  EXPECT_EQ(result[1].id, 6u);

  // Arrival order of equal-distance candidates no longer matters.
  TopKHeap heap3(1);
  heap3.Push(5.f, 8);
  heap3.Push(5.f, 2);
  heap3.Push(5.f, 5);
  result = heap3.TakeSorted();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 2u);
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double acc = 0.0;
  for (int i = 0; i < 100000; ++i) acc += std::sqrt(double(i));
  volatile double sink = acc;
  (void)sink;
  EXPECT_GT(t.ElapsedSec(), 0.0);
  EXPECT_GT(t.ElapsedMs(), t.ElapsedSec());  // ms numerically larger
}

}  // namespace
}  // namespace dblsh
