// Parameterized property tests of the DB-LSH index across approximation
// ratios, bucket widths, table counts and bucketing modes, plus tests for
// the SRS baseline and DB-LSH's parallel QueryBatch.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/srs.h"
#include "core/db_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"

namespace dblsh {
namespace {

struct Fixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> gt;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    SplitQueries(GenerateClustered({.n = 3000,
                                    .dim = 32,
                                    .clusters = 12,
                                    .center_spread = 60.0,
                                    .cluster_stddev = 2.0,
                                    .seed = 2001}),
                 25, 2002, &f->data, &f->queries);
    f->gt = ComputeGroundTruth(f->data, f->queries, 10);
    return f;
  }();
  return *fixture;
}

// ------------------------------------------------------ parameter sweep --

struct SweepConfig {
  double c;
  double gamma;  // w0 = 2 gamma c^2
  size_t l;
  BucketingMode mode;
};

class DbLshSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(DbLshSweep, BuildsAndAnswersWithGuarantee) {
  const SweepConfig& cfg = GetParam();
  const Fixture& f = SharedFixture();
  DbLshParams params;
  params.c = cfg.c;
  params.w0 = 2.0 * cfg.gamma * cfg.c * cfg.c;
  params.l = cfg.l;
  params.t = 40;
  params.bucketing = cfg.mode;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&f.data).ok());

  // Theorem 1's success probability is >= 1/2 - 1/e per query; empirically
  // over 25 queries the c^2 guarantee must hold far more often than that.
  const double c2 = cfg.c * cfg.c;
  size_t success = 0;
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    const auto result = index.Query(f.queries.row(q), 1);
    ASSERT_FALSE(result.empty());
    if (result[0].dist <= c2 * f.gt[q][0].dist + 1e-4) ++success;
  }
  EXPECT_GT(static_cast<double>(success) / f.queries.rows(),
            0.5 - 1.0 / 2.718281828459045);
}

TEST_P(DbLshSweep, BudgetIsRespected) {
  const SweepConfig& cfg = GetParam();
  const Fixture& f = SharedFixture();
  DbLshParams params;
  params.c = cfg.c;
  params.w0 = 2.0 * cfg.gamma * cfg.c * cfg.c;
  params.l = cfg.l;
  params.t = 12;
  params.bucketing = cfg.mode;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&f.data).ok());
  for (size_t q = 0; q < 5; ++q) {
    QueryStats stats;
    index.Query(f.queries.row(q), 10, &stats);
    EXPECT_LE(stats.candidates_verified, 2 * params.t * params.l + 10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DbLshSweep,
    ::testing::Values(
        SweepConfig{1.2, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{2.0, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{3.0, 2.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 1.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 3.0, 5, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 1, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 10, BucketingMode::kDynamicQueryCentric},
        SweepConfig{1.5, 2.0, 5, BucketingMode::kFixedGrid},
        SweepConfig{2.0, 2.0, 8, BucketingMode::kFixedGrid}),
    [](const auto& info) {
      const SweepConfig& cfg = info.param;
      return "c" + std::to_string(static_cast<int>(cfg.c * 10)) + "_g" +
             std::to_string(static_cast<int>(cfg.gamma * 10)) + "_l" +
             std::to_string(cfg.l) +
             (cfg.mode == BucketingMode::kFixedGrid ? "_fixed" : "_dyn");
    });

// --------------------------------------------------------- more tables --

TEST(DbLshMonotonicityTest, MoreTablesDoNotHurtRecall) {
  const Fixture& f = SharedFixture();
  double prev_recall = -1.0;
  for (size_t l : {1, 3, 8}) {
    DbLshParams params;
    params.l = l;
    params.t = 200 / (2 * l);  // constant total budget 2tL ~ 200
    DbLsh index(params);
    ASSERT_TRUE(index.Build(&f.data).ok());
    double recall = 0.0;
    for (size_t q = 0; q < f.queries.rows(); ++q) {
      recall += eval::Recall(index.Query(f.queries.row(q), 10), f.gt[q]);
    }
    recall /= static_cast<double>(f.queries.rows());
    EXPECT_GT(recall, prev_recall - 0.15) << "l = " << l;
    prev_recall = recall;
  }
}

TEST(DbLshMonotonicityTest, LargerBudgetNeverLosesRecallMaterially) {
  const Fixture& f = SharedFixture();
  double prev = -1.0;
  for (size_t t : {4, 16, 64, 256}) {
    DbLshParams params;
    params.t = t;
    DbLsh index(params);
    ASSERT_TRUE(index.Build(&f.data).ok());
    double recall = 0.0;
    for (size_t q = 0; q < f.queries.rows(); ++q) {
      recall += eval::Recall(index.Query(f.queries.row(q), 10), f.gt[q]);
    }
    recall /= static_cast<double>(f.queries.rows());
    EXPECT_GE(recall, prev - 0.05) << "t = " << t;
    prev = recall;
  }
  EXPECT_GT(prev, 0.9);  // the largest budget must be near-exact here
}

// ---------------------------------------------------------------- SRS ----

TEST(SrsTest, RejectsBadParams) {
  const Fixture& f = SharedFixture();
  SrsParams params;
  params.c = 0.8;
  EXPECT_FALSE(Srs(params).Build(&f.data).ok());
  params.c = 1.5;
  params.m = 0;
  EXPECT_FALSE(Srs(params).Build(&f.data).ok());
}

TEST(SrsTest, FindsExactDuplicate) {
  const Fixture& f = SharedFixture();
  Srs index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  const auto result = index.Query(f.data.row(17), 1);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

TEST(SrsTest, TinyIndexStillGivesUsableRecall) {
  const Fixture& f = SharedFixture();
  Srs index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  EXPECT_EQ(index.NumHashFunctions(), 6u);  // the "tiny index" headline
  double recall = 0.0;
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    recall += eval::Recall(index.Query(f.queries.row(q), 10), f.gt[q]);
  }
  EXPECT_GT(recall / f.queries.rows(), 0.4);
}

TEST(SrsTest, NoisierThanPmLshProjection) {
  // SRS (m = 6) needs more candidates than PM-LSH (m = 15) to reach the
  // same recall — the refinement PM-LSH claims. Checked indirectly: at an
  // equal small budget, SRS recall <= PM-LSH-style recall + noise.
  const Fixture& f = SharedFixture();
  SrsParams srs_params;
  srs_params.beta = 0.02;
  srs_params.threshold = 1e9;  // budget-limited only
  Srs small(srs_params);
  SrsParams big_params = srs_params;
  big_params.m = 15;
  Srs big(big_params);
  ASSERT_TRUE(small.Build(&f.data).ok());
  ASSERT_TRUE(big.Build(&f.data).ok());
  double small_recall = 0.0, big_recall = 0.0;
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    small_recall +=
        eval::Recall(small.Query(f.queries.row(q), 10), f.gt[q]);
    big_recall += eval::Recall(big.Query(f.queries.row(q), 10), f.gt[q]);
  }
  EXPECT_GE(big_recall, small_recall - 0.5);
}

// ------------------------------------------------------- parallel query --

TEST(ParallelQueryTest, MatchesSequentialExactly) {
  const Fixture& f = SharedFixture();
  DbLsh index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  QueryRequest request;
  request.k = 10;
  const auto parallel = index.QueryBatch(f.queries, request, 4);
  ASSERT_EQ(parallel.size(), f.queries.rows());
  for (size_t q = 0; q < f.queries.rows(); ++q) {
    QueryStats stats;
    const auto sequential = index.Query(f.queries.row(q), 10, &stats);
    ASSERT_EQ(parallel[q].neighbors.size(), sequential.size()) << "query " << q;
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[q].neighbors[i].id, sequential[i].id);
      EXPECT_FLOAT_EQ(parallel[q].neighbors[i].dist, sequential[i].dist);
    }
    EXPECT_EQ(parallel[q].stats.candidates_verified,
              stats.candidates_verified);
    EXPECT_EQ(parallel[q].stats.points_accessed, stats.points_accessed);
    EXPECT_EQ(parallel[q].stats.rounds, stats.rounds);
  }
}

TEST(ParallelQueryTest, SingleThreadAndEmptyInputs) {
  const Fixture& f = SharedFixture();
  DbLsh index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  QueryRequest request;
  request.k = 5;
  const auto one = index.QueryBatch(f.queries, request, 1);
  EXPECT_EQ(one.size(), f.queries.rows());
  FloatMatrix none(0, f.data.cols());
  EXPECT_TRUE(index.QueryBatch(none, request, 4).empty());
}

TEST(ParallelQueryTest, ScratchReuseAcrossManyQueries) {
  // Exercises the epoch machinery of the thread-local scratch: batches on
  // the caller (1 thread) and on the pool reuse their threads' stamps
  // across many queries and must keep answering like a single query.
  const Fixture& f = SharedFixture();
  DbLsh index;
  ASSERT_TRUE(index.Build(&f.data).ok());
  QueryRequest request;
  request.k = 5;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto inline_batch = index.QueryBatch(f.queries, request, 1);
    const auto pooled_batch = index.QueryBatch(f.queries, request, 4);
    for (size_t q = 0; q < f.queries.rows(); ++q) {
      const auto b = index.Query(f.queries.row(q), 5);
      for (const auto* a : {&inline_batch[q].neighbors,
                            &pooled_batch[q].neighbors}) {
        ASSERT_EQ(a->size(), b.size());
        for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ((*a)[i].id, b[i].id);
      }
    }
  }
}

}  // namespace
}  // namespace dblsh
