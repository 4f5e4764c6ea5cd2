// Tests for the library extensions beyond the paper's core algorithms:
// the E2LSH reference baseline, index persistence, and the early-stop
// slack (the paper's future-work direction).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/e2lsh.h"
#include "baselines/multiprobe_lsh.h"
#include "core/db_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "util/timer.h"

namespace dblsh {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

FloatMatrix EasyData(size_t n = 3000, size_t dim = 32, uint64_t seed = 90) {
  return GenerateClustered(
      {.n = n, .dim = dim, .clusters = 12, .seed = seed});
}

// ----------------------------------------------------------------- E2LSH --

TEST(E2LshTest, RejectsBadParams) {
  const FloatMatrix data = EasyData(200);
  E2LshParams params;
  params.c = 1.0;
  EXPECT_FALSE(E2Lsh(params).Build(&data).ok());
  params.c = 1.5;
  params.k = 0;
  EXPECT_FALSE(E2Lsh(params).Build(&data).ok());
  params.k = 8;
  params.levels = 0;
  EXPECT_FALSE(E2Lsh(params).Build(&data).ok());
  FloatMatrix empty(0, 8);
  EXPECT_FALSE(E2Lsh().Build(&empty).ok());
}

TEST(E2LshTest, FindsExactDuplicate) {
  const FloatMatrix data = EasyData(1500);
  E2Lsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto result = index.Query(data.row(42), 1);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

TEST(E2LshTest, ReasonableRecallOnClusteredData) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(3000), 20, 91, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  E2Lsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  double recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    recall += eval::Recall(index.Query(queries.row(q), 10), gt[q]);
  }
  EXPECT_GT(recall / queries.rows(), 0.3);
}

TEST(E2LshTest, IndexSizeGrowsWithLevels) {
  // Table I's point: E2LSH pays levels * L * n entries.
  const FloatMatrix data = EasyData(500);
  E2LshParams small_params, big_params;
  small_params.levels = 2;
  big_params.levels = 10;
  E2Lsh small(small_params), big(big_params);
  ASSERT_TRUE(small.Build(&data).ok());
  ASSERT_TRUE(big.Build(&data).ok());
  EXPECT_EQ(small.IndexEntries(), 2u * small_params.l * data.rows());
  EXPECT_EQ(big.IndexEntries(), 10u * big_params.l * data.rows());
}

TEST(E2LshTest, HashBoundaryHurtsVsDbLsh) {
  // The motivating comparison (paper Fig. 2): same budget, query-oblivious
  // grid cells vs query-centric windows. Aggregated over queries, DB-LSH
  // must reach at least E2LSH's recall.
  FloatMatrix data, queries;
  SplitQueries(
      GenerateClustered(
          {.n = 4000, .dim = 32, .clusters = 24,
           .center_spread = 20.0, .cluster_stddev = 2.0, .seed = 92}),
      30, 93, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  E2LshParams e2_params;
  e2_params.beta = 0.02;
  E2Lsh e2(e2_params);
  DbLshParams db_params;
  db_params.t = 8;  // ~budget parity: 2*8*5 = 80 = beta*n
  DbLsh db(db_params);
  ASSERT_TRUE(e2.Build(&data).ok());
  ASSERT_TRUE(db.Build(&data).ok());
  double e2_recall = 0.0, db_recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    e2_recall += eval::Recall(e2.Query(queries.row(q), 10), gt[q]);
    db_recall += eval::Recall(db.Query(queries.row(q), 10), gt[q]);
  }
  EXPECT_GE(db_recall, e2_recall - 0.5);
}

// ------------------------------------------------------------ Persistence --

TEST(PersistenceTest, RoundTripProducesIdenticalResults) {
  FloatMatrix data = EasyData(2000);
  DbLsh original;
  ASSERT_TRUE(original.Build(&data).ok());
  const std::string path = TempPath("dblsh_roundtrip.idx");
  ASSERT_TRUE(original.Save(path).ok());

  auto loaded = DbLsh::Load(path, &data);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().params().k, original.params().k);
  EXPECT_EQ(loaded.value().params().l, original.params().l);
  EXPECT_EQ(loaded.value().IndexEntries(), original.IndexEntries());

  for (uint32_t q : {1u, 500u, 1999u}) {
    const auto a = original.Query(data.row(q), 10);
    const auto b = loaded.value().Query(data.row(q), 10);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(a[i].dist, b[i].dist);
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, SaveRequiresBuiltIndex) {
  DbLsh index;
  EXPECT_FALSE(index.Save(TempPath("dblsh_unbuilt.idx")).ok());
}

TEST(PersistenceTest, LoadRejectsWrongDataset) {
  const FloatMatrix data = EasyData(1000);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const std::string path = TempPath("dblsh_wrongdata.idx");
  ASSERT_TRUE(index.Save(path).ok());
  FloatMatrix other = EasyData(999);
  auto r = DbLsh::Load(path, &other);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsGarbageFile) {
  const std::string path = TempPath("dblsh_garbage.idx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an index";
  }
  FloatMatrix data = EasyData(100);
  auto r = DbLsh::Load(path, &data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsTruncatedFile) {
  FloatMatrix data = EasyData(1000);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const std::string path = TempPath("dblsh_truncated.idx");
  ASSERT_TRUE(index.Save(path).ok());
  // Truncate to 60% of the file.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 3 / 5);
  auto r = DbLsh::Load(path, &data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Fuzz over a saved index with tombstones: every truncation and every
// single-bit flip either loads or fails with a typed Status — never an
// abort or a huge allocation — and a failed load leaves the caller's
// dataset untouched. Flips in the dataset-identity header fields (storage
// tag, n, dim, checksum) name another dataset and fail with
// InvalidArgument, as in LoadRejectsWrongDataset; every other failure is
// Corruption. Small on purpose: CI runs it under ASan + UBSan.
TEST(PersistenceTest, TruncationAndBitFlipsYieldIndexOrCorruption) {
  FloatMatrix data = EasyData(40, 4);
  DbLshParams params;
  params.l = 2;
  params.k = 2;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  for (const uint32_t id : {31u, 3u, 17u}) {
    ASSERT_TRUE(data.EraseRow(id).ok());
    ASSERT_TRUE(index.Erase(id).ok());
  }
  const std::string path = TempPath("dblsh_fuzz.idx");
  ASSERT_TRUE(index.Save(path).ok());
  std::vector<char> good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  // magic (8) + version (4), then tag (1) + n, dim, checksum (8 each).
  constexpr size_t kIdentityBegin = 12, kIdentityEnd = 37;
  ASSERT_GT(good.size(), kIdentityEnd);

  // A fresh copy of the dataset as re-read from disk: no tombstones.
  const FloatMatrix pristine(data.rows(), data.cols(), data.data());
  auto load = [&] {
    FloatMatrix copy = pristine;
    const Status status = DbLsh::Load(path, &copy).status();
    if (!status.ok()) {
      EXPECT_EQ(copy.data(), pristine.data());
      EXPECT_EQ(copy.live_rows(), pristine.rows());
      EXPECT_TRUE(copy.free_slots().empty());
    }
    return status;
  };

  {
    FloatMatrix copy = pristine;
    ASSERT_TRUE(DbLsh::Load(path, &copy).ok());
    EXPECT_EQ(copy.free_slots(), data.free_slots());
  }
  // The file is edited in place (one byte rewritten, then shrunk): that
  // is far cheaper than rewriting it per case.
  auto poke = [&](size_t at, char value) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(at));
    file.put(value);
  };
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      poke(byte, static_cast<char>(good[byte] ^ (1 << bit)));
      const Status status = load();
      poke(byte, good[byte]);
      if (status.ok()) continue;
      const bool identity = byte >= kIdentityBegin && byte < kIdentityEnd;
      if (identity && status.code() == StatusCode::kInvalidArgument) continue;
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    }
  }
  for (size_t cut = good.size(); cut-- > 0;) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    std::filesystem::resize_file(path, cut);
    const Status status = load();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsMissingFile) {
  FloatMatrix data = EasyData(100);
  auto r = DbLsh::Load("/nonexistent/missing.idx", &data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(PersistenceTest, FbLshModeSurvivesRoundTrip) {
  FloatMatrix data = EasyData(1000);
  DbLshParams params;
  params.bucketing = BucketingMode::kFixedGrid;
  params.k = 5;
  params.l = 6;
  DbLsh original(params);
  ASSERT_TRUE(original.Build(&data).ok());
  const std::string path = TempPath("dblsh_fb.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = DbLsh::Load(path, &data);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().Name(), "FB-LSH");
  const auto a = original.Query(data.row(7), 5);
  const auto b = loaded.value().Query(data.row(7), 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  std::remove(path.c_str());
}

// ------------------------------------------------------- Multi-Probe LSH --

TEST(MultiProbeTest, RejectsBadParams) {
  const FloatMatrix data = EasyData(200);
  MultiProbeParams params;
  params.probes = 0;
  EXPECT_FALSE(MultiProbeLsh(params).Build(&data).ok());
  FloatMatrix empty(0, 8);
  EXPECT_FALSE(MultiProbeLsh().Build(&empty).ok());
}

TEST(MultiProbeTest, FindsExactDuplicate) {
  const FloatMatrix data = EasyData(1500);
  MultiProbeLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto result = index.Query(data.row(21), 1);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

TEST(MultiProbeTest, MoreProbesImproveRecall) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(3000), 20, 97, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  MultiProbeParams lo_params, hi_params;
  lo_params.probes = 1;  // degenerate: plain E2LSH probing
  hi_params.probes = 64;
  MultiProbeLsh lo(lo_params), hi(hi_params);
  ASSERT_TRUE(lo.Build(&data).ok());
  ASSERT_TRUE(hi.Build(&data).ok());
  double lo_recall = 0.0, hi_recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    lo_recall += eval::Recall(lo.Query(queries.row(q), 10), gt[q]);
    hi_recall += eval::Recall(hi.Query(queries.row(q), 10), gt[q]);
  }
  EXPECT_GE(hi_recall, lo_recall - 0.02);
  EXPECT_GT(hi_recall / queries.rows(), 0.3);
}

TEST(MultiProbeTest, FewerTablesThanE2Lsh) {
  // The method's purpose: comparable reach with fewer tables. Structural
  // check that the default uses fewer hash functions than the E2LSH
  // default (which multiplies by radius levels).
  MultiProbeLsh mp;
  E2Lsh e2;
  EXPECT_LT(mp.NumHashFunctions(), e2.NumHashFunctions());
}

// ----------------------------------------------------------- kd backend --

TEST(BackendTest, KdTreeBackendMatchesRecall) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(3000), 20, 96, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  DbLshParams rstar_params;
  DbLshParams kd_params;
  kd_params.backend = IndexBackend::kKdTree;
  DbLsh rstar(rstar_params), kd(kd_params);
  ASSERT_TRUE(rstar.Build(&data).ok());
  ASSERT_TRUE(kd.Build(&data).ok());
  double rstar_recall = 0.0, kd_recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    rstar_recall += eval::Recall(rstar.Query(queries.row(q), 10), gt[q]);
    kd_recall += eval::Recall(kd.Query(queries.row(q), 10), gt[q]);
  }
  // Same projections, same buckets — only the retrieval order inside a
  // window differs, so aggregate recall must be close.
  EXPECT_NEAR(kd_recall / queries.rows(), rstar_recall / queries.rows(),
              0.15);
}

TEST(BackendTest, KdTreeBackendFindsExactDuplicate) {
  const FloatMatrix data = EasyData(1000);
  DbLshParams params;
  params.backend = IndexBackend::kKdTree;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  EXPECT_EQ(index.IndexEntries(), params.l * data.rows());
  const auto result = index.Query(data.row(3), 5);
  ASSERT_FALSE(result.empty());
  EXPECT_FLOAT_EQ(result[0].dist, 0.f);
}

TEST(BackendTest, KdTreeBackendSurvivesPersistence) {
  FloatMatrix data = EasyData(800);
  DbLshParams params;
  params.backend = IndexBackend::kKdTree;
  DbLsh original(params);
  ASSERT_TRUE(original.Build(&data).ok());
  const std::string path = TempPath("dblsh_kd.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = DbLsh::Load(path, &data);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto a = original.Query(data.row(11), 5);
  const auto b = loaded.value().Query(data.row(11), 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  std::remove(path.c_str());
}

// --------------------------------------------------------- Early stopping --

TEST(EarlyStopTest, SlackBelowOneRejected) {
  const FloatMatrix data = EasyData(200);
  DbLshParams params;
  params.early_stop_slack = 0.5;
  DbLsh index(params);
  EXPECT_FALSE(index.Build(&data).ok());
}

TEST(EarlyStopTest, SlackReducesCandidatesVerified) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(4000), 20, 94, &data, &queries);
  DbLshParams exact_params;
  DbLshParams slack_params;
  slack_params.early_stop_slack = 2.0;
  DbLsh exact(exact_params), relaxed(slack_params);
  ASSERT_TRUE(exact.Build(&data).ok());
  ASSERT_TRUE(relaxed.Build(&data).ok());
  size_t exact_cand = 0, relaxed_cand = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    QueryStats s1, s2;
    exact.Query(queries.row(q), 10, &s1);
    relaxed.Query(queries.row(q), 10, &s2);
    exact_cand += s1.candidates_verified;
    relaxed_cand += s2.candidates_verified;
  }
  EXPECT_LE(relaxed_cand, exact_cand);
}

TEST(EarlyStopTest, SlackKeepsReasonableAccuracy) {
  FloatMatrix data, queries;
  SplitQueries(EasyData(3000), 20, 95, &data, &queries);
  const auto gt = ComputeGroundTruth(data, queries, 10);
  DbLshParams params;
  params.early_stop_slack = 1.5;
  DbLsh index(params);
  ASSERT_TRUE(index.Build(&data).ok());
  double ratio = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    ratio += eval::OverallRatio(index.Query(queries.row(q), 10), gt[q]);
  }
  // The relaxed condition still bounds the returned distances by
  // slack * c^2 * r*, so the overall ratio stays moderate.
  EXPECT_LT(ratio / queries.rows(), 1.6);
}

}  // namespace
}  // namespace dblsh
