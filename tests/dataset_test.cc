#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "dataset/float_matrix.h"
#include "dataset/ground_truth.h"
#include "dataset/io.h"
#include "dataset/stats.h"
#include "dataset/synthetic.h"
#include "util/distance.h"

namespace dblsh {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------------------ FloatMatrix --

TEST(FloatMatrixTest, ConstructAndAccess) {
  FloatMatrix m(3, 2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  m.at(1, 1) = 5.f;
  EXPECT_FLOAT_EQ(m.at(1, 1), 5.f);
  EXPECT_FLOAT_EQ(m.row(1)[1], 5.f);
}

TEST(FloatMatrixTest, AppendRowDefinesWidth) {
  FloatMatrix m;
  const float r0[] = {1.f, 2.f, 3.f};
  m.AppendRow(r0, 3);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.rows(), 1u);
  const float r1[] = {4.f, 5.f, 6.f};
  m.AppendRow(r1, 3);
  EXPECT_FLOAT_EQ(m.at(1, 2), 6.f);
}

TEST(FloatMatrixTest, PrefixCopiesLeadingRows) {
  FloatMatrix m(5, 2);
  for (size_t i = 0; i < 5; ++i) m.at(i, 0) = static_cast<float>(i);
  const FloatMatrix p = m.Prefix(3);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_FLOAT_EQ(p.at(2, 0), 2.f);
}

// --------------------------------------------------------------------- IO --

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Appends one vecs record: `int32 dim` (the component count unless
/// forged), then the components' bytes.
template <typename T>
void AppendRecord(std::vector<uint8_t>* bytes, const std::vector<T>& vec,
                  std::optional<int32_t> forged_dim = std::nullopt) {
  const int32_t dim = forged_dim.value_or(static_cast<int32_t>(vec.size()));
  const auto* d = reinterpret_cast<const uint8_t*>(&dim);
  bytes->insert(bytes->end(), d, d + sizeof(dim));
  const auto* p = reinterpret_cast<const uint8_t*>(vec.data());
  bytes->insert(bytes->end(), p, p + vec.size() * sizeof(T));
}

void ExpectCorruption(const Result<FloatMatrix>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
}

TEST(IoTest, FvecsRoundTrip) {
  FloatMatrix m(4, 3);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      m.at(i, j) = static_cast<float>(i * 10 + j);
    }
  }
  const std::string path = TempPath("dblsh_roundtrip.fvecs");
  ASSERT_TRUE(SaveFvecs(m, path).ok());
  auto loaded = LoadFvecs(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), 4u);
  EXPECT_EQ(loaded.value().cols(), 3u);
  EXPECT_FLOAT_EQ(loaded.value().at(2, 1), 21.f);

  // Hand-assembled bytes load exactly, and SaveFvecs writes them back
  // byte for byte.
  std::vector<uint8_t> bytes;
  AppendRecord<float>(&bytes, {1.0f, -2.5f, 3.25f});
  AppendRecord<float>(&bytes, {4.0f, 5.0f, 6.0f});
  WriteFile(path, bytes);
  loaded = LoadFvecs(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().data(),
            (std::vector<float>{1.0f, -2.5f, 3.25f, 4.0f, 5.0f, 6.0f}));
  ASSERT_TRUE(SaveFvecs(loaded.value(), path).ok());
  EXPECT_EQ(ReadFile(path), bytes);
  std::remove(path.c_str());
}

TEST(IoTest, FvecsMaxRowsTruncates) {
  FloatMatrix m(10, 2);
  for (size_t i = 0; i < 10; ++i) m.at(i, 0) = static_cast<float>(i);
  const std::string path = TempPath("dblsh_maxrows.fvecs");
  ASSERT_TRUE(SaveFvecs(m, path).ok());
  auto loaded = LoadFvecs(path, 4);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().rows(), 4u);
  EXPECT_FLOAT_EQ(loaded.value().at(3, 0), 3.f);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIoError) {
  for (const auto& r : {LoadFvecs("/nonexistent/definitely/missing.fvecs"),
                        LoadBvecs("/nonexistent/definitely/missing.bvecs")}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  const Status s = SaveBvecs(FloatMatrix(1, 2), "/nonexistent/dir/x.bvecs");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(IoTest, TruncatedRecordIsCorruption) {
  const std::string path = TempPath("dblsh_truncated.fvecs");
  std::vector<uint8_t> bytes;
  AppendRecord<float>(&bytes, {1.f, 2.f, 3.f}, 8);  // 8 promised, 3 written
  WriteFile(path, bytes);
  ExpectCorruption(LoadFvecs(path));

  // A torn trailing header: one stray byte after a whole record.
  bytes.clear();
  AppendRecord<float>(&bytes, {1.f, 2.f});
  bytes.push_back(0x7);
  WriteFile(path, bytes);
  ExpectCorruption(LoadFvecs(path));

  // An empty file holds no records.
  WriteFile(path, {});
  ExpectCorruption(LoadFvecs(path));
  std::remove(path.c_str());
}

TEST(IoTest, NegativeDimensionIsCorruption) {
  const std::string path = TempPath("dblsh_negdim.fvecs");
  for (const int32_t dim : {-5, 0, (1 << 20) + 1}) {
    std::vector<uint8_t> bytes;
    AppendRecord<float>(&bytes, {1.f}, dim);
    WriteFile(path, bytes);
    ExpectCorruption(LoadFvecs(path));
  }
  std::remove(path.c_str());
}

TEST(IoTest, InconsistentDimensionsIsCorruption) {
  const std::string path = TempPath("dblsh_mixdim.fvecs");
  std::vector<uint8_t> bytes;
  AppendRecord<float>(&bytes, {1.f, 2.f});
  AppendRecord<float>(&bytes, {1.f, 2.f, 3.f});
  WriteFile(path, bytes);
  ExpectCorruption(LoadFvecs(path));
  std::remove(path.c_str());
}

TEST(IoTest, BvecsWidensToFloat) {
  const std::string path = TempPath("dblsh_bytes.bvecs");
  std::vector<uint8_t> bytes;
  AppendRecord<uint8_t>(&bytes, {0, 127, 255, 7});
  AppendRecord<uint8_t>(&bytes, {1, 2, 3, 4});
  WriteFile(path, bytes);
  auto r = LoadBvecs(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().data(),
            (std::vector<float>{0.f, 127.f, 255.f, 7.f, 1.f, 2.f, 3.f, 4.f}));
  auto first = LoadBvecs(path, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().rows(), 1u);

  // SaveBvecs writes the widened rows back byte for byte, and rounds and
  // clamps components that do not fit a byte.
  ASSERT_TRUE(SaveBvecs(r.value(), path).ok());
  EXPECT_EQ(ReadFile(path), bytes);
  FloatMatrix wide(1, 4, {-3.f, 7.4f, 254.6f, 300.f});
  ASSERT_TRUE(SaveBvecs(wide, path).ok());
  r = LoadBvecs(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().data(), (std::vector<float>{0.f, 7.f, 255.f, 255.f}));
  std::remove(path.c_str());
}

// Fuzz over an on-disk fvecs and bvecs file: every truncation and every
// bit flip (and full-byte flip) of every record header either loads whole
// records or fails with Corruption. A cut that is not on a record
// boundary must never load, and a loaded file is always whole records of
// the reported dimension, byte for byte (CI runs this under ASan + UBSan).
TEST(IoTest, TruncationAndHeaderFlipsYieldRowsOrCorruption) {
  FloatMatrix m(5, 3);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) m.at(i, j) = static_cast<float>(i * 3 + j);
  }
  for (const bool bvecs : {false, true}) {
    SCOPED_TRACE(bvecs ? "bvecs" : "fvecs");
    const std::string path =
        TempPath(bvecs ? "dblsh_fuzz.bvecs" : "dblsh_fuzz.fvecs");
    ASSERT_TRUE((bvecs ? SaveBvecs(m, path) : SaveFvecs(m, path)).ok());
    const std::vector<uint8_t> good = ReadFile(path);
    const size_t component = bvecs ? 1 : sizeof(float);
    const size_t record = sizeof(int32_t) + m.cols() * component;
    ASSERT_EQ(good.size(), m.rows() * record);
    auto load = [&](const std::vector<uint8_t>& bytes) {
      WriteFile(path, bytes);
      return bvecs ? LoadBvecs(path) : LoadFvecs(path);
    };
    for (size_t cut = 0; cut < good.size(); ++cut) {
      SCOPED_TRACE("cut " + std::to_string(cut));
      auto r = load({good.begin(), good.begin() + static_cast<ptrdiff_t>(cut)});
      if (cut == 0 || cut % record != 0) {
        ExpectCorruption(r);
        continue;
      }
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.value().rows(), cut / record);
      for (size_t i = 0; i < r.value().rows(); ++i) {
        for (size_t j = 0; j < m.cols(); ++j) {
          EXPECT_EQ(r.value().at(i, j), m.at(i, j));
        }
      }
    }
    for (size_t at = 0; at < good.size(); at += record) {
      for (size_t b = at; b < at + sizeof(int32_t); ++b) {
        for (const int mask : {1, 2, 4, 8, 16, 32, 64, 128, 255}) {
          SCOPED_TRACE("byte " + std::to_string(b) + " mask " +
                       std::to_string(mask));
          std::vector<uint8_t> bytes = good;
          bytes[b] ^= static_cast<uint8_t>(mask);
          auto r = load(bytes);
          if (!r.ok()) {
            ExpectCorruption(r);
            continue;
          }
          EXPECT_EQ(r.value().rows() *
                        (sizeof(int32_t) + r.value().cols() * component),
                    bytes.size());
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(IoTest, TextLoader) {
  const std::string path = TempPath("dblsh_text.txt");
  {
    std::ofstream out(path);
    out << "1 2 3\n4 5 6\n\n7 8 9\n";
  }
  auto r = LoadText(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows(), 3u);
  EXPECT_FLOAT_EQ(r.value().at(2, 0), 7.f);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- Synthetic --

TEST(SyntheticTest, ClusteredHasRequestedShape) {
  ClusteredSpec spec;
  spec.n = 500;
  spec.dim = 16;
  const FloatMatrix m = GenerateClustered(spec);
  EXPECT_EQ(m.rows(), 500u);
  EXPECT_EQ(m.cols(), 16u);
}

TEST(SyntheticTest, ClusteredIsDeterministicPerSeed) {
  ClusteredSpec spec;
  spec.n = 50;
  spec.dim = 8;
  const FloatMatrix a = GenerateClustered(spec);
  const FloatMatrix b = GenerateClustered(spec);
  EXPECT_EQ(a.data(), b.data());
  spec.seed = 1234;
  const FloatMatrix c = GenerateClustered(spec);
  EXPECT_NE(a.data(), c.data());
}

TEST(SyntheticTest, ClusteredPointsConcentrateAroundCenters) {
  // Points within a cluster are much closer to each other than the center
  // spread, so the sample NN distance must be far below it.
  ClusteredSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.clusters = 5;
  spec.center_spread = 200.0;
  spec.cluster_stddev = 1.0;
  const FloatMatrix m = GenerateClustered(spec);
  const double nn = EstimateNnDistance(m, 77);
  EXPECT_LT(nn, 30.0);
  EXPECT_GT(nn, 0.0);
}

TEST(SyntheticTest, UniformCoversRange) {
  const FloatMatrix m = GenerateUniform(1000, 4, 10.0, 3);
  float lo = 1e9f, hi = -1e9f;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      lo = std::min(lo, m.at(i, j));
      hi = std::max(hi, m.at(i, j));
    }
  }
  EXPECT_GE(lo, 0.f);
  EXPECT_LT(hi, 10.f);
  EXPECT_LT(lo, 1.f);   // near the edges with 4000 samples
  EXPECT_GT(hi, 9.f);
}

TEST(SyntheticTest, LowIntrinsicDimIsFlat) {
  // With intrinsic dim 2 in ambient dim 32 and tiny noise, distances to the
  // best-fit plane are small; a crude proxy: variance is captured by few
  // directions, so pairwise distances are much smaller than an isotropic
  // cloud with the same coordinate magnitudes would have.
  const FloatMatrix flat = GenerateLowIntrinsicDim(500, 32, 2, 0.01, 5);
  EXPECT_EQ(flat.rows(), 500u);
  EXPECT_EQ(flat.cols(), 32u);
}

TEST(SyntheticTest, ProfilesProduceAllTenDatasets) {
  const auto profiles = PaperDatasetProfiles(0.01);
  ASSERT_EQ(profiles.size(), 10u);
  EXPECT_EQ(profiles[0].name, "Audio");
  EXPECT_EQ(profiles[9].name, "SIFT100M");
  // Relative ordering of cardinalities is preserved.
  EXPECT_LT(profiles[0].n, profiles[9].n);
  const FloatMatrix m = GenerateProfile(profiles[0]);
  EXPECT_EQ(m.rows(), profiles[0].n);
  EXPECT_EQ(m.cols(), profiles[0].dim);
}

TEST(SyntheticTest, SplitQueriesPartitionsData) {
  const FloatMatrix all = GenerateUniform(100, 4, 10.0, 3);
  FloatMatrix data, queries;
  SplitQueries(all, 10, 99, &data, &queries);
  EXPECT_EQ(queries.rows(), 10u);
  EXPECT_EQ(data.rows(), 90u);
  EXPECT_EQ(data.cols(), 4u);
}

// ----------------------------------------------------------- GroundTruth --

TEST(GroundTruthTest, ExactKnnMatchesManualScan) {
  FloatMatrix data(5, 1);
  for (size_t i = 0; i < 5; ++i) data.at(i, 0) = static_cast<float>(i * i);
  const float query[] = {3.f};  // distances: 3,2,1,6,13
  const auto knn = ExactKnn(data, query, 2);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0].id, 2u);
  EXPECT_FLOAT_EQ(knn[0].dist, 1.f);
  EXPECT_EQ(knn[1].id, 1u);
}

TEST(GroundTruthTest, KLargerThanNReturnsAll) {
  FloatMatrix data(3, 2);
  const float query[] = {0.f, 0.f};
  EXPECT_EQ(ExactKnn(data, query, 10).size(), 3u);
}

TEST(GroundTruthTest, BatchMatchesSingle) {
  const FloatMatrix data = GenerateUniform(200, 8, 10.0, 3);
  const FloatMatrix queries = GenerateUniform(5, 8, 10.0, 4);
  const auto batch = ComputeGroundTruth(data, queries, 7);
  ASSERT_EQ(batch.size(), 5u);
  for (size_t q = 0; q < 5; ++q) {
    const auto single = ExactKnn(data, queries.row(q), 7);
    ASSERT_EQ(batch[q].size(), single.size());
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batch[q][i].id, single[i].id);
    }
  }
}

TEST(StatsTest, EasyClustersHaveHighRelativeContrast) {
  // Well-separated clusters: the 1-NN is in-cluster (close) while the mean
  // distance spans clusters (far) -> RC >> 1.
  const FloatMatrix easy = GenerateClustered({.n = 2000,
                                              .dim = 32,
                                              .clusters = 10,
                                              .center_spread = 200.0,
                                              .cluster_stddev = 1.0,
                                              .seed = 61});
  const DatasetStats s = EstimateStats(easy, 30);
  EXPECT_GT(s.relative_contrast, 5.0);
  EXPECT_GT(s.mean_distance, s.mean_nn_distance);
}

TEST(StatsTest, OverlappingClustersLowerContrastAndRaiseLid) {
  const FloatMatrix easy = GenerateClustered({.n = 2000,
                                              .dim = 32,
                                              .clusters = 10,
                                              .center_spread = 200.0,
                                              .cluster_stddev = 1.0,
                                              .seed = 62});
  const FloatMatrix hard = GenerateClustered({.n = 2000,
                                              .dim = 32,
                                              .clusters = 10,
                                              .center_spread = 5.0,
                                              .cluster_stddev = 2.0,
                                              .seed = 62});
  const DatasetStats se = EstimateStats(easy, 30);
  const DatasetStats sh = EstimateStats(hard, 30);
  EXPECT_LT(sh.relative_contrast, se.relative_contrast);
  EXPECT_GT(sh.lid, se.lid);
}

TEST(StatsTest, DegenerateInputsAreSafe) {
  FloatMatrix tiny(2, 4);
  const DatasetStats s = EstimateStats(tiny);
  EXPECT_DOUBLE_EQ(s.relative_contrast, 0.0);
  FloatMatrix dupes(100, 4);  // all identical points
  const DatasetStats d = EstimateStats(dupes, 10);
  EXPECT_DOUBLE_EQ(d.mean_nn_distance, 0.0);
}

TEST(GroundTruthTest, EstimateNnDistanceIsPositiveAndPlausible) {
  const FloatMatrix data = GenerateUniform(2000, 4, 10.0, 3);
  const double est = EstimateNnDistance(data, 5);
  EXPECT_GT(est, 0.0);
  EXPECT_LT(est, 10.0 * 2.0);  // cannot exceed the diagonal
}

}  // namespace
}  // namespace dblsh
