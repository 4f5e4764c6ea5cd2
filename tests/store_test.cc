// VectorStore suite: Sq8Store/PqStore quantization contracts, save/load
// of the v3/v4 formats for every backend, v2/v3 load compatibility, and
// the end-to-end recall contract of quantized storage (asymmetric scan +
// exact re-rank) against the exact LinearScan oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/db_lsh.h"
#include "dataset/float_matrix.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "dataset/vector_store.h"
#include "durability/format.h"
#include "eval/metrics.h"
#include "simd/simd.h"
#include "util/distance.h"
#include "util/random.h"

namespace dblsh {
namespace {

FloatMatrix RandomMatrix(size_t n, size_t dim, uint64_t seed,
                         double span = 10.0) {
  FloatMatrix m(n, dim);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      m.at(i, j) = static_cast<float>(rng.Uniform(-span, span));
    }
  }
  return m;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(StorageKindTest, NamesRoundTrip) {
  EXPECT_STREQ(StorageKindName(StorageKind::kFp32), "fp32");
  EXPECT_STREQ(StorageKindName(StorageKind::kSq8), "sq8");
  EXPECT_STREQ(StorageKindName(StorageKind::kPq), "pq");
  ASSERT_TRUE(ParseStorageKind("fp32").ok());
  EXPECT_EQ(ParseStorageKind("fp32").value(), StorageKind::kFp32);
  ASSERT_TRUE(ParseStorageKind("sq8").ok());
  EXPECT_EQ(ParseStorageKind("sq8").value(), StorageKind::kSq8);
  ASSERT_TRUE(ParseStorageKind("pq").ok());
  EXPECT_EQ(ParseStorageKind("pq").value(), StorageKind::kPq);
  EXPECT_FALSE(ParseStorageKind("opq").ok());
  EXPECT_FALSE(ParseStorageKind("").ok());
}

// Per-dimension reconstruction error of trained rows is bounded by half a
// quantization step — the contract the exact re-rank depends on.
TEST(Sq8StoreTest, QuantizationErrorWithinHalfScalePerDim) {
  const size_t n = 200, dim = 23;  // odd dim: exercise kernel tails later
  const FloatMatrix original = RandomMatrix(n, dim, 71);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(original));
  auto& sq8 = static_cast<Sq8Store&>(*store);
  ASSERT_TRUE(sq8.trained());
  ASSERT_EQ(sq8.scales().size(), dim);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      const float bound = sq8.scales()[j] * 0.5f * 1.001f;  // fp slack
      EXPECT_LE(std::fabs(original.at(i, j) - decoded[j]), bound)
          << "row " << i << " dim " << j;
    }
  }
  EXPECT_EQ(store->bytes_per_vector(), dim);
  EXPECT_TRUE(store->matrix().payload_released());
}

// A constant dimension must not divide by zero: scale falls back to 1.0
// and the dimension reconstructs exactly.
TEST(Sq8StoreTest, ConstantDimensionReconstructsExactly) {
  const size_t n = 50, dim = 4;
  FloatMatrix m = RandomMatrix(n, dim, 5);
  for (size_t i = 0; i < n; ++i) m.at(i, 2) = 3.25f;
  auto store =
      MakeVectorStore(StorageKind::kSq8, std::make_unique<FloatMatrix>(m));
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    EXPECT_EQ(decoded[2], 3.25f) << "row " << i;
  }
}

// Insert/erase must follow FloatMatrix's LIFO recycle contract, quantize
// on write, and clamp out-of-range inserts instead of wrapping.
TEST(Sq8StoreTest, InsertEraseRecycleAndClamp) {
  const size_t dim = 8;
  const FloatMatrix seed = RandomMatrix(20, dim, 9, /*span=*/1.0);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(seed));
  ASSERT_TRUE(store->EraseRow(7).ok());
  ASSERT_TRUE(store->EraseRow(3).ok());
  EXPECT_FALSE(store->EraseRow(3).ok());  // double erase rejected
  std::vector<float> v(dim, 0.5f);
  EXPECT_EQ(store->InsertRow(v.data(), dim), 3u);  // LIFO: last erased first
  EXPECT_EQ(store->InsertRow(v.data(), dim), 7u);
  std::vector<float> grown(dim, 0.25f);
  EXPECT_EQ(store->InsertRow(grown.data(), dim), 20u);  // then append
  EXPECT_EQ(store->matrix().rows(), 21u);

  // Far outside the trained [-1, 1]-ish range: codes clamp, decode stays
  // at the range edge instead of wrapping to garbage.
  std::vector<float> outlier(dim, 1000.f);
  const uint32_t id = store->InsertRow(outlier.data(), dim);
  std::vector<float> decoded(dim);
  store->DecodeRow(id, decoded.data());
  auto& sq8 = static_cast<Sq8Store&>(*store);
  for (size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(decoded[j], sq8.offsets()[j] + sq8.scales()[j] * 255.f,
                1e-4f);
  }
}

// DecodedCopy must reproduce decoded rows AND the exact tombstone state,
// free-list order included (background rebuilds replay it).
TEST(Sq8StoreTest, DecodedCopyPreservesTombstoneState) {
  const size_t dim = 6;
  auto store = MakeVectorStore(
      StorageKind::kSq8,
      std::make_unique<FloatMatrix>(RandomMatrix(30, dim, 13)));
  ASSERT_TRUE(store->EraseRow(11).ok());
  ASSERT_TRUE(store->EraseRow(4).ok());
  const FloatMatrix copy = store->DecodedCopy();
  EXPECT_EQ(copy.rows(), 30u);
  EXPECT_EQ(copy.live_rows(), 28u);
  EXPECT_TRUE(copy.IsDeleted(11));
  EXPECT_TRUE(copy.IsDeleted(4));
  ASSERT_EQ(copy.free_slots().size(), 2u);
  EXPECT_EQ(copy.free_slots()[0], 11u);
  EXPECT_EQ(copy.free_slots()[1], 4u);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < copy.rows(); ++i) {
    if (copy.IsDeleted(i)) continue;
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(copy.at(i, j), decoded[j]) << "row " << i;
    }
  }
}

// Fp32Store is the identity backend: same bytes, exact scores, no decode
// cost anywhere.
TEST(Fp32StoreTest, IdentityBackend) {
  const size_t n = 40, dim = 12;
  const FloatMatrix original = RandomMatrix(n, dim, 3);
  auto store = MakeVectorStore(StorageKind::kFp32,
                               std::make_unique<FloatMatrix>(original));
  EXPECT_FALSE(store->quantized());
  EXPECT_EQ(store->bytes_per_vector(), dim * sizeof(float));
  EXPECT_FALSE(store->matrix().payload_released());
  const float* query = original.row(1);
  std::vector<float> prep;
  store->PrepareQuery(query, &prep);
  std::vector<float> out(n);
  store->ScoreBatch(prep.data(), 0, nullptr, n, out.data());
  for (size_t i = 0; i < n; ++i) {
    // The store scores through the active dispatch tier; compare against
    // the same tier's one-to-one kernel (bit-identical by the simd batch
    // property test) and the scalar reference within accumulation error.
    EXPECT_EQ(out[i],
              simd::Active().l2_squared(query, original.row(i), dim))
        << "row " << i;
    EXPECT_NEAR(out[i], L2DistanceSquared(query, original.row(i), dim),
                1e-2f)
        << "row " << i;
    EXPECT_EQ(store->ExactL2Squared(query, static_cast<uint32_t>(i)),
              out[i]);
  }
  const FloatMatrix copy = store->DecodedCopy();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(copy.at(i, j), original.at(i, j));
    }
  }
}

// The sq8 hot-path score (both sides in code space) and the exact re-rank
// score must agree with scoring against the decoded rows directly.
TEST(Sq8StoreTest, ScoresMatchDecodedRows) {
  const size_t n = 64, dim = 17;
  const FloatMatrix original = RandomMatrix(n, dim, 21);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(original));
  const FloatMatrix decoded = store->DecodedCopy();
  Rng rng(77);
  std::vector<float> query(dim);
  for (auto& v : query) v = static_cast<float>(rng.Uniform(-10.0, 10.0));

  // Exact re-rank score == fp32 distance to the decoded row.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(store->ExactL2Squared(query.data(), uint32_t(i)),
                L2DistanceSquared(query.data(), decoded.row(i), dim),
                1e-2f)
        << "row " << i;
  }

  // Hot-path score == distance between the *quantized* query and the
  // decoded row (both sides on the code grid — offsets cancel).
  auto& sq8 = static_cast<Sq8Store&>(*store);
  std::vector<float> qquant(dim);
  for (size_t j = 0; j < dim; ++j) {
    const float t =
        std::round((query[j] - sq8.offsets()[j]) / sq8.scales()[j]);
    qquant[j] = sq8.offsets()[j] +
                sq8.scales()[j] * std::min(255.f, std::max(0.f, t));
  }
  std::vector<float> prep;
  store->PrepareQuery(query.data(), &prep);
  std::vector<float> scores(n);
  store->ScoreBatch(prep.data(), 0, nullptr, n, scores.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scores[i],
                L2DistanceSquared(qquant.data(), decoded.row(i), dim),
                1e-2f)
        << "row " << i;
  }
}

// PQ shape contracts: m code bytes per row, 256 * dim codebook floats
// regardless of the ragged subspace split, payload released.
TEST(PqStoreTest, ShapeAndCompression) {
  const size_t n = 500, dim = 23, m = 5;  // 23 % 5 != 0: ragged split
  const FloatMatrix original = RandomMatrix(n, dim, 61);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(original), m);
  auto& pq = static_cast<PqStore&>(*store);
  ASSERT_TRUE(pq.trained());
  EXPECT_EQ(pq.m(), m);
  EXPECT_EQ(store->bytes_per_vector(), m);
  EXPECT_EQ(pq.codebooks().size(), PqStore::kCentroids * dim);
  EXPECT_EQ(pq.codes().size(), n * m);
  EXPECT_TRUE(store->matrix().payload_released());
  EXPECT_TRUE(store->quantized());
  // Balanced ragged split: first dim % m subspaces are one wider.
  EXPECT_EQ(pq.sub_begin(0), 0u);
  EXPECT_EQ(pq.sub_begin(m), dim);
  for (size_t j = 0; j < m; ++j) {
    EXPECT_EQ(pq.sub_dim(j), j < dim % m ? dim / m + 1 : dim / m) << j;
  }
}

// With fewer seed rows than centroids the surplus centroids duplicate
// existing rows, so every seed row must encode (and decode) exactly.
TEST(PqStoreTest, FewerRowsThanCentroidsEncodeExactly) {
  const size_t n = 20, dim = 12, m = 3;
  const FloatMatrix original = RandomMatrix(n, dim, 67);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(original), m);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(decoded[j], original.at(i, j)) << "row " << i << " dim " << j;
    }
  }
}

// A subspace whose dimensions are constant across all rows must
// reconstruct that subvector exactly (every centroid collapses onto it).
TEST(PqStoreTest, ConstantSubvectorReconstructsExactly) {
  const size_t n = 400, dim = 8, m = 4;  // subspaces of 2 dims each
  FloatMatrix data = RandomMatrix(n, dim, 71);
  for (size_t i = 0; i < n; ++i) {
    data.at(i, 4) = 1.5f;  // subspace 2 = dims {4, 5} held constant
    data.at(i, 5) = -2.75f;
  }
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(data), m);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    EXPECT_EQ(decoded[4], 1.5f) << "row " << i;
    EXPECT_EQ(decoded[5], -2.75f) << "row " << i;
  }
}

// Insert/erase must follow FloatMatrix's LIFO recycle contract and
// re-encode the recycled slot's code bytes on write.
TEST(PqStoreTest, InsertEraseRecycleReencode) {
  const size_t n = 300, dim = 8, m = 4;
  const FloatMatrix seed = RandomMatrix(n, dim, 73);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(seed), m);
  auto& pq = static_cast<PqStore&>(*store);
  const std::vector<uint8_t> code7(pq.codes().begin() + 7 * m,
                                   pq.codes().begin() + 8 * m);
  ASSERT_TRUE(store->EraseRow(7).ok());
  ASSERT_TRUE(store->EraseRow(3).ok());
  EXPECT_FALSE(store->EraseRow(3).ok());  // double erase rejected
  // LIFO: last erased slot is recycled first; the new vector's code must
  // land in the recycled slot and differ from the old occupant's.
  std::vector<float> v(seed.row(100), seed.row(100) + dim);
  EXPECT_EQ(store->InsertRow(v.data(), dim), 3u);
  EXPECT_EQ(store->InsertRow(v.data(), dim), 7u);
  const std::vector<uint8_t> new7(pq.codes().begin() + 7 * m,
                                  pq.codes().begin() + 8 * m);
  const std::vector<uint8_t> new3(pq.codes().begin() + 3 * m,
                                  pq.codes().begin() + 4 * m);
  EXPECT_EQ(new7, new3);  // same vector, same codes
  // Appending past the end grows the code array in step with the matrix.
  EXPECT_EQ(store->InsertRow(v.data(), dim), static_cast<uint32_t>(n));
  EXPECT_EQ(pq.codes().size(), (n + 1) * m);
  std::vector<float> d3(dim), d7(dim);
  store->DecodeRow(3, d3.data());
  store->DecodeRow(7, d7.data());
  for (size_t j = 0; j < dim; ++j) EXPECT_EQ(d3[j], d7[j]) << j;
}

// DecodedCopy must reproduce decoded rows AND the exact tombstone state,
// free-list order included.
TEST(PqStoreTest, DecodedCopyPreservesTombstoneState) {
  const size_t dim = 6, m = 2;
  auto store = MakeVectorStore(
      StorageKind::kPq,
      std::make_unique<FloatMatrix>(RandomMatrix(30, dim, 79)), m);
  ASSERT_TRUE(store->EraseRow(11).ok());
  ASSERT_TRUE(store->EraseRow(4).ok());
  const FloatMatrix copy = store->DecodedCopy();
  EXPECT_EQ(copy.rows(), 30u);
  EXPECT_EQ(copy.live_rows(), 28u);
  EXPECT_TRUE(copy.IsDeleted(11));
  EXPECT_TRUE(copy.IsDeleted(4));
  ASSERT_EQ(copy.free_slots().size(), 2u);
  EXPECT_EQ(copy.free_slots()[0], 11u);
  EXPECT_EQ(copy.free_slots()[1], 4u);
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < copy.rows(); ++i) {
    if (copy.IsDeleted(i)) continue;
    store->DecodeRow(static_cast<uint32_t>(i), decoded.data());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(copy.at(i, j), decoded[j]) << "row " << i;
    }
  }
}

// The ADC score and the exact re-rank score must both equal the fp32
// distance to the centroid-decoded row: the query side of ADC is never
// quantized, so Σ_j ||q_j - c_j||^2 == ||q - decode(row)||^2.
TEST(PqStoreTest, AdcScoresMatchDecodedRows) {
  const size_t n = 64, dim = 17, m = 5;
  const FloatMatrix original = RandomMatrix(n, dim, 83);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(original), m);
  const FloatMatrix decoded = store->DecodedCopy();
  Rng rng(85);
  std::vector<float> query(dim);
  for (auto& v : query) v = static_cast<float>(rng.Uniform(-10.0, 10.0));
  std::vector<float> prep;
  store->PrepareQuery(query.data(), &prep);
  EXPECT_EQ(prep.size(), m * PqStore::kCentroids);  // the ADC LUT
  std::vector<float> scores(n);
  store->ScoreBatch(prep.data(), 0, nullptr, n, scores.data());
  for (size_t i = 0; i < n; ++i) {
    const float exact =
        L2DistanceSquared(query.data(), decoded.row(i), dim);
    EXPECT_NEAR(scores[i], exact, 1e-2f) << "row " << i;
    EXPECT_NEAR(store->ExactL2Squared(query.data(), uint32_t(i)), exact,
                1e-2f)
        << "row " << i;
  }
  // Id-list form agrees with the contiguous form.
  std::vector<uint32_t> ids = {5, 0, 63, 17, 17};
  std::vector<float> by_id(ids.size());
  store->ScoreBatch(prep.data(), 0, ids.data(), ids.size(), by_id.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(by_id[i], scores[ids[i]]) << "id " << ids[i];
  }
}

// An empty-seeded store trains on its first insert; until then it is
// untrained, and afterwards the first row reconstructs exactly.
TEST(PqStoreTest, EmptySeededTrainsOnFirstInsert) {
  const size_t dim = 10, m = 2;
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(0, dim), m);
  auto& pq = static_cast<PqStore&>(*store);
  EXPECT_FALSE(pq.trained());
  std::vector<float> v(dim);
  for (size_t j = 0; j < dim; ++j) v[j] = 0.5f * float(j) - 2.f;
  EXPECT_EQ(store->InsertRow(v.data(), dim), 0u);
  EXPECT_TRUE(pq.trained());
  std::vector<float> decoded(dim);
  store->DecodeRow(0, decoded.data());
  for (size_t j = 0; j < dim; ++j) EXPECT_EQ(decoded[j], v[j]) << j;
}

// RetrainQuantizer must be a pure function of the store's current state:
// two stores that evolved identically retrain to byte-identical
// codebooks and codes (the property WAL replay and replication rely on).
TEST(PqStoreTest, RetrainQuantizerIsDeterministic) {
  const size_t n = 256, dim = 8, m = 4;
  const FloatMatrix seed = RandomMatrix(n, dim, 89, /*span=*/1.0);
  const FloatMatrix drift = RandomMatrix(64, dim, 91, /*span=*/50.0);
  auto evolve = [&] {
    auto store = MakeVectorStore(StorageKind::kPq,
                                 std::make_unique<FloatMatrix>(seed), m);
    for (size_t i = 0; i < drift.rows(); ++i) {
      store->InsertRow(drift.row(i), dim);
    }
    EXPECT_TRUE(store->EraseRow(10).ok());  // non-void lambda: no ASSERT
    return store;
  };
  auto a = evolve();
  auto b = evolve();
  const bool a_changed = a->RetrainQuantizer();
  const bool b_changed = b->RetrainQuantizer();
  EXPECT_EQ(a_changed, b_changed);
  auto& pa = static_cast<PqStore&>(*a);
  auto& pb = static_cast<PqStore&>(*b);
  EXPECT_EQ(pa.codebooks(), pb.codebooks());
  EXPECT_EQ(pa.codes(), pb.codes());
}

std::vector<std::vector<Neighbor>> QueryAll(const DbLsh& index,
                                            const FloatMatrix& queries,
                                            size_t k) {
  std::vector<std::vector<Neighbor>> out;
  for (size_t q = 0; q < queries.rows(); ++q) {
    out.push_back(index.Query(queries.row(q), k));
  }
  return out;
}

void ExpectSameResults(const std::vector<std::vector<Neighbor>>& a,
                       const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t r = 0; r < a[q].size(); ++r) {
      EXPECT_EQ(a[q][r].id, b[q][r].id) << "query " << q << " rank " << r;
      EXPECT_EQ(a[q][r].dist, b[q][r].dist)
          << "query " << q << " rank " << r;
    }
  }
}

// v3 fp32 round-trip through both load surfaces: the legacy
// Load(FloatMatrix*) and the LoadStore + Load(VectorStore*) pair.
TEST(StorePersistenceTest, V3Fp32RoundTrip) {
  const FloatMatrix data = RandomMatrix(600, 16, 31);
  const FloatMatrix queries = RandomMatrix(5, 16, 32);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto before = QueryAll(index, queries, 10);
  const std::string path = TempPath("store_v3_fp32.idx");
  ASSERT_TRUE(index.Save(path).ok());

  FloatMatrix reload1 = data;
  auto legacy = DbLsh::Load(path, &reload1);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ExpectSameResults(before, QueryAll(legacy.value(), queries, 10));

  auto store = DbLsh::LoadStore(path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->storage_kind(), StorageKind::kFp32);
  auto via_store = DbLsh::Load(path, store.value().get());
  ASSERT_TRUE(via_store.ok()) << via_store.status().ToString();
  ExpectSameResults(before, QueryAll(via_store.value(), queries, 10));
  std::remove(path.c_str());
}

// v3 sq8 round-trip: LoadStore re-encodes the original fp32 dataset with
// the SAVED quantization parameters, so the restored codes are
// byte-identical (the codes checksum enforces it) and queries reproduce.
TEST(StorePersistenceTest, V3Sq8RoundTrip) {
  const FloatMatrix data = RandomMatrix(600, 16, 41);
  const FloatMatrix queries = RandomMatrix(5, 16, 42);
  auto store = MakeVectorStore(StorageKind::kSq8,
                               std::make_unique<FloatMatrix>(data));
  DbLsh index;
  {
    ScopedDecodeView view(store.get());
    ASSERT_TRUE(index.Build(&store->matrix()).ok());
  }
  const auto before = QueryAll(index, queries, 10);
  const std::string path = TempPath("store_v3_sq8.idx");
  ASSERT_TRUE(index.Save(path).ok());

  // The fp32-only surface must reject the quantized file with a pointer
  // to the store path, not crash or load garbage.
  FloatMatrix reject = data;
  EXPECT_FALSE(DbLsh::Load(path, &reject).ok());

  auto restored =
      DbLsh::LoadStore(path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->storage_kind(), StorageKind::kSq8);
  auto& sq8 = static_cast<Sq8Store&>(*restored.value());
  auto& orig = static_cast<Sq8Store&>(*store);
  EXPECT_EQ(sq8.scales(), orig.scales());
  EXPECT_EQ(sq8.offsets(), orig.offsets());
  EXPECT_EQ(sq8.codes(), orig.codes());
  auto loaded = DbLsh::Load(path, restored.value().get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameResults(before, QueryAll(loaded.value(), queries, 10));
  std::remove(path.c_str());
}

// Version-2 files (pre-VectorStore: no storage tag, implicitly fp32) must
// keep loading. Forged from a v3 fp32 file by rewriting the version field
// and dropping the tag byte — byte-identical to what the v2 writer
// produced, since v3 only inserted the tag.
TEST(StorePersistenceTest, V2FilesStillLoad) {
  const FloatMatrix data = RandomMatrix(500, 12, 51);
  const FloatMatrix queries = RandomMatrix(5, 12, 52);
  DbLsh index;
  ASSERT_TRUE(index.Build(&data).ok());
  const auto before = QueryAll(index, queries, 10);
  const std::string v3_path = TempPath("store_compat_v3.idx");
  ASSERT_TRUE(index.Save(v3_path).ok());

  std::ifstream in(v3_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 13u);
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + 8, &v2, sizeof(v2));  // version after magic
  bytes.erase(bytes.begin() + 12);                 // drop the storage tag
  const std::string v2_path = TempPath("store_compat_v2.idx");
  std::ofstream out(v2_path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  FloatMatrix reload = data;
  auto legacy = DbLsh::Load(v2_path, &reload);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ExpectSameResults(before, QueryAll(legacy.value(), queries, 10));

  auto store =
      DbLsh::LoadStore(v2_path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->storage_kind(), StorageKind::kFp32);
  std::remove(v3_path.c_str());
  std::remove(v2_path.c_str());
}

// v4 pq round-trip: LoadStore re-encodes the original fp32 dataset with
// the SAVED codebooks, so the restored codes are byte-identical (the
// codes checksum enforces it) and queries reproduce.
TEST(StorePersistenceTest, V4PqRoundTrip) {
  const FloatMatrix data = RandomMatrix(600, 16, 43);
  const FloatMatrix queries = RandomMatrix(5, 16, 44);
  auto store = MakeVectorStore(StorageKind::kPq,
                               std::make_unique<FloatMatrix>(data), 4);
  DbLsh index;
  {
    ScopedDecodeView view(store.get());
    ASSERT_TRUE(index.Build(&store->matrix()).ok());
  }
  const auto before = QueryAll(index, queries, 10);
  const std::string path = TempPath("store_v4_pq.idx");
  ASSERT_TRUE(index.Save(path).ok());

  // The fp32-only surface must reject the quantized file.
  FloatMatrix reject = data;
  EXPECT_FALSE(DbLsh::Load(path, &reject).ok());

  auto restored =
      DbLsh::LoadStore(path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value()->storage_kind(), StorageKind::kPq);
  auto& pq = static_cast<PqStore&>(*restored.value());
  auto& orig = static_cast<PqStore&>(*store);
  EXPECT_EQ(pq.m(), orig.m());
  EXPECT_EQ(pq.codebooks(), orig.codebooks());
  EXPECT_EQ(pq.codes(), orig.codes());
  auto loaded = DbLsh::Load(path, restored.value().get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameResults(before, QueryAll(loaded.value(), queries, 10));
  std::remove(path.c_str());
}

// Version-3 files (sq8/fp32, pre-PQ) must keep loading. v4 changed only
// the version number for those storage kinds, so a v3 file is forged by
// rewriting the version field of a current sq8 save. A *pq* file forged
// to v3 must be rejected: the kPq tag did not exist before v4.
TEST(StorePersistenceTest, V3FilesStillLoadAndV3PqIsRejected) {
  const FloatMatrix data = RandomMatrix(500, 12, 53);
  const FloatMatrix queries = RandomMatrix(5, 12, 54);
  auto forge_version = [](const std::string& from, const std::string& to,
                          uint32_t version) {
    std::ifstream in(from, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 12u);
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    std::ofstream out(to, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  auto sq8 = MakeVectorStore(StorageKind::kSq8,
                             std::make_unique<FloatMatrix>(data));
  DbLsh index;
  {
    ScopedDecodeView view(sq8.get());
    ASSERT_TRUE(index.Build(&sq8->matrix()).ok());
  }
  const auto before = QueryAll(index, queries, 10);
  const std::string v4_path = TempPath("store_compat_v4_sq8.idx");
  ASSERT_TRUE(index.Save(v4_path).ok());
  const std::string v3_path = TempPath("store_compat_v3_sq8.idx");
  forge_version(v4_path, v3_path, 3);
  auto restored =
      DbLsh::LoadStore(v3_path, std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value()->storage_kind(), StorageKind::kSq8);
  auto loaded = DbLsh::Load(v3_path, restored.value().get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameResults(before, QueryAll(loaded.value(), queries, 10));

  auto pq = MakeVectorStore(StorageKind::kPq,
                            std::make_unique<FloatMatrix>(data), 4);
  DbLsh pq_index;
  {
    ScopedDecodeView view(pq.get());
    ASSERT_TRUE(pq_index.Build(&pq->matrix()).ok());
  }
  const std::string pq_v4 = TempPath("store_compat_v4_pq.idx");
  ASSERT_TRUE(pq_index.Save(pq_v4).ok());
  const std::string pq_v3 = TempPath("store_compat_v3_pq.idx");
  forge_version(pq_v4, pq_v3, 3);
  EXPECT_FALSE(
      DbLsh::LoadStore(pq_v3, std::make_unique<FloatMatrix>(data)).ok());

  std::remove(v4_path.c_str());
  std::remove(v3_path.c_str());
  std::remove(pq_v4.c_str());
  std::remove(pq_v3.c_str());
}

// The recall contract of quantized storage, isolated from any index's
// candidate generation: a LinearScan collection under storage=sq8 scans
// every row asymmetrically and exact-re-ranks the top k*4 — recall
// against the fp32 LinearScan oracle (exact ground truth) must drop no
// more than 2%.
TEST(Sq8RecallTest, WithinTwoPercentOfLinearScanOracleAtDepth4k) {
  ClusteredSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.clusters = 200;  // ~10 points/cluster: realistic local structure
  spec.center_spread = 25.0;
  spec.cluster_stddev = 2.0;
  spec.seed = 20260809;
  const FloatMatrix data = GenerateClustered(spec);
  auto made = Collection::FromSpec(
      "collection,storage=sq8: LinearScan,name=scan",
      std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& collection = *made.value();

  Rng rng(99);
  const size_t k = 10, nq = 100;
  double recall_sum = 0.0;
  std::vector<float> query(spec.dim);
  for (size_t q = 0; q < nq; ++q) {
    const float* base = data.row(rng.UniformInt(data.rows()));
    for (size_t j = 0; j < spec.dim; ++j) {
      query[j] =
          base[j] + static_cast<float>(rng.Gaussian() * spec.cluster_stddev);
    }
    const auto oracle = ExactKnn(data, query.data(), k);
    QueryRequest request;
    request.k = k;
    auto got = collection.Search(query.data(), request, "scan");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<Neighbor> answer = std::move(got.value().neighbors);
    // Distances under sq8 are to decoded rows; rescore the returned ids
    // against the original data so Recall's distance matching measures
    // id-recall rather than quantization noise.
    for (Neighbor& nb : answer) {
      nb.dist = L2Distance(data.row(nb.id), query.data(), spec.dim);
    }
    std::sort(answer.begin(), answer.end());
    recall_sum += eval::Recall(answer, oracle);
  }
  const double recall = recall_sum / double(nq);
  EXPECT_GE(recall, 0.98) << "sq8 recall dropped more than 2% below the "
                             "LinearScan oracle";
}

// The PQ analog at rerank=8: a LinearScan collection under storage=pq
// scans every row via the ADC tables and exact-re-ranks the top k*8 —
// recall against the fp32 LinearScan oracle must stay >= 0.95 at this
// pinned scale (2000 rows, dim 16, m 8: 2-dim subspaces). Unlike sq8,
// PQ's re-rank re-scores against the same centroid decode the ADC table
// already measures, so recall is governed by codebook fineness — the
// subspaces must stay narrow enough for 256 centroids to resolve the
// cluster structure.
TEST(PqRecallTest, WithinOracleAtRerank8) {
  ClusteredSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.clusters = 200;
  spec.center_spread = 25.0;
  spec.cluster_stddev = 2.0;
  spec.seed = 20260810;
  const FloatMatrix data = GenerateClustered(spec);
  auto made = Collection::FromSpec(
      "collection,storage=pq,m=8,rerank=8: LinearScan,name=scan",
      std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& collection = *made.value();

  Rng rng(101);
  const size_t k = 10, nq = 100;
  double recall_sum = 0.0;
  std::vector<float> query(spec.dim);
  for (size_t q = 0; q < nq; ++q) {
    const float* base = data.row(rng.UniformInt(data.rows()));
    for (size_t j = 0; j < spec.dim; ++j) {
      query[j] =
          base[j] + static_cast<float>(rng.Gaussian() * spec.cluster_stddev);
    }
    const auto oracle = ExactKnn(data, query.data(), k);
    QueryRequest request;
    request.k = k;
    auto got = collection.Search(query.data(), request, "scan");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<Neighbor> answer = std::move(got.value().neighbors);
    // Distances under pq are to centroid-decoded rows; rescore against
    // the original data so Recall measures id-recall.
    for (Neighbor& nb : answer) {
      nb.dist = L2Distance(data.row(nb.id), query.data(), spec.dim);
    }
    std::sort(answer.begin(), answer.end());
    recall_sum += eval::Recall(answer, oracle);
  }
  const double recall = recall_sum / double(nq);
  EXPECT_GE(recall, 0.95) << "pq recall dropped below the LinearScan "
                             "oracle contract";
}

// Pins PQ output bit for bit: the ids and float distances of a fixed-seed
// storage=pq LinearScan collection (ADC over the contiguous code array),
// plus raw PqStore::ScoreBatch scores over an odd-length id list, folded
// into one FNV-1a digest. Everything behind these numbers is plain scalar
// arithmetic on uniform inputs (no libm calls but sqrt): k-means, the ADC
// table, the fixed-order ADC sum and the centroid re-rank, so the digest
// is the same on every CPU. It was recorded while AVX2/AVX-512 ADC kernels
// still existed, and pins that the scalar-only ADC changed no bit.
TEST(PqStoreTest, SearchDigestIsPinned) {
  const size_t dim = 24;
  const FloatMatrix data = RandomMatrix(3000, dim, 4242, 30.0);
  // m = 10 over dim 24: ragged subspaces and a 2-subspace ADC tail.
  auto made = Collection::FromSpec(
      "collection,storage=pq,m=10,rerank=4: LinearScan,name=scan",
      std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  PqStore store(std::make_unique<FloatMatrix>(data), 10);

  uint64_t digest = durability::Fnv1a64(nullptr, 0);
  auto fold = [&digest](const void* bytes, size_t len) {
    digest = durability::Fnv1a64(static_cast<const uint8_t*>(bytes), len,
                                 digest);
  };
  Rng rng(77);
  std::vector<float> query(dim);
  std::vector<float> prep;
  std::vector<uint32_t> ids(101);
  std::vector<float> scores(ids.size());
  for (size_t q = 0; q < 25; ++q) {
    for (float& x : query) x = static_cast<float>(rng.Uniform(-30.0, 30.0));
    QueryRequest request;
    request.k = 10;
    auto got = made.value()->Search(query.data(), request, "scan");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (const Neighbor& nb : got.value().neighbors) {
      fold(&nb.id, sizeof(nb.id));
      fold(&nb.dist, sizeof(nb.dist));
    }
    store.PrepareQuery(query.data(), &prep);
    for (uint32_t& id : ids) {
      id = static_cast<uint32_t>(rng.UniformInt(data.rows()));
    }
    store.ScoreBatch(prep.data(), 0, ids.data(), ids.size(), scores.data());
    fold(scores.data(), scores.size() * sizeof(float));
  }
  EXPECT_EQ(digest, 0xd68b066548bba4c4ull) << std::hex << digest;
}

}  // namespace
}  // namespace dblsh
