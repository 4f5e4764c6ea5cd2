// Tests for the Collection serving façade: collection-spec grammar,
// transactional Upsert/Delete, lazy builds and threshold-driven rebuild
// scheduling for static methods, routing, filtered search across all 12
// registered methods, a randomized interleaved mutation/query property
// test against the LinearScan oracle, and a threaded reader/writer stress
// test (the TSan CI job runs this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/collection.h"
#include "core/db_lsh.h"
#include "core/index_factory.h"
#include "dataset/float_matrix.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "durability/format.h"
#include "eval/metrics.h"
#include "exec/task_executor.h"
#include "simd/simd.h"
#include "util/random.h"

namespace dblsh {
namespace {

FloatMatrix EasyData(size_t n = 1000, size_t dim = 16, uint64_t seed = 801) {
  return GenerateClustered(
      {.n = n, .dim = dim, .clusters = 10, .seed = seed});
}

std::unique_ptr<FloatMatrix> EasyDataPtr(size_t n = 1000, size_t dim = 16,
                                         uint64_t seed = 801) {
  return std::make_unique<FloatMatrix>(EasyData(n, dim, seed));
}

// A vector far outside the clustered cloud (centers live in
// [0, 100)^dim), unambiguously its own 1-NN.
std::vector<float> OutlierVector(size_t dim, float value = 500.f) {
  return std::vector<float>(dim, value);
}

bool ContainsId(const std::vector<Neighbor>& result, uint32_t id) {
  return std::any_of(result.begin(), result.end(),
                     [id](const Neighbor& n) { return n.id == id; });
}

// Small-parameter specs for all 12 registered methods (update_test.cc's
// sizing: every method builds in milliseconds on the test datasets).
std::vector<std::string> AllMethodSpecs() {
  return {"DB-LSH,t=16", "FB-LSH,t=16", "E2LSH",      "LCCS-LSH",
          "LSB-Forest",  "LinearScan",  "MultiProbe", "PM-LSH",
          "QALSH,m=20",  "R2LSH,m=20",  "SRS",        "VHP,m=20"};
}

// Brute-force k-NN over the live rows of `data`, restricted to ids the
// (optional) filter admits — the oracle for every coherence check here.
std::vector<Neighbor> Oracle(const FloatMatrix& data, const float* q,
                             size_t k, const QueryFilter* filter = nullptr) {
  std::vector<Neighbor> all;
  for (uint32_t id = 0; id < data.rows(); ++id) {
    if (data.IsDeleted(id)) continue;
    if (filter != nullptr && !filter->Admits(id)) continue;
    double d2 = 0.0;
    for (size_t j = 0; j < data.cols(); ++j) {
      const double diff = double(q[j]) - double(data.at(id, j));
      d2 += diff * diff;
    }
    all.push_back({static_cast<float>(std::sqrt(d2)), id});
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end());
  all.resize(take);
  return all;
}

// Exact results may swap ranks with the float/SIMD pipeline on near-ties;
// accept id equality or a distance tie (same tolerance as update_test.cc).
void ExpectMatchesOracle(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i].id == want[i].id ||
                std::fabs(got[i].dist - want[i].dist) <=
                    1e-4f * (1.0f + want[i].dist))
        << context << " rank " << i << ": got id " << got[i].id << " dist "
        << got[i].dist << ", want id " << want[i].id << " dist "
        << want[i].dist;
  }
}

// ------------------------------------------------------ spec grammar ------

TEST(CollectionSpecTest, FromSpecBuildsNamedIndexes) {
  auto made = Collection::FromSpec(
      "collection: DB-LSH,t=16,name=main; LinearScan; "
      "PM-LSH,rebuild_threshold=8",
      EasyDataPtr(400));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const auto infos = made.value()->Indexes();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].name, "main");
  EXPECT_EQ(infos[0].method, "DB-LSH");
  EXPECT_TRUE(infos[0].supports_updates);
  EXPECT_TRUE(infos[0].built);
  EXPECT_EQ(infos[1].name, "LinearScan");
  EXPECT_EQ(infos[2].name, "PM-LSH");
  EXPECT_FALSE(infos[2].supports_updates);
  EXPECT_EQ(infos[2].rebuild_threshold, 8u);
  EXPECT_EQ(infos[0].rebuild_threshold, Collection::kDefaultRebuildThreshold);
}

TEST(CollectionSpecTest, FromSpecRejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "DB-LSH; LinearScan",              // missing collection: prefix
      "collection:",                     // no index specs
      "collection: DB-LSH;; LinearScan", // empty part
      "collection: NoSuchMethod",        // unknown method
      "collection: DB-LSH; DB-LSH",      // duplicate default name
      "collection: DB-LSH,rebuild_threshold=abc",  // bad collection key
      "collection: DB-LSH,no_such_key=1",          // bad method key
  };
  for (const std::string& spec : bad) {
    auto made = Collection::FromSpec(spec, EasyDataPtr(200));
    EXPECT_FALSE(made.ok()) << spec;
  }
  // Duplicate methods disambiguate with name=.
  auto made = Collection::FromSpec(
      "collection: DB-LSH,name=fast,t=8; DB-LSH,name=accurate,t=64",
      EasyDataPtr(200));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
}

TEST(CollectionSpecTest, PqSpecKeysValidated) {
  // m/nbits are pq-only keys; nbits must be 8 when given; m must fit the
  // dimensionality (dim 16 here) and be positive.
  const std::vector<std::string> bad = {
      "collection,m=4: LinearScan",               // m without storage=pq
      "collection,storage=sq8,m=4: LinearScan",   // m under sq8
      "collection,nbits=8: LinearScan",           // nbits without storage=pq
      "collection,storage=pq,m=4,nbits=4: LinearScan",  // unsupported width
      "collection,storage=pq,m=0: LinearScan",    // zero subspaces
      "collection,storage=pq,m=17: LinearScan",   // m > dim
  };
  for (const std::string& spec : bad) {
    EXPECT_FALSE(Collection::FromSpec(spec, EasyDataPtr(200)).ok()) << spec;
  }
  const std::vector<std::string> good = {
      "collection,storage=pq: LinearScan",            // default m
      "collection,storage=pq,m=4: LinearScan",
      "collection,storage=pq,m=4,nbits=8: LinearScan",
      "collection,storage=pq,m=16,rerank=8: LinearScan",  // m == dim
  };
  for (const std::string& spec : good) {
    auto made = Collection::FromSpec(spec, EasyDataPtr(200));
    EXPECT_TRUE(made.ok()) << spec << ": " << made.status().ToString();
  }
}

// Storage() must report bytes_per_vector uniformly for every storage
// kind — the `collection stats` and serving-stats surfaces rely on it.
TEST(CollectionStorageTest, BytesPerVectorReportedForAllKinds) {
  struct Case {
    const char* extra;
    const char* kind;
    size_t bytes;   // at dim 16
    size_t rerank;  // 0 = fp32 (no re-rank)
  };
  const Case cases[] = {
      {"", "fp32", 64, 0},
      {",storage=fp32", "fp32", 64, 0},
      {",storage=sq8", "sq8", 16, 4},        // default rerank
      {",storage=pq,m=4", "pq", 4, 4},
      {",storage=pq,m=4,rerank=6", "pq", 4, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.extra);
    auto made = Collection::FromSpec(
        std::string("collection") + c.extra + ": LinearScan",
        EasyDataPtr(200));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const CollectionStorageInfo info = made.value()->Storage();
    EXPECT_EQ(info.kind, c.kind);
    EXPECT_EQ(info.bytes_per_vector, c.bytes);
    EXPECT_EQ(info.rerank, c.rerank);
    EXPECT_GT(info.resident_bytes, 0u);
    EXPECT_FALSE(info.shard_resident_bytes.empty());
  }
}

// ----------------------------------------------- transactional updates ----

TEST(CollectionTest, UpsertDeleteSearchRoundTrip) {
  auto made = Collection::FromSpec("collection: DB-LSH,t=16; LinearScan",
                                   EasyDataPtr(600));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();
  EXPECT_EQ(c.size(), 600u);
  EXPECT_EQ(c.dim(), 16u);
  EXPECT_EQ(c.epoch(), 0u);

  const std::vector<float> outlier = OutlierVector(16);
  auto up = c.Upsert(outlier.data(), outlier.size());
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  const uint32_t id = up.value();
  EXPECT_EQ(id, 600u);
  EXPECT_EQ(c.size(), 601u);
  EXPECT_EQ(c.epoch(), 1u);

  // Both indexes serve the new vector as its own exact 1-NN.
  QueryRequest request;
  request.k = 1;
  for (const char* index : {"DB-LSH", "LinearScan"}) {
    auto got = c.Search(outlier.data(), request, index);
    ASSERT_TRUE(got.ok()) << index;
    ASSERT_EQ(got.value().neighbors.size(), 1u) << index;
    EXPECT_EQ(got.value().neighbors[0].id, id) << index;
    EXPECT_FLOAT_EQ(got.value().neighbors[0].dist, 0.f) << index;
  }

  // Delete commits everywhere at once.
  ASSERT_TRUE(c.Delete(id).ok());
  EXPECT_EQ(c.size(), 600u);
  EXPECT_EQ(c.epoch(), 2u);
  EXPECT_EQ(c.Delete(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(c.Delete(99999).code(), StatusCode::kNotFound);
  request.k = 5;
  for (const char* index : {"DB-LSH", "LinearScan"}) {
    auto got = c.Search(outlier.data(), request, index);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(ContainsId(got.value().neighbors, id)) << index;
  }

  // Dimension mismatches are rejected before any state changes.
  EXPECT_EQ(c.Upsert(outlier.data(), 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(c.epoch(), 2u);
}

TEST(CollectionTest, UpsertReplaceKeepsIdServingNewVector) {
  auto made = Collection::FromSpec("collection: DB-LSH,t=16; LinearScan",
                                   EasyDataPtr(500));
  ASSERT_TRUE(made.ok());
  Collection& c = *made.value();
  const std::vector<float> outlier = OutlierVector(16);
  const uint32_t id = 123;
  auto rep = c.Upsert(id, outlier.data(), outlier.size());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value(), id);  // same id keeps serving
  EXPECT_EQ(c.size(), 500u);   // replace, not grow

  QueryRequest request;
  request.k = 1;
  for (const char* index : {"DB-LSH", "LinearScan"}) {
    auto got = c.Search(outlier.data(), request, index);
    ASSERT_TRUE(got.ok());
    ASSERT_FALSE(got.value().neighbors.empty());
    EXPECT_EQ(got.value().neighbors[0].id, id) << index;
    EXPECT_FLOAT_EQ(got.value().neighbors[0].dist, 0.f) << index;
  }
  // Replacing a dead / never-assigned id is NotFound.
  ASSERT_TRUE(c.Delete(id).ok());
  EXPECT_EQ(c.Upsert(id, outlier.data(), 16).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(c.Upsert(70000, outlier.data(), 16).status().code(),
            StatusCode::kNotFound);
}

TEST(CollectionTest, EmptyCollectionBuildsIndexesLazily) {
  Collection c(8);
  ASSERT_TRUE(c.AddIndex("DB-LSH,name=main").ok());
  ASSERT_TRUE(c.AddIndex("LinearScan").ok());
  EXPECT_FALSE(c.Indexes()[0].built);

  // No index is servable before data arrives.
  QueryRequest request;
  const std::vector<float> probe = OutlierVector(8, 1.f);
  EXPECT_FALSE(c.Search(probe.data(), request).ok());
  EXPECT_FALSE(c.Search(probe.data(), request, "main").ok());

  Rng rng(5);
  std::vector<float> v(8);
  for (int i = 0; i < 20; ++i) {
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(c.Upsert(v.data(), v.size()).ok());
  }
  for (const auto& info : c.Indexes()) EXPECT_TRUE(info.built) << info.name;
  request.k = 3;
  auto got = c.Search(probe.data(), request, "main");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().neighbors.size(), 3u);
}

// ------------------------------------------------- rebuild scheduling -----

TEST(CollectionTest, StaticIndexRebuildsAtThreshold) {
  auto made = Collection::FromSpec(
      "collection: DB-LSH,t=16; PM-LSH,rebuild_threshold=6",
      EasyDataPtr(600));
  ASSERT_TRUE(made.ok());
  Collection& c = *made.value();

  const std::vector<float> outlier = OutlierVector(16);
  auto up = c.Upsert(outlier.data(), outlier.size());
  ASSERT_TRUE(up.ok());
  const uint32_t id = up.value();

  // One mutation in: DB-LSH (updatable) already serves the outlier, the
  // static PM-LSH does not — it is stale, not wrong.
  QueryRequest request;
  request.k = 1;
  auto fresh = c.Search(outlier.data(), request, "DB-LSH");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().neighbors[0].id, id);
  auto infos = c.Indexes();
  EXPECT_EQ(infos[0].staleness, 0u);
  EXPECT_EQ(infos[1].staleness, 1u);
  EXPECT_EQ(infos[1].rebuilds, 0u);

  // Drive staleness to the threshold: the collection rebuilds PM-LSH over
  // the live rows and it starts serving the outlier too.
  std::vector<float> v(16);
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    for (auto& x : v) x = static_cast<float>(50.0 + rng.Gaussian());
    ASSERT_TRUE(c.Upsert(v.data(), v.size()).ok());
  }
  infos = c.Indexes();
  EXPECT_EQ(infos[1].staleness, 0u);
  EXPECT_EQ(infos[1].rebuilds, 1u);
  auto rebuilt = c.Search(outlier.data(), request, "PM-LSH");
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_FALSE(rebuilt.value().neighbors.empty());
  EXPECT_EQ(rebuilt.value().neighbors[0].id, id);
}

// ----------------------------------------------------------- routing ------

TEST(CollectionRoutingTest, RoutesExplicitlyAndByFreshness) {
  auto made = Collection::FromSpec(
      "collection: PM-LSH,rebuild_threshold=100; DB-LSH,t=16",
      EasyDataPtr(500));
  ASSERT_TRUE(made.ok());
  Collection& c = *made.value();
  QueryRequest request;
  const std::vector<float> probe(16, 10.f);

  EXPECT_EQ(c.Search(probe.data(), request, "nope").status().code(),
            StatusCode::kNotFound);

  // All slots fresh: insertion order wins (PM-LSH is listed first).
  // After a mutation, PM-LSH is stale and routing prefers DB-LSH. The
  // routed method is observable through the response's stats profile, so
  // probe it via the per-index responses instead: both must serve.
  ASSERT_TRUE(c.Search(probe.data(), request, "PM-LSH").ok());
  ASSERT_TRUE(c.Search(probe.data(), request, "DB-LSH").ok());
  auto routed = c.Search(probe.data(), request);
  ASSERT_TRUE(routed.ok());

  const std::vector<float> outlier = OutlierVector(16);
  auto up = c.Upsert(outlier.data(), outlier.size());
  ASSERT_TRUE(up.ok());
  // PM-LSH is now stale (staleness 1 < threshold 100), DB-LSH absorbed the
  // insert; default routing must pick the fresh index and therefore find
  // the brand-new vector.
  request.k = 1;
  auto got = c.Search(outlier.data(), request);
  ASSERT_TRUE(got.ok());
  ASSERT_FALSE(got.value().neighbors.empty());
  EXPECT_EQ(got.value().neighbors[0].id, up.value());
}

TEST(CollectionRoutingTest, SearchBatchServesAllRowsUnderOneRoute) {
  auto made = Collection::FromSpec("collection: DB-LSH,t=16; LinearScan",
                                   EasyDataPtr(400));
  ASSERT_TRUE(made.ok());
  Collection& c = *made.value();
  const FloatMatrix queries = EasyData(8, 16, 902);
  QueryRequest request;
  request.k = 5;
  for (const std::string& name : {std::string(""), std::string("LinearScan"),
                                  std::string("DB-LSH")}) {
    auto got = c.SearchBatch(queries, request, name, /*num_threads=*/2);
    ASSERT_TRUE(got.ok()) << name;
    ASSERT_EQ(got.value().size(), queries.rows()) << name;
    for (const QueryResponse& response : got.value()) {
      EXPECT_EQ(response.neighbors.size(), 5u);
    }
  }
  // Mismatched query width is rejected.
  EXPECT_FALSE(c.SearchBatch(EasyData(2, 8, 1), request).ok());
}

// ------------------------------------------ filter across all methods -----

TEST(CollectionFilterTest, FilterNeverLeaksExcludedIdsForAnyMethod) {
  // One collection holding all 12 registered methods over one dataset:
  // the same filtered request must hold the exclusion guarantee for every
  // slot (the push-down lives in the shared verification path, so no
  // method needs its own filtering code).
  auto data = EasyDataPtr(900, 16, 31);
  Collection c(std::move(data));
  for (const std::string& spec : AllMethodSpecs()) {
    ASSERT_TRUE(c.AddIndex(spec).ok()) << spec;
  }
  const FloatMatrix snapshot = c.Snapshot();

  // Deny the ids nearest to the probe points — exactly the ones an
  // unfiltered search returns, so any leak surfaces immediately.
  const std::vector<uint32_t> probes = {3, 404, 777};
  for (const uint32_t probe : probes) {
    const float* q = snapshot.row(probe);
    std::vector<uint32_t> deny;
    for (const Neighbor& n : Oracle(snapshot, q, 5)) deny.push_back(n.id);

    QueryRequest plain;
    plain.k = 10;
    QueryRequest denied = plain;
    denied.filter = QueryFilter::Deny(deny);
    QueryRequest allowed = plain;
    const std::vector<uint32_t> allow = {1, 2, 5, 8, 13, 21, 34, 55};
    allowed.filter = QueryFilter::AllowOnly(allow);
    QueryRequest odd = plain;
    odd.filter =
        QueryFilter::Of([](uint32_t id) { return id % 2 == 1; });

    for (const auto& info : c.Indexes()) {
      auto got = c.Search(q, denied, info.name);
      ASSERT_TRUE(got.ok()) << info.name;
      for (const uint32_t v : deny) {
        EXPECT_FALSE(ContainsId(got.value().neighbors, v))
            << info.name << " leaked denied id " << v;
      }
      got = c.Search(q, allowed, info.name);
      ASSERT_TRUE(got.ok()) << info.name;
      for (const Neighbor& n : got.value().neighbors) {
        EXPECT_TRUE(std::count(allow.begin(), allow.end(), n.id))
            << info.name << " returned id " << n.id
            << " outside the allow-list";
      }
      got = c.Search(q, odd, info.name);
      ASSERT_TRUE(got.ok()) << info.name;
      for (const Neighbor& n : got.value().neighbors) {
        EXPECT_EQ(n.id % 2, 1u) << info.name;
      }
      // Empty filter means "index default": identical to no filter.
      QueryRequest empty_filter = plain;
      empty_filter.filter = QueryFilter::Deny({});
      auto a = c.Search(q, plain, info.name);
      auto b = c.Search(q, empty_filter, info.name);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().neighbors, b.value().neighbors) << info.name;
    }
  }

  // LinearScan is exact: its filtered answer IS the filtered oracle.
  const float* q = snapshot.row(42);
  QueryRequest request;
  request.k = 7;
  request.filter = QueryFilter::Of([](uint32_t id) { return id % 3 == 0; });
  auto got = c.Search(q, request, "LinearScan");
  ASSERT_TRUE(got.ok());
  ExpectMatchesOracle(got.value().neighbors,
                      Oracle(snapshot, q, 7, &request.filter),
                      "LinearScan filtered");
}

// --------------------------------- interleaved coherence vs the oracle ----

TEST(CollectionOracleTest, RandomizedInterleavingMatchesLinearScanOracle) {
  const size_t dim = 12;
  auto made = Collection::FromSpec(
      "collection: LinearScan; DB-LSH,t=16; PM-LSH,rebuild_threshold=40",
      EasyDataPtr(400, dim, 90210));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();
  const FloatMatrix pool = EasyData(300, dim, 90211);

  Rng rng(1234);
  size_t next_pool = 0;
  std::vector<uint32_t> live;
  for (uint32_t id = 0; id < 400; ++id) live.push_back(id);

  for (size_t step = 0; step < 400; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.15 && next_pool < pool.rows()) {
      auto up = c.Upsert(pool.row(next_pool++), dim);
      ASSERT_TRUE(up.ok()) << up.status().ToString();
      live.push_back(up.value());
    } else if (dice < 0.25 && live.size() > 50) {
      const size_t pick = rng.UniformInt(live.size());
      const uint32_t id = live[pick];
      ASSERT_TRUE(c.Delete(id).ok()) << "step " << step;
      live[pick] = live.back();
      live.pop_back();
    } else if (dice < 0.30 && live.size() > 50) {
      // Replace a live id in place.
      const uint32_t id = live[rng.UniformInt(live.size())];
      std::vector<float> v(dim);
      for (auto& x : v) x = static_cast<float>(rng.Gaussian() * 30.0);
      auto rep = c.Upsert(id, v.data(), dim);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      ASSERT_EQ(rep.value(), id);
    } else {
      // Probe near a live point; LinearScan through the collection must
      // equal the brute-force oracle over the live rows, with and without
      // a filter; the approximate indexes must only return live, admitted
      // ids.
      const uint32_t near = live[rng.UniformInt(live.size())];
      const FloatMatrix snapshot = c.Snapshot();
      std::vector<float> q(snapshot.row(near), snapshot.row(near) + dim);
      q[0] += 0.25f;

      QueryRequest request;
      request.k = 5;
      if (step % 3 == 0) {
        std::vector<uint32_t> deny;
        for (size_t i = 0; i < 8; ++i) {
          deny.push_back(live[rng.UniformInt(live.size())]);
        }
        request.filter = QueryFilter::Deny(deny);
      }

      auto exact = c.Search(q.data(), request, "LinearScan");
      ASSERT_TRUE(exact.ok());
      ExpectMatchesOracle(
          exact.value().neighbors,
          Oracle(snapshot, q.data(), request.k, &request.filter),
          "step " + std::to_string(step));

      for (const char* name : {"DB-LSH", "PM-LSH"}) {
        auto approx = c.Search(q.data(), request, name);
        ASSERT_TRUE(approx.ok()) << name;
        for (const Neighbor& n : approx.value().neighbors) {
          EXPECT_FALSE(snapshot.IsDeleted(n.id))
              << name << " returned dead id " << n.id << " at step " << step;
          EXPECT_TRUE(request.filter.Admits(n.id))
              << name << " ignored the filter at step " << step;
        }
      }
    }
  }
  // The static index went through automatic rebuilds during the run.
  for (const auto& info : c.Indexes()) {
    if (!info.supports_updates) {
      EXPECT_GT(info.rebuilds, 0u) << info.name;
    }
  }
}

// -------------------------------------- threaded reader/writer stress -----

// One writer thread streams Upsert/Delete traffic while reader tasks
// hammer Search on every slot (concurrent-read DB-LSH, per-slot-serialized
// PM-LSH, exact LinearScan). Readers assert per-response invariants that
// hold at EVERY epoch (sortedness, liveness-independent filter exclusion);
// the writer pauses at checkpoints so the oracle can be compared against a
// consistent snapshot while readers keep running. The readers run as tasks
// on a dedicated executor (no raw std::thread outside src/exec/). TSan
// runs this, for the unsharded spec and the sharded/background one.
void RunReadersUnderWriterStress(const std::string& spec) {
  const size_t dim = 16;
  const size_t seed_rows = 1500;
  auto made = Collection::FromSpec(spec, EasyDataPtr(seed_rows, dim, 77));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();

  // Ids 0..15 stay untouched by the writer (it only deletes ids >= 32), so
  // a deny-filter over them is checkable from any thread at any time.
  std::vector<uint32_t> protected_ids;
  for (uint32_t id = 0; id < 16; ++id) protected_ids.push_back(id);
  const QueryFilter deny_protected = QueryFilter::Deny(protected_ids);

  constexpr size_t kReaders = 4;
  constexpr size_t kWriterBatches = 12;
  constexpr size_t kBatchOps = 25;
  std::atomic<bool> done{false};
  std::atomic<size_t> reader_queries{0};
  std::vector<std::string> routes = {"DB-LSH", "PM-LSH", "LinearScan", ""};

  exec::TaskExecutor reader_pool(kReaders);
  std::vector<std::future<void>> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.push_back(reader_pool.Submit([&, r]() {
      Rng rng(1000 + r);
      std::vector<float> q(dim);
      size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (auto& x : q) {
          x = static_cast<float>(50.0 + 20.0 * rng.Gaussian());
        }
        QueryRequest request;
        request.k = 10;
        request.filter = deny_protected;
        auto got = c.Search(q.data(), request, routes[i++ % routes.size()]);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const auto& neighbors = got.value().neighbors;
        for (size_t j = 0; j < neighbors.size(); ++j) {
          // Filter exclusion holds at every epoch.
          EXPECT_FALSE(std::count(protected_ids.begin(), protected_ids.end(),
                                  neighbors[j].id));
          // Responses are internally consistent: ascending, no duplicates.
          if (j > 0) {
            EXPECT_LE(neighbors[j - 1].dist, neighbors[j].dist);
            EXPECT_NE(neighbors[j - 1].id, neighbors[j].id);
          }
        }
        reader_queries.fetch_add(1, std::memory_order_relaxed);
      }
    }));
  }

  // Writer: batches of mixed traffic, then a quiescent oracle checkpoint
  // (readers keep running — reads never conflict with reads).
  Rng rng(4242);
  const FloatMatrix pool = EasyData(kWriterBatches * kBatchOps, dim, 78);
  size_t next_pool = 0;
  std::vector<uint32_t> deletable;
  for (uint32_t id = 32; id < seed_rows; ++id) deletable.push_back(id);
  for (size_t batch = 0; batch < kWriterBatches; ++batch) {
    for (size_t op = 0; op < kBatchOps; ++op) {
      if (rng.NextDouble() < 0.5 && !deletable.empty()) {
        const size_t pick = rng.UniformInt(deletable.size());
        ASSERT_TRUE(c.Delete(deletable[pick]).ok());
        deletable[pick] = deletable.back();
        deletable.pop_back();
      } else {
        auto up = c.Upsert(pool.row(next_pool++), dim);
        ASSERT_TRUE(up.ok()) << up.status().ToString();
        if (up.value() >= 32) deletable.push_back(up.value());
      }
    }
    // Checkpoint: no writer activity while this compares, so the epoch
    // brackets a mutation-free interval and the snapshot is the truth.
    const uint64_t epoch_before = c.epoch();
    const FloatMatrix snapshot = c.Snapshot();
    std::vector<float> q(snapshot.row(64), snapshot.row(64) + dim);
    QueryRequest request;
    request.k = 5;
    auto exact = c.Search(q.data(), request, "LinearScan");
    ASSERT_TRUE(exact.ok());
    ExpectMatchesOracle(exact.value().neighbors,
                        Oracle(snapshot, q.data(), request.k),
                        "checkpoint " + std::to_string(batch));
    EXPECT_EQ(c.epoch(), epoch_before);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.get();
  EXPECT_GT(reader_queries.load(), 0u);
  c.WaitForRebuilds();

  // Post-run coherence, single-threaded: every slot serves, nothing dead
  // leaks, and the final state matches the oracle exactly via LinearScan.
  const FloatMatrix snapshot = c.Snapshot();
  QueryRequest request;
  request.k = 10;
  for (const auto& info : c.Indexes()) {
    auto got = c.Search(snapshot.row(64), request, info.name);
    ASSERT_TRUE(got.ok()) << info.name;
    for (const Neighbor& n : got.value().neighbors) {
      EXPECT_FALSE(snapshot.IsDeleted(n.id)) << info.name;
    }
  }
  auto exact = c.Search(snapshot.row(64), request, "LinearScan");
  ASSERT_TRUE(exact.ok());
  ExpectMatchesOracle(exact.value().neighbors,
                      Oracle(snapshot, snapshot.row(64), request.k),
                      "final state");
}

// A 90/5/5 query/upsert/delete stream (an upsert and a delete every 20
// ops; queries and the evaluation set are live rows plus cluster noise)
// against a Collection whose DB-LSH index absorbs every mutation in place.
// Afterwards its recall@10 must stay within 0.02 of a DB-LSH freshly
// built over the final rows at the same parameters: updating the R*-trees
// in place loses nothing a full rebuild would recover.
TEST(CollectionStreamingTest, InPlaceUpdatesKeepRecallOfAFreshBuild) {
  constexpr size_t kN = 5000, kDim = 32, kOps = 1000, kK = 10, kEval = 50;
  constexpr size_t kUpserts = kOps / 20, kDeletes = kOps / 20;
  constexpr uint64_t kSeed = 7;
  ClusteredSpec spec;
  spec.n = kN + kUpserts;  // the tail rows are the upsert stream
  spec.dim = kDim;
  spec.clusters = std::max<size_t>(32, spec.n / 10);
  spec.center_spread = 25.0;
  spec.seed = kSeed;
  const FloatMatrix cloud = GenerateClustered(spec);
  auto made =
      Collection::FromSpec("collection: DB-LSH,name=streaming",
                           std::make_unique<FloatMatrix>(cloud.Prefix(kN)));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& collection = *made.value();
  const auto* streaming =
      dynamic_cast<const DbLsh*>(collection.GetIndex("streaming"));
  ASSERT_NE(streaming, nullptr);

  Rng rng(kSeed ^ 0x57EAAULL);
  const auto perturb = [&](const float* base, float* out) {
    for (size_t j = 0; j < kDim; ++j) {
      out[j] =
          base[j] + static_cast<float>(rng.Gaussian() * spec.cluster_stddev);
    }
  };
  // The live ids and the cloud row each one serves.
  std::vector<uint32_t> live;
  std::vector<const float*> live_vec;
  for (uint32_t id = 0; id < kN; ++id) {
    live.push_back(id);
    live_vec.push_back(cloud.row(id));
  }
  QueryRequest request;
  request.k = kK;
  std::vector<float> query(kDim);
  size_t next_row = kN, upserts = 0, deletes = 0;
  for (size_t op = 0; op < kOps; ++op) {
    const size_t phase = op % 20;
    if (phase == 7 && upserts < kUpserts) {
      const float* vec = cloud.row(next_row++);
      auto up = collection.Upsert(vec, kDim);
      ASSERT_TRUE(up.ok()) << up.status().ToString();
      live.push_back(up.value());
      live_vec.push_back(vec);
      ++upserts;
    } else if (phase == 13 && deletes < kDeletes) {
      const size_t pick = rng.UniformInt(live.size());
      ASSERT_TRUE(collection.Delete(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
      live_vec[pick] = live_vec.back();
      live_vec.pop_back();
      ++deletes;
    } else {
      perturb(live_vec[rng.UniformInt(live_vec.size())], query.data());
      ASSERT_TRUE(collection.Search(query.data(), request, "streaming").ok());
    }
  }
  ASSERT_EQ(upserts, kUpserts);
  ASSERT_EQ(deletes, kDeletes);

  const FloatMatrix final_data = collection.Snapshot();
  FloatMatrix eval_set(kEval, kDim);
  for (size_t q = 0; q < kEval; ++q) {
    perturb(final_data.row(live[rng.UniformInt(live.size())]),
            eval_set.mutable_row(q));
  }
  DbLsh rebuilt(streaming->params());
  ASSERT_TRUE(rebuilt.Build(&final_data).ok());
  double streamed_recall = 0.0, rebuilt_recall = 0.0;
  for (size_t q = 0; q < kEval; ++q) {
    const auto gt = ExactKnn(final_data, eval_set.row(q), kK);
    auto got = collection.Search(eval_set.row(q), request, "streaming");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    streamed_recall += eval::Recall(got.value().neighbors, gt);
    rebuilt_recall += eval::Recall(rebuilt.Query(eval_set.row(q), kK), gt);
  }
  streamed_recall /= kEval;
  rebuilt_recall /= kEval;
  EXPECT_GE(streamed_recall, rebuilt_recall - 0.02)
      << "streamed " << streamed_recall << " vs rebuilt " << rebuilt_recall;
  EXPECT_GT(rebuilt_recall, 0.5);  // the comparison is not between zeros
}

TEST(ConcurrentCollectionTest, ReadersStayCoherentUnderWriter) {
  RunReadersUnderWriterStress(
      "collection: DB-LSH,t=16; PM-LSH,rebuild_threshold=64; LinearScan");
}

TEST(ConcurrentCollectionTest, ReadersStayCoherentUnderWriterSharded) {
  RunReadersUnderWriterStress(
      "collection,shards=4,rebuild=background: DB-LSH,t=16; "
      "PM-LSH,rebuild_threshold=64; LinearScan");
}

// ---------------------------------------------------------- adoption ------

TEST(CollectionTest, AddPrebuiltIndexServesWithoutRebuild) {
  auto data = EasyDataPtr(400, 16, 5150);
  FloatMatrix* raw = data.get();
  auto made = IndexFactory::Make("DB-LSH,t=16");
  ASSERT_TRUE(made.ok());
  std::unique_ptr<AnnIndex> index = std::move(made).value();
  ASSERT_TRUE(index->Build(raw).ok());

  Collection c(std::move(data));
  ASSERT_TRUE(c.AddPrebuiltIndex("restored", std::move(index)).ok());
  EXPECT_EQ(c.AddPrebuiltIndex("restored", nullptr).code(),
            StatusCode::kInvalidArgument);

  QueryRequest request;
  request.k = 3;
  const FloatMatrix snapshot = c.Snapshot();
  auto got = c.Search(snapshot.row(7), request, "restored");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().neighbors.size(), 3u);
  EXPECT_EQ(got.value().neighbors[0].id, 7u);

  // The adopted index keeps absorbing mutations like any updatable slot.
  const std::vector<float> outlier = OutlierVector(16);
  auto up = c.Upsert(outlier.data(), outlier.size());
  ASSERT_TRUE(up.ok());
  request.k = 1;
  auto found = c.Search(outlier.data(), request, "restored");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().neighbors[0].id, up.value());

  // GetIndex exposes the slot for persistence-style access.
  EXPECT_NE(c.GetIndex("restored"), nullptr);
  EXPECT_EQ(c.GetIndex("missing"), nullptr);
}

// ---------------------------------------------------------- sharding ------

TEST(ShardedCollectionTest, SpecParsesShardAndRebuildOptions) {
  auto made = Collection::FromSpec(
      "collection,shards=4: LinearScan; DB-LSH,t=16", EasyDataPtr(300));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_EQ(made.value()->shards(), 4u);
  EXPECT_EQ(made.value()->size(), 300u);
  EXPECT_EQ(made.value()->dim(), 16u);
  for (const auto& info : made.value()->Indexes()) {
    EXPECT_TRUE(info.built) << info.name;
    EXPECT_FALSE(info.rebuild_inflight) << info.name;
  }

  EXPECT_TRUE(Collection::FromSpec(
                  "collection,rebuild=background,shards=2: LinearScan",
                  EasyDataPtr(50))
                  .ok());
  EXPECT_TRUE(
      Collection::FromSpec("collection,rebuild=inline: LinearScan",
                           EasyDataPtr(50))
          .ok());
  // Bad collection options are rejected.
  for (const char* spec :
       {"collection,shards=0: LinearScan", "collection,shards=x: LinearScan",
        "collection,rebuild=sometimes: LinearScan",
        "collection,no_such_option=1: LinearScan",
        "collection,compact_threshold=nan: LinearScan",
        "collection: DB-LSH,c=nan"}) {
    EXPECT_EQ(Collection::FromSpec(spec, EasyDataPtr(50)).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
}

TEST(ShardedCollectionTest, PrebuiltAdoptionRequiresSingleShard) {
  auto data = EasyDataPtr(200, 16, 5151);
  auto made = IndexFactory::Make("DB-LSH,t=16");
  ASSERT_TRUE(made.ok());
  CollectionOptions options;
  options.shards = 2;
  Collection c(std::move(data), options);
  EXPECT_EQ(c.AddPrebuiltIndex("adopted", std::move(made).value()).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedCollectionTest, ExactMethodMatchesSingleShardBitForBit) {
  // LinearScan is exact and deterministic, so the 4-shard fan-out/merge
  // over the same rows must reproduce the unsharded result exactly — ids,
  // distances, and (dist, id) tie-breaks included. This is the exact-merge
  // guarantee the class comment makes.
  const size_t dim = 12;
  const FloatMatrix data = EasyData(503, dim, 4242);  // odd n: ragged shards
  auto single = Collection::FromSpec(
      "collection: LinearScan", std::make_unique<FloatMatrix>(data));
  auto sharded = Collection::FromSpec(
      "collection,shards=4: LinearScan", std::make_unique<FloatMatrix>(data));
  ASSERT_TRUE(single.ok() && sharded.ok());

  const FloatMatrix queries = EasyData(12, dim, 4243);
  QueryRequest request;
  request.k = 9;
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto a = single.value()->Search(queries.row(q), request);
    auto b = sharded.value()->Search(queries.row(q), request);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().neighbors, b.value().neighbors) << "query " << q;
  }
  // The batched path merges identically, at any thread count.
  auto a = single.value()->SearchBatch(queries, request);
  auto b = sharded.value()->SearchBatch(queries, request, "", 3);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ(a.value()[q].neighbors, b.value()[q].neighbors) << q;
  }
}

TEST(ShardedCollectionTest, EmptyAndTinyCollectionsServeAcrossShards) {
  // 8 shards over 3 rows: most shards are empty and must contribute
  // nothing (not errors) to the merge.
  CollectionOptions options;
  options.shards = 8;
  Collection c(4, options);
  ASSERT_TRUE(c.AddIndex("LinearScan").ok());
  QueryRequest request;
  request.k = 5;
  const std::vector<float> probe(4, 0.5f);
  EXPECT_FALSE(c.Search(probe.data(), request).ok());  // nothing built yet
  EXPECT_EQ(c.Search(probe.data(), request, "nope").status().code(),
            StatusCode::kNotFound);  // names still resolve while empty

  std::vector<uint32_t> ids;
  for (int i = 0; i < 3; ++i) {
    const std::vector<float> v(4, static_cast<float>(i));
    auto up = c.Upsert(v.data(), v.size());
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    ids.push_back(up.value());
  }
  EXPECT_EQ(c.size(), 3u);
  auto got = c.Search(probe.data(), request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().neighbors.size(), 3u);  // all rows, despite k = 5
  // Round-trip every id through replace + delete to exercise routing.
  const std::vector<float> moved(4, 9.f);
  for (const uint32_t id : ids) {
    auto rep = c.Upsert(id, moved.data(), moved.size());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep.value(), id);
  }
  for (const uint32_t id : ids) ASSERT_TRUE(c.Delete(id).ok());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.Delete(ids[0]).code(), StatusCode::kNotFound);
}

// The satellite oracle test: one mutation/query trace applied to a sharded
// collection, an unsharded twin, and the brute-force oracle. Ids diverge
// between the twins (shard routing assigns different ids to fresh
// upserts), so the trace tracks the id pair per logical row and the
// comparison works on distances (exact across twins) and id mapping.
TEST(ShardedCollectionOracleTest, RandomizedTraceMatchesUnshardedAndOracle) {
  const size_t dim = 10;
  const FloatMatrix seed = EasyData(240, dim, 9090);
  // Threshold sized so each of the 4 shards (which each see ~1/4 of the
  // mutation stream) crosses it several times over the trace.
  const std::string lineup = "LinearScan; DB-LSH,t=16; "
                             "PM-LSH,rebuild_threshold=12";
  auto s1 = Collection::FromSpec("collection: " + lineup,
                                 std::make_unique<FloatMatrix>(seed));
  auto s4 = Collection::FromSpec("collection,shards=4: " + lineup,
                                 std::make_unique<FloatMatrix>(seed));
  ASSERT_TRUE(s1.ok() && s4.ok());
  Collection& one = *s1.value();
  Collection& four = *s4.value();

  const FloatMatrix pool = EasyData(200, dim, 9091);
  Rng rng(31337);
  size_t next_pool = 0;
  // Live logical rows as (id in `one`, id in `four`, source vector).
  struct LiveRow {
    uint32_t id_one;
    uint32_t id_four;
    const float* vec;
  };
  std::vector<LiveRow> live;
  for (uint32_t id = 0; id < seed.rows(); ++id) {
    live.push_back({id, id, seed.row(id)});
  }
  std::vector<float> replace_buf(dim);

  for (size_t step = 0; step < 350; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.15 && next_pool < pool.rows()) {
      const float* vec = pool.row(next_pool++);
      auto up1 = one.Upsert(vec, dim);
      auto up4 = four.Upsert(vec, dim);
      ASSERT_TRUE(up1.ok() && up4.ok());
      live.push_back({up1.value(), up4.value(), vec});
    } else if (dice < 0.25 && live.size() > 60) {
      const size_t pick = rng.UniformInt(live.size());
      ASSERT_TRUE(one.Delete(live[pick].id_one).ok()) << "step " << step;
      ASSERT_TRUE(four.Delete(live[pick].id_four).ok()) << "step " << step;
      live[pick] = live.back();
      live.pop_back();
    } else if (dice < 0.30 && live.size() > 60) {
      const size_t pick = rng.UniformInt(live.size());
      for (auto& x : replace_buf) {
        x = static_cast<float>(rng.Gaussian() * 30.0);
      }
      auto rep1 = one.Upsert(live[pick].id_one, replace_buf.data(), dim);
      auto rep4 = four.Upsert(live[pick].id_four, replace_buf.data(), dim);
      ASSERT_TRUE(rep1.ok() && rep4.ok());
      // Replaced rows point at pool-external data; drop the stale vec but
      // keep tracking the ids (vec is only used to build query probes).
      live[pick].vec = nullptr;
    } else {
      // Probe near a live point, alternating unfiltered / deny-filtered.
      const LiveRow* base = nullptr;
      for (int tries = 0; tries < 8 && base == nullptr; ++tries) {
        const LiveRow& candidate = live[rng.UniformInt(live.size())];
        if (candidate.vec != nullptr) base = &candidate;
      }
      if (base == nullptr) continue;
      std::vector<float> q(base->vec, base->vec + dim);
      q[0] += 0.25f;

      QueryRequest req_one, req_four;
      req_one.k = req_four.k = 5;
      if (step % 3 == 0) {
        std::vector<uint32_t> deny_one, deny_four;
        for (size_t i = 0; i < 8; ++i) {
          const LiveRow& row = live[rng.UniformInt(live.size())];
          deny_one.push_back(row.id_one);
          deny_four.push_back(row.id_four);
        }
        req_one.filter = QueryFilter::Deny(deny_one);
        req_four.filter = QueryFilter::Deny(deny_four);
      }

      auto exact_one = one.Search(q.data(), req_one, "LinearScan");
      auto exact_four = four.Search(q.data(), req_four, "LinearScan");
      ASSERT_TRUE(exact_one.ok() && exact_four.ok()) << "step " << step;

      // Both twins are exact over the same logical rows: identical
      // distance profiles, rank by rank.
      const auto& n1 = exact_one.value().neighbors;
      const auto& n4 = exact_four.value().neighbors;
      ASSERT_EQ(n1.size(), n4.size()) << "step " << step;
      for (size_t i = 0; i < n1.size(); ++i) {
        EXPECT_EQ(n1[i].dist, n4[i].dist)
            << "step " << step << " rank " << i;
      }

      // The sharded result must equal the oracle over the sharded
      // collection's own snapshot (filters + tombstones included).
      const FloatMatrix snapshot = four.Snapshot();
      ExpectMatchesOracle(
          n4, Oracle(snapshot, q.data(), req_four.k, &req_four.filter),
          "sharded step " + std::to_string(step));

      // Approximate methods through the sharded fan-out: every id is
      // live, admitted, and the response is sorted and duplicate-free.
      for (const char* name : {"DB-LSH", "PM-LSH"}) {
        auto approx = four.Search(q.data(), req_four, name);
        ASSERT_TRUE(approx.ok()) << name;
        const auto& neighbors = approx.value().neighbors;
        for (size_t i = 0; i < neighbors.size(); ++i) {
          EXPECT_FALSE(snapshot.IsDeleted(neighbors[i].id))
              << name << " returned dead id at step " << step;
          EXPECT_TRUE(req_four.filter.Admits(neighbors[i].id))
              << name << " ignored the filter at step " << step;
          if (i > 0) {
            EXPECT_LE(neighbors[i - 1].dist, neighbors[i].dist) << name;
            EXPECT_NE(neighbors[i - 1].id, neighbors[i].id) << name;
          }
        }
      }
    }
    // The twins see one mutation stream: sizes and epochs stay in step.
    ASSERT_EQ(one.size(), four.size()) << "step " << step;
    ASSERT_EQ(one.epoch(), four.epoch()) << "step " << step;
  }
  // The static index rebuilt on every shard-crossing of its threshold.
  for (const auto& info : four.Indexes()) {
    if (!info.supports_updates) {
      EXPECT_GT(info.rebuilds, 0u) << info.name;
    }
  }
}

// ------------------------------------------------- background rebuilds ----

TEST(ShardedCollectionTest, BackgroundRebuildSwapsInOffTheWriteLock) {
  auto made = Collection::FromSpec(
      "collection,shards=2,rebuild=background: LinearScan; "
      "PM-LSH,rebuild_threshold=4",
      EasyDataPtr(400, 16, 99));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& c = *made.value();

  const std::vector<float> outlier = OutlierVector(16);
  auto up = c.Upsert(outlier.data(), outlier.size());
  ASSERT_TRUE(up.ok());
  const uint32_t id = up.value();

  // The updatable LinearScan serves the outlier immediately; the static
  // PM-LSH is stale until its background rebuild lands.
  QueryRequest request;
  request.k = 1;
  auto fresh = c.Search(outlier.data(), request, "LinearScan");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().neighbors[0].id, id);

  // Stream mutations until every shard's PM-LSH crossed its threshold and
  // the swap landed. Each nudge re-arms the scheduler if a rebuild gave up
  // to writer churn, so this converges deterministically once quiescent.
  Rng rng(11);
  std::vector<float> v(16);
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 4; ++i) {
      for (auto& x : v) x = static_cast<float>(50.0 + rng.Gaussian());
      ASSERT_TRUE(c.Upsert(v.data(), v.size()).ok());
    }
    c.WaitForRebuilds();
    const auto infos = c.Indexes();
    ASSERT_EQ(infos[1].name, "PM-LSH");
    EXPECT_FALSE(infos[1].rebuild_inflight);  // WaitForRebuilds quiesced
    if (infos[1].rebuilds > 0 && infos[1].staleness < 4) break;
  }
  const auto infos = c.Indexes();
  EXPECT_GT(infos[1].rebuilds, 0u);
  EXPECT_LT(infos[1].staleness, 4u);
  EXPECT_TRUE(infos[1].built);
  EXPECT_TRUE(infos[1].build_error.empty());

  // The swapped-in index serves rows inserted after the original build —
  // including the outlier — and keeps honoring tombstones: delete a row
  // and it disappears from PM-LSH without any further rebuild.
  auto rebuilt = c.Search(outlier.data(), request, "PM-LSH");
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_FALSE(rebuilt.value().neighbors.empty());
  EXPECT_EQ(rebuilt.value().neighbors[0].id, id);

  ASSERT_TRUE(c.Delete(id).ok());
  request.k = 5;
  auto after = c.Search(outlier.data(), request, "PM-LSH");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(ContainsId(after.value().neighbors, id));
}


// ------------------------------------------------- one search path ------

// Deleting every row leaves each shard empty but its slots built: the
// answer is OK with no neighbours at every shard count, through Search
// and SearchBatch, by default route and by name. Only a collection with
// no built slot anywhere answers InvalidArgument.
TEST(ShardedCollectionTest, EmptiedCollectionAnswersOkAtEveryShardCount) {
  const size_t dim = 8;
  const FloatMatrix queries = EasyData(5, dim, 7071);
  QueryRequest request;
  request.k = 5;
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const std::string spec = "collection,shards=" + std::to_string(shards) +
                             ": DB-LSH,t=16; LinearScan";
    auto made = Collection::FromSpec(spec, EasyDataPtr(120, dim, 7070));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    Collection& c = *made.value();
    for (uint32_t id = 0; id < 120; ++id) ASSERT_TRUE(c.Delete(id).ok()) << id;
    ASSERT_EQ(c.size(), 0u);
    for (const char* index : {"", "DB-LSH", "LinearScan"}) {
      const std::string context =
          "shards=" + std::to_string(shards) + " index=\"" + index + "\"";
      auto one = c.Search(queries.row(0), request, index);
      ASSERT_TRUE(one.ok()) << context << ": " << one.status().ToString();
      EXPECT_TRUE(one.value().neighbors.empty()) << context;
      auto batch = c.SearchBatch(queries, request, index, 2);
      ASSERT_TRUE(batch.ok()) << context << ": " << batch.status().ToString();
      ASSERT_EQ(batch.value().size(), queries.rows()) << context;
      for (const QueryResponse& response : batch.value()) {
        EXPECT_TRUE(response.neighbors.empty()) << context;
      }
    }

    CollectionOptions options;
    options.shards = shards;
    Collection fresh(dim, options);
    ASSERT_TRUE(fresh.AddIndex("DB-LSH,t=16").ok());
    ASSERT_TRUE(fresh.AddIndex("LinearScan").ok());
    EXPECT_EQ(fresh.Search(queries.row(0), request).status().code(),
              StatusCode::kInvalidArgument)
        << shards;
    EXPECT_EQ(fresh.SearchBatch(queries, request).status().code(),
              StatusCode::kInvalidArgument)
        << shards;
  }
}

// A one-shard SearchBatch runs on the collection's injected executor (and
// the caller), never on the process-wide default pool: the probe filter
// records every thread a candidate is verified on.
TEST(ShardedCollectionTest, OneShardSearchBatchRunsOnInjectedExecutor) {
  exec::TaskExecutor pool(2);
  // The pool's worker ids: two tasks that each wait for the other can only
  // finish on two distinct workers.
  std::mutex mutex;
  std::set<std::thread::id> pool_ids;
  std::atomic<int> arrived{0};
  std::vector<std::future<void>> parked;
  for (int i = 0; i < 2; ++i) {
    parked.push_back(pool.Submit([&] {
      {
        std::lock_guard lock(mutex);
        pool_ids.insert(std::this_thread::get_id());
      }
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
    }));
  }
  for (auto& done : parked) done.get();
  ASSERT_EQ(pool_ids.size(), 2u);

  CollectionOptions options;
  options.executor = &pool;
  Collection c(16, options);
  ASSERT_TRUE(c.AddIndex("DB-LSH,t=16").ok());
  const FloatMatrix data = EasyData(2000, 16, 7272);
  for (size_t row = 0; row < data.rows(); ++row) {
    ASSERT_TRUE(c.Upsert(data.row(row), data.cols()).ok());
  }

  // Each verifying thread waits (bounded) until a second thread has
  // joined, so the fan-out's helpers are sure to show up in the probe.
  std::set<std::thread::id> seen;
  QueryRequest request;
  request.k = 5;
  request.filter = QueryFilter::Of([&](uint32_t) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        std::lock_guard lock(mutex);
        seen.insert(std::this_thread::get_id());
        if (seen.size() >= 2) return true;
      }
      if (std::chrono::steady_clock::now() > deadline) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const FloatMatrix queries = EasyData(64, 16, 7273);
  auto got = c.SearchBatch(queries, request, "", 3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), queries.rows());

  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_GE(seen.size(), 2u);
  for (const std::thread::id id : seen) {
    EXPECT_TRUE(id == caller || pool_ids.count(id) == 1)
        << "a verification ran outside the caller and the injected pool";
  }
}

// Folds responses into one digest: per neighbour its id and the bits of
// its distance, then the query's four work counters.
uint64_t DigestOf(const std::vector<QueryResponse>& responses) {
  uint64_t digest = durability::Fnv1a64(nullptr, 0);
  auto fold = [&digest](const void* bytes, size_t len) {
    digest =
        durability::Fnv1a64(static_cast<const uint8_t*>(bytes), len, digest);
  };
  for (const QueryResponse& response : responses) {
    for (const Neighbor& nb : response.neighbors) {
      fold(&nb.id, sizeof(nb.id));
      fold(&nb.dist, sizeof(nb.dist));
    }
    const uint64_t counters[] = {response.stats.candidates_verified,
                                 response.stats.points_accessed,
                                 response.stats.rounds,
                                 response.stats.window_queries};
    fold(counters, sizeof(counters));
  }
  return digest;
}

// Differential pin of the one-shard search path. The digests were taken
// when a one-shard collection still had its own Search/SearchBatch code
// and DB-LSH its own QueryBatch; every path must keep reproducing them
// (answers and work counters) through the shard fan-out.
TEST(CollectionSearchPathTest, OneShardDigestsArePinned) {
  const size_t dim = 24;
  const FloatMatrix data = EasyData(4000, dim, 5150);
  const FloatMatrix queries = EasyData(200, dim, 5151);
  std::vector<uint32_t> denied;
  for (uint32_t id = 0; id < data.rows(); id += 3) denied.push_back(id);

  struct Case {
    const char* name;
    const char* spec;
    QueryRequest request;
  };
  std::vector<Case> cases(4);
  cases[0] = {"fp32", "collection: DB-LSH", {}};
  cases[1] = {"sq8", "collection,storage=sq8: DB-LSH", {}};
  cases[2] = {"deny", "collection: DB-LSH", {}};
  cases[2].request.filter = QueryFilter::Deny(denied);
  cases[3] = {"overrides", "collection: DB-LSH", {}};
  cases[3].request.candidate_budget = 6;
  cases[3].request.r0 = 0.5;
  // Per SIMD tier (the tiers sum distances in different orders), per
  // case: Search, SearchBatch at 4 threads, DB-LSH's QueryBatch.
  const uint64_t pinned_avx2[4][3] = {
      {0xdc095828b6293a01ull, 0xdc095828b6293a01ull, 0xdc095828b6293a01ull},
      {0xf7f1157b7939159dull, 0xf7f1157b7939159dull, 0xd1dfe486fb24f606ull},
      {0x0e049616b3787c4aull, 0x0e049616b3787c4aull, 0x0e049616b3787c4aull},
      {0x758e52bb89739981ull, 0x758e52bb89739981ull, 0x758e52bb89739981ull},
  };
  const uint64_t pinned_scalar[4][3] = {
      {0xee1f8ebef5226599ull, 0xee1f8ebef5226599ull, 0xee1f8ebef5226599ull},
      {0x347cfaa8dc71b141ull, 0x347cfaa8dc71b141ull, 0xeeb2fbe940ec7d27ull},
      {0x340bb0cd7bde7664ull, 0x340bb0cd7bde7664ull, 0x340bb0cd7bde7664ull},
      {0xa036f65877c12addull, 0xa036f65877c12addull, 0xa036f65877c12addull},
  };
  const auto& pinned = simd::Active().kind == simd::KernelKind::kScalar
                           ? pinned_scalar
                           : pinned_avx2;

  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& test = cases[i];
    auto made =
        Collection::FromSpec(test.spec, std::make_unique<FloatMatrix>(data));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const Collection& c = *made.value();
    std::vector<QueryResponse> searched;
    for (size_t q = 0; q < queries.rows(); ++q) {
      auto got = c.Search(queries.row(q), test.request);
      ASSERT_TRUE(got.ok()) << test.name << ": " << got.status().ToString();
      searched.push_back(std::move(got).value());
    }
    auto batched = c.SearchBatch(queries, test.request, "", 4);
    ASSERT_TRUE(batched.ok()) << test.name;
    const std::vector<QueryResponse> indexed =
        c.GetIndex("DB-LSH")->QueryBatch(queries, test.request, 4);
    const uint64_t got[3] = {DigestOf(searched), DigestOf(batched.value()),
                             DigestOf(indexed)};
    for (size_t path = 0; path < 3; ++path) {
      EXPECT_EQ(got[path], pinned[i][path])
          << test.name << " path " << path << ": 0x" << std::hex << got[path];
    }
  }
}

}  // namespace
}  // namespace dblsh
