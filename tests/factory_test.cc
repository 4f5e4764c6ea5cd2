#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "core/db_lsh.h"
#include "core/index_factory.h"
#include "dataset/synthetic.h"
#include "eval/runner.h"

namespace dblsh {
namespace {

/// Small shared workload: every registered method must build on it and
/// answer batched queries in well under a second.
class FactoryRoundTripTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new eval::Workload(eval::MakeWorkload(
        "factory",
        GenerateClustered({.n = 1500, .dim = 24, .clusters = 12, .seed = 3}),
        /*num_queries=*/4, /*k=*/5));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static eval::Workload* workload_;
};

eval::Workload* FactoryRoundTripTest::workload_ = nullptr;

TEST_F(FactoryRoundTripTest, AllTwelveMethodsAreRegistered) {
  const auto methods = IndexFactory::ListMethods();
  const std::set<std::string> names(methods.begin(), methods.end());
  const std::set<std::string> expected = {
      "DB-LSH",  "FB-LSH",     "E2LSH", "LCCS-LSH", "LSB-Forest",
      "LinearScan", "MultiProbe", "PM-LSH", "QALSH", "R2LSH",
      "SRS",     "VHP"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(methods.size(), names.size()) << "duplicate display names";
}

TEST_F(FactoryRoundTripTest, EveryMethodRoundTripsThroughBatchQueries) {
  for (const std::string& name : IndexFactory::ListMethods()) {
    SCOPED_TRACE(name);
    auto made = IndexFactory::Make(name);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const std::unique_ptr<AnnIndex> index = std::move(made).value();
    ASSERT_TRUE(index->Build(&workload_->data).ok());

    QueryRequest request;
    request.k = workload_->k;
    const auto responses = index->QueryBatch(workload_->queries, request);
    ASSERT_EQ(responses.size(), workload_->queries.rows());
    for (const QueryResponse& response : responses) {
      EXPECT_FALSE(response.neighbors.empty());
      EXPECT_LE(response.neighbors.size(), workload_->k);
      EXPECT_TRUE(std::is_sorted(response.neighbors.begin(),
                                 response.neighbors.end()));
      EXPECT_GT(response.stats.candidates_verified, 0u);
      EXPECT_GT(response.stats.points_accessed, 0u);
    }
  }
}

TEST_F(FactoryRoundTripTest, DescribeCoversEveryMethod) {
  for (const std::string& name : IndexFactory::ListMethods()) {
    auto description = IndexFactory::Describe(name);
    ASSERT_TRUE(description.ok()) << name;
    EXPECT_FALSE(description.value().empty()) << name;
  }
  EXPECT_FALSE(IndexFactory::Describe("NoSuchMethod").ok());
}

TEST_F(FactoryRoundTripTest, PaperLineupSpecsAllParse) {
  const auto specs = eval::PaperMethodSpecs(workload_->data.rows());
  ASSERT_FALSE(specs.empty());
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(IndexFactory::Make(spec).ok());
  }
  const auto methods = eval::MakePaperMethods(workload_->data.rows());
  EXPECT_EQ(methods.size(), specs.size());
}

TEST(IndexFactoryTest, NameMatchingIgnoresCaseAndSeparators) {
  for (const std::string& spelling :
       {std::string("db-lsh"), std::string("DB_LSH"), std::string("dblsh"),
        std::string("Db-Lsh")}) {
    auto made = IndexFactory::Make(spelling);
    ASSERT_TRUE(made.ok()) << spelling;
    EXPECT_EQ(made.value()->Name(), "DB-LSH") << spelling;
  }
}

TEST(IndexFactoryTest, SpecOverridesReachTheParams) {
  auto made = IndexFactory::Make("DB-LSH, c=2.0, l=3, t=17, seed=9");
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const auto* db = dynamic_cast<const DbLsh*>(made.value().get());
  ASSERT_NE(db, nullptr);
  EXPECT_DOUBLE_EQ(db->params().c, 2.0);
  EXPECT_EQ(db->params().l, 3u);
  EXPECT_EQ(db->params().t, 17u);
  EXPECT_EQ(db->params().seed, 9u);
}

TEST(IndexFactoryTest, FbLshSizeHintDrivesThePaperLRule) {
  auto small = IndexFactory::Make("FB-LSH,n=50000");
  auto large = IndexFactory::Make("FB-LSH,n=200000");
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_EQ(dynamic_cast<const DbLsh*>(small.value().get())->params().l, 10u);
  EXPECT_EQ(dynamic_cast<const DbLsh*>(large.value().get())->params().l, 12u);
  EXPECT_EQ(large.value()->Name(), "FB-LSH");
  EXPECT_FALSE(IndexFactory::Make("FB-LSH,bucketing=dynamic").ok());
}

TEST(IndexFactoryTest, MalformedSpecsReturnStatusErrors) {
  // Unknown method, with the registry listed in the message.
  auto unknown = IndexFactory::Make("HNSW,m=16");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("DB-LSH"), std::string::npos);

  for (const char* spec : {
           "",                    // no method name
           "c=1.5,DB-LSH",        // key=value before the name
           "DB-LSH,c",            // missing '='
           "DB-LSH,=1.5",         // empty key
           "DB-LSH,c=",           // empty value
           "DB-LSH,c=1.5,c=2.0",  // duplicate key
           "DB-LSH,c=abc",        // unparsable double
           "DB-LSH,c=nan",        // non-finite: NaN passes `c <= 1`
           "DB-LSH,w0=inf",       // non-finite
           "DB-LSH,l=-3",         // negative for unsigned
           "DB-LSH,zzz=1",        // unknown key
           "DB-LSH,bucketing=diagonal",  // unknown enum token
           "LinearScan,c=1.5",    // key on a parameterless method
           "PM-LSH,t_factor=x",   // unparsable double, baseline binder
       }) {
    SCOPED_TRACE(spec);
    auto made = IndexFactory::Make(spec);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(QueryApiTest, SearchFoldsStatsIntoTheResponse) {
  const FloatMatrix data =
      GenerateClustered({.n = 800, .dim = 16, .clusters = 8, .seed = 5});
  auto made = IndexFactory::Make("DB-LSH");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());

  QueryRequest request;
  request.k = 7;
  const QueryResponse response = made.value()->Search(data.row(0), request);
  ASSERT_FALSE(response.neighbors.empty());
  EXPECT_EQ(response.neighbors[0].id, 0u);  // the point itself
  EXPECT_GT(response.stats.candidates_verified, 0u);
  EXPECT_GT(response.stats.rounds, 0u);
  EXPECT_GT(response.stats.window_queries, 0u);
}

TEST(QueryApiTest, PerQueryCandidateBudgetOverrideIsHonored) {
  const FloatMatrix data =
      GenerateClustered({.n = 3000, .dim = 24, .clusters = 6, .seed = 11});
  auto made = IndexFactory::Make("DB-LSH,t=200");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());

  std::vector<float> query(data.row(42), data.row(42) + data.cols());
  query[0] += 10.f;  // off-manifold so the budget, not certification, stops

  QueryRequest tight;
  tight.k = 5;
  tight.candidate_budget = 2;
  QueryRequest wide;
  wide.k = 5;
  wide.candidate_budget = 200;
  const auto tight_response = made.value()->Search(query.data(), tight);
  const auto wide_response = made.value()->Search(query.data(), wide);
  // Budget 2tL+k: t=2 caps verification far below t=200's cap.
  EXPECT_LT(tight_response.stats.candidates_verified,
            wide_response.stats.candidates_verified);
  const auto* db = dynamic_cast<const DbLsh*>(made.value().get());
  EXPECT_LE(tight_response.stats.candidates_verified,
            2 * tight.candidate_budget * db->params().l + tight.k);
}

TEST(QueryApiTest, BatchMatchesSequentialSearch) {
  const FloatMatrix data =
      GenerateClustered({.n = 1200, .dim = 16, .clusters = 10, .seed = 21});
  FloatMatrix queries;
  for (size_t i = 0; i < 16; ++i) {
    queries.AppendRow(data.row(i * 70), data.cols());
  }
  for (const char* spec : {"DB-LSH", "LinearScan", "PM-LSH"}) {
    SCOPED_TRACE(spec);
    auto made = IndexFactory::Make(spec);
    ASSERT_TRUE(made.ok());
    ASSERT_TRUE(made.value()->Build(&data).ok());
    QueryRequest request;
    request.k = 9;
    const auto batched = made.value()->QueryBatch(queries, request, 4);
    ASSERT_EQ(batched.size(), queries.rows());
    for (size_t q = 0; q < queries.rows(); ++q) {
      const auto single = made.value()->Search(queries.row(q), request);
      EXPECT_EQ(batched[q].neighbors, single.neighbors) << "query " << q;
    }
  }
}

// The QueryRequest composition contract (core/query.h): override fields
// are independent, and zero/empty always means "the index's configured
// default". A request that spells the defaults out explicitly must
// round-trip to exactly the plain-Query() answer, field by field and all
// together.
TEST(QueryApiTest, RequestOverridesComposeAndZeroMeansDefault) {
  const FloatMatrix data =
      GenerateClustered({.n = 1500, .dim = 16, .clusters = 8, .seed = 33});
  auto made = IndexFactory::Make("DB-LSH,t=32");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());
  const auto* db = dynamic_cast<const DbLsh*>(made.value().get());
  ASSERT_NE(db, nullptr);

  std::vector<float> query(data.row(99), data.row(99) + data.cols());
  query[0] += 0.5f;
  QueryRequest dflt;
  dflt.k = 8;
  const auto baseline = made.value()->Search(query.data(), dflt);

  // Zero / empty round-trips to the default, field by field.
  QueryRequest zeros;
  zeros.k = 8;
  zeros.candidate_budget = 0;
  zeros.r0 = 0.0;
  zeros.filter = QueryFilter();  // empty
  EXPECT_EQ(made.value()->Search(query.data(), zeros).neighbors,
            baseline.neighbors);
  QueryRequest empty_lists;
  empty_lists.k = 8;
  empty_lists.filter = QueryFilter::Deny({});  // empty list == empty filter
  EXPECT_TRUE(empty_lists.filter.empty());
  EXPECT_EQ(made.value()->Search(query.data(), empty_lists).neighbors,
            baseline.neighbors);

  // Spelling a default out explicitly composes to the same answer: an
  // explicit budget equal to the configured t is indistinguishable from 0.
  QueryRequest explicit_budget;
  explicit_budget.k = 8;
  explicit_budget.candidate_budget = db->params().t;
  EXPECT_EQ(made.value()->Search(query.data(), explicit_budget).neighbors,
            baseline.neighbors);

  // Each field keeps acting when the others stay at their defaults, and
  // they compose in one request: a filter plus a budget override applies
  // both (no field masks another).
  const uint32_t top = baseline.neighbors[0].id;
  QueryRequest filtered;
  filtered.k = 8;
  filtered.filter = QueryFilter::Deny({top});
  const auto without_top = made.value()->Search(query.data(), filtered);
  EXPECT_FALSE(std::any_of(
      without_top.neighbors.begin(), without_top.neighbors.end(),
      [top](const Neighbor& n) { return n.id == top; }));

  QueryRequest combined;
  combined.k = 8;
  combined.candidate_budget = db->params().t;  // explicit default
  combined.r0 = 0.0;                           // default
  combined.filter = QueryFilter::Deny({top});  // active
  const auto both = made.value()->Search(query.data(), combined);
  EXPECT_EQ(both.neighbors, without_top.neighbors);
  EXPECT_FALSE(std::any_of(
      both.neighbors.begin(), both.neighbors.end(),
      [top](const Neighbor& n) { return n.id == top; }));
}

// Regression: a restrictive allow-list must not disable DB-LSH's
// termination tests. With fewer admitted ids than k the heap never fills
// and the push budget never trips, so the coverage exit has to count
// filter-rejected candidates too — without that the radius ladder runs
// its full 256-round cap of ever-growing window scans.
TEST(QueryApiTest, RestrictiveFilterStillTerminatesTheRadiusLadder) {
  const FloatMatrix data =
      GenerateClustered({.n = 2000, .dim = 16, .clusters = 8, .seed = 44});
  auto made = IndexFactory::Make("DB-LSH,t=16");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());

  QueryRequest request;
  request.k = 10;
  request.filter = QueryFilter::AllowOnly({7, 450, 1999});
  const auto response = made.value()->Search(data.row(0), request);
  // Exactly the admitted ids come back (3 < k), by ascending distance.
  ASSERT_EQ(response.neighbors.size(), 3u);
  for (const Neighbor& n : response.neighbors) {
    EXPECT_TRUE(n.id == 7 || n.id == 450 || n.id == 1999);
  }
  // The ladder stopped once every live point had been consumed (pushed or
  // filter-rejected), far short of the 256-round degenerate-input cap.
  EXPECT_LT(response.stats.rounds, 64u);
}

TEST(QueryApiTest, EmptyBatchIsFine) {
  const FloatMatrix data =
      GenerateClustered({.n = 500, .dim = 8, .clusters = 4, .seed = 1});
  auto made = IndexFactory::Make("LinearScan");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());
  EXPECT_TRUE(made.value()->QueryBatch(FloatMatrix(), QueryRequest()).empty());
}

}  // namespace
}  // namespace dblsh
