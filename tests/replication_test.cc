// End-to-end tests for WAL-shipping replication (src/replication/ over
// src/serve/): snapshot bootstrap, log tailing, randomized-stream
// convergence against a digest oracle, follower kill/restart catch-up,
// stale-follower re-seed after a primary checkpoint, a replicated
// compaction trim, fault injection at both replication write paths, and
// the read-only write gate. Below the fixture: a three-way differential
// test of the mutation apply path (primary vs WAL replay vs replicated
// apply), the divergence checks of Collection::ApplyReplicatedRecord, and
// the stream decoder's rejection of unknown WAL ops.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "dataset/float_matrix.h"
#include "durability/fail_point.h"
#include "durability/format.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "replication/replica.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/status.h"

namespace dblsh {
namespace {

namespace fs = std::filesystem;
using durability::FailPoints;
using replication::Replica;
using replication::ReplicaOptions;
using serve::Client;
using serve::Server;
using serve::ServerOptions;

// Fresh per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("dblsh_repl_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Order-independent digest of the live (id, vector-bytes) set — the
// logical state the primary and the follower must agree on (same oracle
// as tests/durability_test.cc; computed from Snapshot(), so quantized
// storage compares its deterministic decode).
uint64_t DigestOf(const Collection& collection) {
  const FloatMatrix snap = collection.Snapshot();
  uint64_t digest = 0;
  for (size_t g = 0; g < snap.rows(); ++g) {
    if (snap.IsDeleted(g)) continue;
    const auto id = static_cast<uint32_t>(g);
    uint64_t h = durability::Fnv1a64(
        reinterpret_cast<const uint8_t*>(&id), sizeof(id));
    h = durability::Fnv1a64(reinterpret_cast<const uint8_t*>(snap.row(g)),
                            snap.cols() * sizeof(float), h);
    digest ^= h;  // xor: insertion order must not matter
  }
  return digest;
}

std::vector<float> MakeVec(size_t dim, Rng* rng) {
  std::vector<float> v(dim);
  for (float& x : v) {
    x = static_cast<float>(rng->NextU64() % 2000) / 10.0f;
  }
  return v;
}

constexpr size_t kDim = 6;

// Randomized upsert (fresh + in-place) / delete stream on `collection`.
void Mutate(Collection* collection, size_t ops, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> live;
  {
    const FloatMatrix snap = collection->Snapshot();
    for (size_t g = 0; g < snap.rows(); ++g) {
      if (!snap.IsDeleted(g)) live.push_back(static_cast<uint32_t>(g));
    }
  }
  for (size_t i = 0; i < ops; ++i) {
    const auto v = MakeVec(kDim, &rng);
    const uint64_t dice = rng.NextU64() % 10;
    if (dice < 5 || live.empty()) {
      auto id = collection->Upsert(v.data(), v.size());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live.push_back(id.value());
    } else if (dice < 8) {
      const uint32_t id = live[rng.NextU64() % live.size()];
      auto replaced = collection->Upsert(id, v.data(), v.size());
      ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
    } else {
      const size_t at = rng.NextU64() % live.size();
      ASSERT_TRUE(collection->Delete(live[at]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(at));
    }
  }
}

// Seed rows shared by every fixture: `rows` random kDim vectors.
std::unique_ptr<FloatMatrix> SeedRows(size_t rows) {
  Rng rng(7);
  auto seed = std::make_unique<FloatMatrix>(rows, kDim);
  for (size_t i = 0; i < rows; ++i) {
    const auto v = MakeVec(kDim, &rng);
    std::copy(v.begin(), v.end(), seed->mutable_row(i));
  }
  return seed;
}

// Primary + serving front-end + follower, wired over loopback. LinearScan
// is the index on both sides on purpose: its answers are a pure function
// of the live rows, so read-equivalence checks are immune to
// rebuild-timing differences between the two collections.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().Reset(); }
  void TearDown() override {
    replica_.reset();
    server_.reset();
    primary_.reset();
    FailPoints::Instance().Reset();
  }

  static std::string Spec(const std::string& dir, const std::string& extra,
                          const std::string& indexes) {
    return "collection,shards=2,durability=" + dir + extra + ": " + indexes;
  }

  void StartPrimary(const std::string& extra = "",
                    const std::string& indexes = "LinearScan",
                    size_t seed_rows = 24) {
    primary_dir_ = std::make_unique<TempDir>("primary");
    auto made = Collection::FromSpec(
        Spec(primary_dir_->path(), extra, indexes), SeedRows(seed_rows));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    primary_ = std::move(made).value();
    auto started = Server::Start({{"main", primary_.get()}}, {});
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  ReplicaOptions MakeReplicaOptions(const std::string& extra = "",
                                    const std::string& indexes =
                                        "LinearScan") {
    if (replica_dir_ == nullptr) {
      replica_dir_ = std::make_unique<TempDir>("replica");
    }
    ReplicaOptions options;
    options.primary_host = "127.0.0.1";
    options.primary_port = server_->port();
    options.collection = "main";
    options.dir = replica_dir_->path();
    options.spec = Spec(replica_dir_->path(), extra, indexes);
    options.reconnect_backoff_ms = 50;
    return options;
  }

  void StartReplica(const std::string& extra = "",
                    const std::string& indexes = "LinearScan") {
    auto started = Replica::Start(MakeReplicaOptions(extra, indexes));
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    replica_ = std::move(started).value();
  }

  // Polls until the follower's digest equals the (quiescent) primary's.
  bool AwaitConverged(int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    const uint64_t want = DigestOf(*primary_);
    while (std::chrono::steady_clock::now() < deadline) {
      if (DigestOf(*replica_->collection()) == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  // Polls until every follower shard has applied the (quiescent)
  // primary's last record — stricter than AwaitConverged, which cannot see
  // records that leave the live set alone (trims, retrains).
  bool AwaitCaughtUp(int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    const std::vector<uint64_t> want = primary_->ShardAppliedLsns();
    while (std::chrono::steady_clock::now() < deadline) {
      if (replica_->collection()->ShardAppliedLsns() == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  void MutatePrimary(size_t ops, uint64_t seed) {
    Mutate(primary_.get(), ops, seed);
  }

  // Fixed queries must answer identically on both sides.
  void ExpectEqualReads(size_t queries, uint64_t seed, size_t k) {
    Rng rng(seed);
    for (size_t i = 0; i < queries; ++i) {
      const auto q = MakeVec(kDim, &rng);
      QueryRequest request;
      request.k = k;
      auto p = primary_->Search(q.data(), request);
      auto r = replica_->collection()->Search(q.data(), request);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(p.value().neighbors.size(), r.value().neighbors.size());
      for (size_t n = 0; n < p.value().neighbors.size(); ++n) {
        EXPECT_EQ(p.value().neighbors[n].id, r.value().neighbors[n].id);
        EXPECT_EQ(p.value().neighbors[n].dist, r.value().neighbors[n].dist);
      }
    }
  }

  std::unique_ptr<TempDir> primary_dir_;
  std::unique_ptr<TempDir> replica_dir_;
  std::unique_ptr<Collection> primary_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Replica> replica_;
};

TEST_F(ReplicationTest, BootstrapReplicatesSeedStateAndServesEqualReads) {
  StartPrimary();
  StartReplica();
  ASSERT_TRUE(AwaitConverged());
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  EXPECT_EQ(replica_->FirstError(), "");
  ExpectEqualReads(8, 99, 5);
}

TEST_F(ReplicationTest, RandomizedStreamConvergesToPrimaryDigest) {
  StartPrimary();
  StartReplica();
  MutatePrimary(300, 1234);
  ASSERT_TRUE(AwaitConverged());
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  EXPECT_EQ(replica_->FirstError(), "");

  const serve::ReplicationReport report = replica_->Report();
  ASSERT_EQ(report.shards.size(), 2u);
  const std::vector<uint64_t> primary_lsns = primary_->ShardAppliedLsns();
  for (size_t s = 0; s < report.shards.size(); ++s) {
    EXPECT_EQ(report.shards[s].applied_lsn, primary_lsns[s]);
    EXPECT_GE(report.shards[s].primary_lsn, report.shards[s].applied_lsn);
  }
  EXPECT_GT(report.records_applied, 0u);
}

TEST_F(ReplicationTest, FollowerRejectsWritesWithReadOnlyAndPrimaryAddress) {
  StartPrimary();
  StartReplica();
  MutatePrimary(10, 5);
  ASSERT_TRUE(AwaitConverged());
  const std::string primary_address =
      "127.0.0.1:" + std::to_string(server_->port());

  // Direct writes hit the collection gate.
  Rng rng(6);
  const auto v = MakeVec(kDim, &rng);
  auto direct = replica_->collection()->Upsert(v.data(), v.size());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kReadOnly);
  EXPECT_NE(direct.status().message().find(primary_address),
            std::string::npos);

  // And the same refusal travels the wire as kReadOnly through a serving
  // front-end over the replica, with the replica's report wired in.
  Replica* replica = replica_.get();
  ServerOptions options;
  options.replication_report = [replica] { return replica->Report(); };
  auto follower_server =
      Server::Start({{"main", replica_->collection()}}, options);
  ASSERT_TRUE(follower_server.ok()) << follower_server.status().ToString();
  auto client =
      Client::Connect("127.0.0.1", follower_server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto wire = client.value()->Upsert("main", v.data(), v.size());
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), StatusCode::kReadOnly);
  EXPECT_NE(wire.status().message().find(primary_address),
            std::string::npos);
  EXPECT_EQ(client.value()->Delete("main", 0).code(), StatusCode::kReadOnly);

  auto status = client.value()->ReplicaStatus("main");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status.value().role, 1);
  EXPECT_EQ(status.value().primary, primary_address);
  ASSERT_EQ(status.value().shards.size(), 2u);
  for (const auto& shard : status.value().shards) {
    EXPECT_GE(shard.primary_lsn, shard.applied_lsn);
  }

  // The primary's own front-end answers the same op as role 0.
  auto primary_client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(primary_client.ok());
  auto primary_status = primary_client.value()->ReplicaStatus("main");
  ASSERT_TRUE(primary_status.ok()) << primary_status.status().ToString();
  EXPECT_EQ(primary_status.value().role, 0);
  EXPECT_TRUE(primary_status.value().primary.empty());
  EXPECT_GT(primary_status.value().records_shipped, 0u);
}

TEST_F(ReplicationTest, KilledFollowerRecoversLocallyAndCatchesUp) {
  StartPrimary();
  StartReplica();
  MutatePrimary(80, 42);
  ASSERT_TRUE(AwaitConverged());

  // Drop the replica with no checkpoint of its own: the durable directory
  // holds exactly what tailing re-logged, like a kill -9 would leave.
  replica_.reset();

  // The primary moves on while the follower is down.
  MutatePrimary(120, 43);

  // Restart over the same directory: local recovery + re-subscribe from
  // the recovered per-shard LSNs.
  StartReplica();
  ASSERT_TRUE(AwaitConverged());
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  EXPECT_EQ(replica_->FirstError(), "");
}

TEST_F(ReplicationTest, StaleFollowerReseedsAfterPrimaryCheckpoint) {
  StartPrimary();
  StartReplica();
  MutatePrimary(40, 7);
  ASSERT_TRUE(AwaitConverged());
  replica_.reset();

  // While the follower is down the primary both advances AND checkpoints,
  // so tailing from the follower's old position may no longer be possible
  // — Start() must detect the snapshot-mode answer and re-seed.
  MutatePrimary(60, 8);
  ASSERT_TRUE(primary_->Checkpoint().ok());

  StartReplica();
  ASSERT_TRUE(AwaitConverged());
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
}

TEST_F(ReplicationTest, InjectedSnapshotChunkFailureFailsBootstrapCleanly) {
  StartPrimary();
  // Kill the primary's first chunk send: the stream ends mid-snapshot and
  // bootstrap reports the disconnect instead of opening a torn replica.
  FailPoints::Instance().Arm(durability::kFailReplicationChunk, 1, 0);
  auto failed = Replica::Start(MakeReplicaOptions());
  EXPECT_FALSE(failed.ok());
  EXPECT_GE(FailPoints::Instance().HitCount(durability::kFailReplicationChunk),
            1u);

  // Disarmed, the same directory bootstraps fine — the torn attempt left
  // nothing a re-seed cannot overwrite.
  FailPoints::Instance().Reset();
  StartReplica();
  ASSERT_TRUE(AwaitConverged());
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
}

TEST_F(ReplicationTest, InjectedApplyFailureRetriesViaRedelivery) {
  StartPrimary();
  StartReplica();
  ASSERT_TRUE(AwaitConverged());

  // The follower's 2nd streamed-record apply dies mid-stream. The record
  // was neither applied nor locally logged, so the tail drops the
  // connection and resumes from its applied LSN; the primary redelivers.
  FailPoints::Instance().Arm(durability::kFailReplicationApply, 2, 0);
  MutatePrimary(50, 77);
  ASSERT_TRUE(AwaitConverged());
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  EXPECT_EQ(replica_->FirstError(), "");
  EXPECT_GE(FailPoints::Instance().HitCount(durability::kFailReplicationApply),
            2u);
}

TEST_F(ReplicationTest, QuantizedStorageReplicatesRetrainsExactly) {
  // sq8 with a small rebuild threshold: the mutation stream keeps
  // triggering full rebuilds, each re-training the quantizer from the
  // live rows. The retrain travels the log as its own record, so the
  // follower's decoded bytes match the primary's exactly.
  StartPrimary(",storage=sq8,rerank=4", "LinearScan,rebuild_threshold=8");
  StartReplica(",storage=sq8,rerank=4", "LinearScan,rebuild_threshold=8");
  MutatePrimary(200, 2024);
  const bool converged = AwaitConverged();
  const auto p_lsns = primary_->ShardAppliedLsns();
  const auto r_lsns = replica_->collection()->ShardAppliedLsns();
  ASSERT_TRUE(converged)
      << "error=" << replica_->FirstError() << " primary_lsns=" << p_lsns[0]
      << "," << p_lsns[1] << " replica_lsns=" << r_lsns[0] << ","
      << r_lsns[1];
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  EXPECT_EQ(replica_->FirstError(), "");
  ExpectEqualReads(5, 31, 4);
}

TEST_F(ReplicationTest, PqStorageReplicatesRetrainsExactly) {
  // The pq analog: the follower bootstraps from a pq snapshot (adopting
  // codes + codebooks verbatim), then applies the streamed tail including
  // kRetrain records. Deterministic k-means makes the follower's
  // re-derived codebooks byte-equal to the primary's, so the decoded
  // digests must match exactly.
  StartPrimary(",storage=pq,m=3,rerank=4", "LinearScan,rebuild_threshold=8");
  StartReplica(",storage=pq,m=3,rerank=4", "LinearScan,rebuild_threshold=8");
  MutatePrimary(200, 2025);
  const bool converged = AwaitConverged();
  const auto p_lsns = primary_->ShardAppliedLsns();
  const auto r_lsns = replica_->collection()->ShardAppliedLsns();
  ASSERT_TRUE(converged)
      << "error=" << replica_->FirstError() << " primary_lsns=" << p_lsns[0]
      << "," << p_lsns[1] << " replica_lsns=" << r_lsns[0] << ","
      << r_lsns[1];
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  EXPECT_EQ(replica_->FirstError(), "");
  ExpectEqualReads(5, 33, 4);
}

TEST_F(ReplicationTest, ServerStatsCountSubscriptionsAndShippedRecords) {
  StartPrimary();
  StartReplica();
  MutatePrimary(30, 3);
  ASSERT_TRUE(AwaitConverged());
  const serve::ServerStats stats = server_->Stats();
  // Bootstrap subscribes once per shard in snapshot mode, then once per
  // shard for the tails.
  EXPECT_GE(stats.replication_subscriptions, 4u);
  EXPECT_GE(stats.replication_records_shipped, 30u);
}

TEST_F(ReplicationTest, CompactionTrimReplicatesAndLaterUpsertsAgree) {
  // The primary compacts once a shard is 30% tombstones. Deleting the
  // upper half of the ids in ascending order leaves each shard's tail
  // live until its last row goes, so the trim that finally lands drops
  // every one of them; the follower must apply the same trim or the next
  // fresh upsert (which lands on a trimmed id) diverges.
  StartPrimary(",compact_threshold=0.3");
  StartReplica();
  ASSERT_TRUE(AwaitConverged());
  const size_t seed_rows = primary_->Snapshot().rows();
  for (uint32_t id = static_cast<uint32_t>(seed_rows / 2); id < seed_rows;
       ++id) {
    ASSERT_TRUE(primary_->Delete(id).ok()) << id;
  }
  primary_->WaitForRebuilds();
  EXPECT_GE(primary_->Durability().compactions, 1u);
  const size_t trimmed_rows = primary_->Snapshot().rows();
  EXPECT_LT(trimmed_rows, seed_rows);
  ASSERT_TRUE(AwaitCaughtUp()) << replica_->FirstError();
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  EXPECT_EQ(replica_->collection()->Snapshot().rows(), trimmed_rows);

  Rng rng(5);
  const auto v = MakeVec(kDim, &rng);
  auto id = primary_->Upsert(v.data(), v.size());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Past the trimmed frontier: an id only the trim could hand out again.
  EXPECT_GE(id.value(), trimmed_rows);
  EXPECT_LT(id.value(), seed_rows);
  ASSERT_TRUE(AwaitCaughtUp()) << replica_->FirstError();
  EXPECT_EQ(DigestOf(*primary_), DigestOf(*replica_->collection()));
  const FloatMatrix follower = replica_->collection()->Snapshot();
  EXPECT_EQ(follower.rows(), primary_->Snapshot().rows());
  ASSERT_LT(id.value(), follower.rows());
  EXPECT_FALSE(follower.IsDeleted(id.value()));
  EXPECT_EQ(replica_->FirstError(), "");
}

// ---- One apply path: primary, WAL replay and replication agree ----

struct ApplyPathCase {
  const char* name;
  const char* extra;    // collection options beyond shards/durability
  const char* indexes;
  bool retrains;        // the stream must log quantizer retrains
};

// Names the case in test listings (instead of its raw bytes).
void PrintTo(const ApplyPathCase& param, std::ostream* os) {
  *os << param.name;
}

class ReplicationApplyPathTest
    : public ::testing::TestWithParam<ApplyPathCase> {};

// One seeded stream drives a durable 2-shard primary: fresh upserts,
// replace-upserts and deletes, then a deleted tail so compactions trim.
// The same history then reaches the state three ways — (a) the primary
// itself, (b) Collection::Open of its directory (WAL replay), (c) the seed
// checkpoint reopened and fed every logged record through
// ApplyReplicatedRecord — and all three must agree on the live-set
// digest, the physical row count and the per-shard applied LSNs.
TEST_P(ReplicationApplyPathTest, PrimaryReplayAndReplicationAgree) {
  const ApplyPathCase& param = GetParam();
  TempDir primary_dir(std::string("diff_primary_") + param.name);
  TempDir copy_dir(std::string("diff_copy_") + param.name);
  auto spec = [&](const std::string& dir) {
    return "collection,shards=2,compact_threshold=0.3,durability=" + dir +
           param.extra + ": " + param.indexes;
  };
  auto made = Collection::FromSpec(spec(primary_dir.path()), SeedRows(40));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  std::unique_ptr<Collection> primary = std::move(made).value();
  // The seed checkpoint is path (c)'s starting point; the pin keeps every
  // later WAL segment on disk through the compactions' checkpoints.
  fs::copy(primary_dir.path(), copy_dir.path(),
           fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  const uint64_t pin = primary->AcquireWalPin(0);
  ASSERT_NE(pin, 0u);

  Mutate(primary.get(), 120, 4242);
  std::vector<uint32_t> live;
  {
    const FloatMatrix snap = primary->Snapshot();
    for (size_t g = 0; g < snap.rows(); ++g) {
      if (!snap.IsDeleted(g)) live.push_back(static_cast<uint32_t>(g));
    }
  }
  for (size_t i = live.size() / 2; i < live.size(); ++i) {
    ASSERT_TRUE(primary->Delete(live[i]).ok()) << live[i];
  }
  primary->WaitForRebuilds();
  const uint64_t digest = DigestOf(*primary);
  const size_t rows = primary->Snapshot().rows();
  const std::vector<uint64_t> lsns = primary->ShardAppliedLsns();

  // (c) Replicated apply over the seed checkpoint.
  auto copy = Collection::Open(spec(copy_dir.path()));
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  size_t trims = 0;
  size_t retrains = 0;
  for (size_t s = 0; s < 2; ++s) {
    for (const uint64_t seq :
         durability::ListWalSegments(primary_dir.path(), s)) {
      auto replay = durability::ReadWal(
          durability::WalPath(primary_dir.path(), s, seq), kDim);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      ASSERT_TRUE(replay.value().tail.ok()) << replay.value().tail.ToString();
      for (const durability::WalRecord& rec : replay.value().records) {
        const Status applied = copy.value()->ApplyReplicatedRecord(s, rec);
        ASSERT_TRUE(applied.ok()) << "lsn " << rec.lsn << ": "
                                  << applied.ToString();
        if (rec.op == durability::WalOp::kTrim) ++trims;
        if (rec.op == durability::WalOp::kRetrain) ++retrains;
      }
    }
  }
  EXPECT_GE(trims, 1u);
  EXPECT_EQ(retrains > 0, param.retrains);
  EXPECT_EQ(DigestOf(*copy.value()), digest);
  EXPECT_EQ(copy.value()->Snapshot().rows(), rows);
  EXPECT_EQ(copy.value()->ShardAppliedLsns(), lsns);

  // (b) WAL replay of the primary's own directory.
  primary->ReleaseWalPin(pin);
  primary.reset();
  auto reopened = Collection::Open(spec(primary_dir.path()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(DigestOf(*reopened.value()), digest);
  EXPECT_EQ(reopened.value()->Snapshot().rows(), rows);
  EXPECT_EQ(reopened.value()->ShardAppliedLsns(), lsns);
}

INSTANTIATE_TEST_SUITE_P(
    ThreeWay, ReplicationApplyPathTest,
    ::testing::Values(
        ApplyPathCase{"LinearScan", "", "LinearScan", false},
        ApplyPathCase{"DbLsh", "", "DB-LSH", false},
        ApplyPathCase{"Sq8Retrain", ",storage=sq8",
                      "LinearScan,rebuild_threshold=8", true}),
    [](const ::testing::TestParamInfo<ApplyPathCase>& info) {
      return std::string(info.param.name);
    });

// Every divergence branch of the replicated apply answers Corruption and
// commits nothing: the shard's applied LSN stays where it was, so a
// follower never acknowledges a record it could not reproduce.
TEST(ReplicationDivergenceTest, ApplyReturnsCorruptionAndLeavesAppliedLsn) {
  TempDir dir("divergence");
  auto made = Collection::FromSpec(
      "collection,shards=2,durability=" + dir.path() + ": LinearScan",
      SeedRows(24));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Collection& collection = *made.value();
  // Shard 0 owns the even ids 0..22 at local rows 0..11.
  auto record = [](durability::WalOp op, uint32_t id, size_t floats) {
    durability::WalRecord rec;
    rec.op = op;
    rec.id = id;
    rec.vec.assign(floats, 1.0f);
    return rec;
  };
  const struct {
    const char* what;
    durability::WalRecord rec;
  } rows[] = {
      {"id owned by the other shard",
       record(durability::WalOp::kUpsert, 1, kDim)},
      {"trim count does not match", record(durability::WalOp::kTrim, 3, 0)},
      {"payload of the wrong dimension",
       record(durability::WalOp::kUpsert, 0, kDim - 1)},
      {"upsert past the frontier lands on another row",
       record(durability::WalOp::kUpsert, 2 * 15, kDim)},
      {"unknown op", record(static_cast<durability::WalOp>(9), 0, 0)},
  };
  for (const auto& row : rows) {
    const std::vector<uint64_t> before = collection.ShardAppliedLsns();
    durability::WalRecord rec = row.rec;
    rec.lsn = before[0] + 1;
    const Status applied = collection.ApplyReplicatedRecord(0, rec);
    EXPECT_EQ(applied.code(), StatusCode::kCorruption)
        << row.what << ": " << applied.ToString();
    EXPECT_EQ(collection.ShardAppliedLsns(), before) << row.what;
  }
}

// A WalRecords frame carrying an op byte outside kUpsert..kRetrain is a
// protocol error at the decoder, before any collection sees it.
TEST(ReplicationStreamDecodeTest, UnknownWalOpIsProtocolError) {
  uint16_t port = 0;
  auto listening = serve::ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listening.ok()) << listening.status().ToString();
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto accepted = serve::AcceptWithTimeout(listening.value(), 1000);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();

  std::vector<uint8_t> body;
  serve::wire::PutU8(&body, static_cast<uint8_t>(serve::WireStatus::kOk));
  serve::wire::PutString(&body, "");
  serve::wire::PutU32(&body, 0);  // shard
  serve::wire::PutU64(&body, 1);  // watermark
  serve::wire::PutU32(&body, 1);  // record count
  serve::wire::PutU64(&body, 1);  // lsn
  serve::wire::PutU8(&body, 9);   // op: not a WalOp
  serve::wire::PutU32(&body, 0);  // id
  const auto frame = serve::EncodeFrame(serve::OpCode::kWalRecords, 1, body);
  ASSERT_TRUE(
      serve::WriteFull(accepted.value(), frame.data(), frame.size()).ok());

  serve::ReplicationEvent event;
  const Status s = client.value()->ReceiveReplicationEvent(kDim, &event);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("protocol error"), std::string::npos)
      << s.ToString();
  serve::CloseFd(accepted.value());
  serve::CloseFd(listening.value());
}

}  // namespace
}  // namespace dblsh
