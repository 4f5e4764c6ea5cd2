// Tests for the network serving front-end (src/serve/): wire-format
// round-trips and hardening (every request decoder fed every truncated
// payload, oversize length prefixes, bad checksums, unknown ops,
// mid-frame disconnects), the search admission contract (shed, deadline,
// oversize batch, drain), and end-to-end server behavior over loopback
// TCP — including that a dying client leaves its peers unaffected and
// that shutdown drains queued requests. Admission cases hold the query
// executor's only worker with a latch task, so queued searches wait
// without any timing. The TSan and ASan CI jobs run the Serve* suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "dataset/float_matrix.h"
#include "dataset/synthetic.h"
#include "exec/task_executor.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/status.h"

namespace dblsh::serve {
namespace {

/// A plain top-k request (every other field at its default).
QueryRequest TopK(size_t k) {
  QueryRequest request;
  request.k = k;
  return request;
}

FloatMatrix SmallData(size_t n = 200, size_t dim = 8) {
  return GenerateClustered({.n = n, .dim = dim, .clusters = 5, .seed = 99});
}

std::unique_ptr<Collection> SmallCollection(size_t n = 200, size_t dim = 8) {
  auto made = Collection::FromSpec(
      "collection: LinearScan",
      std::make_unique<FloatMatrix>(SmallData(n, dim)));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

bool SameIds(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id && a[i].dist != b[i].dist) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Wire format.

TEST(ServeProtocolTest, FrameRoundTrips) {
  std::vector<uint8_t> payload;
  wire::PutU32(&payload, 42);
  wire::PutString(&payload, "main");
  wire::PutF64(&payload, 1.5);
  const auto frame = EncodeFrame(OpCode::kSearch, 7, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size());

  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header));
  EXPECT_EQ(header.op, OpCode::kSearch);
  EXPECT_EQ(header.request_id, 7u);
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_EQ(header.payload_checksum,
            Fnv1a32(payload.data(), payload.size()));

  wire::Reader r(frame.data() + kHeaderBytes, payload.size());
  uint32_t v;
  std::string s;
  double d;
  ASSERT_TRUE(r.GetU32(&v) && r.GetString(&s) && r.GetF64(&d));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "main");
  EXPECT_EQ(d, 1.5);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ServeProtocolTest, HeaderRejectsWrongMagicVersionReserved) {
  const auto frame = EncodeFrame(OpCode::kPing, 1, {});
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header));

  auto bad = frame;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(DecodeHeader(bad.data(), &header));
  bad = frame;
  bad[4] = kProtocolVersion + 1;  // version
  EXPECT_FALSE(DecodeHeader(bad.data(), &header));
  bad = frame;
  bad[6] = 1;  // reserved
  EXPECT_FALSE(DecodeHeader(bad.data(), &header));
}

TEST(ServeProtocolTest, ReaderIsBoundsChecked) {
  std::vector<uint8_t> payload;
  wire::PutU16(&payload, 100);  // string length prefix lying about its body
  wire::Reader lying(payload.data(), payload.size());
  std::string s;
  EXPECT_FALSE(lying.GetString(&s));

  const uint8_t two[2] = {1, 2};
  wire::Reader short32(two, sizeof(two));
  uint32_t v;
  EXPECT_FALSE(short32.GetU32(&v));

  std::vector<uint8_t> floats;
  wire::PutF32(&floats, 1.f);
  wire::Reader overrun(floats.data(), floats.size());
  std::vector<float> out;
  EXPECT_FALSE(overrun.GetF32Array(2, &out));  // asks for 8 bytes of 4
  EXPECT_TRUE(overrun.GetF32Array(1, &out));
  EXPECT_EQ(out[0], 1.f);
}

TEST(ServeProtocolTest, F32ArrayCountOverflowCannotPassTheBoundsCheck) {
  std::vector<uint8_t> floats;
  wire::PutF32(&floats, 1.f);
  wire::Reader r(floats.data(), floats.size());
  std::vector<float> out;
  // With a naive `remaining() < count * 4` bound these counts wrap the
  // multiplication (to 4 and 0), pass the check, and resize() throws.
  EXPECT_FALSE(r.GetF32Array(SIZE_MAX / 4 + 1, &out));
  EXPECT_FALSE(r.GetF32Array(size_t{1} << 62, &out));
  EXPECT_TRUE(r.GetF32Array(1, &out));  // the reader position is intact
  EXPECT_EQ(out[0], 1.f);
}

TEST(ServeProtocolTest, StatusMappingRoundTripsAndFlagsRetryable) {
  EXPECT_TRUE(IsRetryable(WireStatus::kOverloaded));
  EXPECT_TRUE(IsRetryable(WireStatus::kShuttingDown));
  EXPECT_FALSE(IsRetryable(WireStatus::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryable(WireStatus::kOk));

  EXPECT_TRUE(ToStatus(WireStatus::kOverloaded, "x").retryable());
  EXPECT_TRUE(ToStatus(WireStatus::kShuttingDown, "x").retryable());
  EXPECT_FALSE(ToStatus(WireStatus::kDeadlineExceeded, "x").retryable());
  EXPECT_EQ(ToStatus(WireStatus::kDeadlineExceeded, "x").code(),
            StatusCode::kDeadlineExceeded);

  for (const WireStatus ws :
       {WireStatus::kOk, WireStatus::kInvalidArgument, WireStatus::kNotFound,
        WireStatus::kDeadlineExceeded, WireStatus::kInternal}) {
    EXPECT_EQ(FromStatus(ToStatus(ws, "msg")), ws);
  }
  EXPECT_EQ(FromStatus(Status::Unavailable("shed")), WireStatus::kOverloaded);
}

TEST(ServeProtocolTest, PutStringTruncatesOversizeInput) {
  std::vector<uint8_t> out;
  wire::PutString(&out, std::string(100000, 'a'));
  wire::Reader r(out.data(), out.size());
  std::string s;
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(s.size(), 0xFFFFu);
}

// ---------------------------------------------------------------------------
// Server, end to end over loopback.

// A 1-worker query executor whose only worker is held by a latch task
// until Release(): searches admitted behind it stay queued, with no
// timing involved. The constructor returns once the latch task is
// running, so a draining Shutdown() that lends its thread to the pool
// runs the queued searches but can never pick up the latch itself.
class GatedExecutor {
 public:
  GatedExecutor() {
    pool_.Schedule([this] {
      std::unique_lock lock(mutex_);
      running_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    });
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return running_; });
  }
  ~GatedExecutor() { Release(); }

  void Release() {
    std::lock_guard lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }
  exec::TaskExecutor* pool() { return &pool_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool released_ = false;
  exec::TaskExecutor pool_{1};  ///< last: joins before the latch state dies
};

// Polls `condition` for up to 5 s: server counters move on io threads.
bool Eventually(const std::function<bool()>& condition) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!condition()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ServeServerTest : public ::testing::Test {
 protected:
  /// `options` with searches routed through a fresh GatedExecutor.
  ServerOptions Gated(ServerOptions options = {}) {
    gate_ = std::make_unique<GatedExecutor>();
    options.query_executor = gate_->pool();
    return options;
  }

  void StartServer(ServerOptions options = {}) {
    data_ = SmallData();
    collection_ = SmallCollection();
    options.max_connections =
        options.max_connections == 32 ? 4 : options.max_connections;
    auto started =
        Server::Start({{"main", collection_.get()}}, options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  std::unique_ptr<Client> MakeClient() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::vector<float> Query(size_t i = 0) const {
    const float* row = data_.row(i);
    return {row, row + data_.cols()};
  }

  FloatMatrix data_;  ///< same seed as the collection's seed rows
  std::unique_ptr<Collection> collection_;
  std::unique_ptr<GatedExecutor> gate_;  ///< outlives server_
  std::unique_ptr<Server> server_;
};

TEST_F(ServeServerTest, PingAndSearchRoundTrip) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());

  QueryRequest request = TopK(5);
  const auto q = Query(3);
  auto reply = client->Search("main", q.data(), q.size(), request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().batch_size, 1u);  // each Search runs on its own
  auto direct = collection_->Search(q.data(), request);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(
      SameIds(reply.value().response.neighbors, direct.value().neighbors));
  EXPECT_GT(reply.value().response.stats.candidates_verified, 0u);
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.batches_dispatched, 1u);
  EXPECT_EQ(stats.batched_queries, 1u);
  EXPECT_EQ(stats.mean_batch_size, 1.0);
}

TEST_F(ServeServerTest, SearchBatchUpsertDeleteStatsRoundTrip) {
  StartServer();
  auto client = MakeClient();

  FloatMatrix queries(3, collection_->dim());
  for (size_t i = 0; i < 3; ++i) {
    const auto q = Query(i);
    std::copy(q.begin(), q.end(), queries.mutable_row(i));
  }
  auto batch = client->SearchBatch("main", queries, TopK(4));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), 3u);
  auto direct = collection_->SearchBatch(queries, TopK(4));
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(SameIds(batch.value()[i].neighbors,
                        direct.value()[i].neighbors));
  }

  // Upsert an outlier, find it, replace it under its id, then delete it.
  const std::vector<float> outlier(collection_->dim(), 500.f);
  auto id = client->Upsert("main", outlier.data(), outlier.size());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto found =
      client->Search("main", outlier.data(), outlier.size(), TopK(1));
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found.value().response.neighbors.size(), 1u);
  EXPECT_EQ(found.value().response.neighbors[0].id, id.value());

  auto replaced =
      client->Upsert("main", id.value(), outlier.data(), outlier.size());
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value(), id.value());
  ASSERT_TRUE(client->Delete("main", id.value()).ok());
  EXPECT_EQ(client->Delete("main", id.value()).code(),
            StatusCode::kNotFound);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().collections.size(), 1u);
  EXPECT_EQ(stats.value().collections[0].name, "main");
  EXPECT_EQ(stats.value().collections[0].live_vectors, collection_->size());
  EXPECT_EQ(stats.value().server.upserts, 2u);
  EXPECT_EQ(stats.value().server.deletes, 2u);
  EXPECT_EQ(stats.value().server.searches, 4u);
  // One SearchBatch call of 3 queries plus one Search call.
  EXPECT_EQ(stats.value().server.batches_dispatched, 2u);
  EXPECT_EQ(stats.value().server.batched_queries, 4u);
  EXPECT_EQ(stats.value().server.max_batch_size, 3u);
}

TEST_F(ServeServerTest, UnknownCollectionAndDimMismatchAreTyped) {
  StartServer();
  auto client = MakeClient();
  const auto q = Query();
  EXPECT_EQ(client->Search("nope", q.data(), q.size(), {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->Search("main", q.data(), 3, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Delete("nope", 0).code(), StatusCode::kNotFound);
}

// A batch larger than max_inflight can never be admitted: it is refused
// as a non-retryable InvalidArgument naming the cap, not shed as a
// retryable overload that a client would resend forever.
TEST_F(ServeServerTest, BatchLargerThanMaxInflightIsInvalidArgument) {
  ServerOptions options;
  options.max_inflight = 4;
  StartServer(options);
  auto client = MakeClient();
  FloatMatrix queries(5, collection_->dim());
  for (size_t i = 0; i < 5; ++i) {
    const auto q = Query(i);
    std::copy(q.begin(), q.end(), queries.mutable_row(i));
  }
  auto refused = client->SearchBatch("main", queries, TopK(3));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  EXPECT_FALSE(refused.status().retryable());
  EXPECT_NE(refused.status().message().find("max_inflight"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(server_->Stats().shed_overload, 0u);

  auto at_cap = client->SearchBatch("main", queries.Prefix(4), TopK(3));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().size(), 4u);
}

TEST_F(ServeServerTest, ExpiredDeadlineIsRejectedWithoutExecution) {
  StartServer(Gated());
  auto client = MakeClient();
  const auto q = Query();
  auto sent = client->SendSearch("main", q.data(), q.size(), {},
                                 /*deadline_us=*/1);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  // Stats() reads `searches` before it takes the admission lock, so once
  // it counts the search, admission has queued it behind the latch (or
  // already rejected it). Either way it cannot start before its 1 us is
  // gone.
  ASSERT_TRUE(Eventually([&] { return server_->Stats().searches >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate_->Release();
  auto got = client->ReceiveSearchReply();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().request_id, sent.value());
  EXPECT_EQ(got.value().status.code(), StatusCode::kDeadlineExceeded);
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.batched_queries, 0u);  // the index was never touched
  // The connection stays healthy and an undeadlined search still works.
  auto ok = client->Search("main", q.data(), q.size(), {});
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ServeServerTest, DeadlineExpiringInQueueSkipsExecution) {
  StartServer(Gated());
  auto client = MakeClient();
  const auto q = Query();
  constexpr uint32_t kBudgetUs = 100000;
  auto sent = client->SendSearch("main", q.data(), q.size(), {}, kBudgetUs);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  // The reader answers this Ping after it admitted the search, which
  // then waits behind the latch while its budget runs out.
  ASSERT_TRUE(client->Ping().ok());
  std::this_thread::sleep_for(std::chrono::microseconds(kBudgetUs));
  gate_->Release();
  auto got = client->ReceiveSearchReply();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().request_id, sent.value());
  EXPECT_EQ(got.value().status.code(), StatusCode::kDeadlineExceeded)
      << got.value().status.ToString();
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.batches_dispatched, 0u);
  EXPECT_EQ(stats.batched_queries, 0u);
}

TEST_F(ServeServerTest, OverloadShedsWithRetryableStatus) {
  ServerOptions options = Gated();
  options.max_inflight = 1;
  StartServer(options);
  auto client = MakeClient();

  const auto q = Query();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto sent = client->SendSearch("main", q.data(), q.size(), {});
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    ids.push_back(sent.value());
  }
  // The first search holds the only slot behind the latch, so the other
  // three are answered first: shed, retryable.
  for (int i = 1; i < 4; ++i) {
    auto got = client->ReceiveSearchReply();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().request_id, ids[i]);
    EXPECT_EQ(got.value().status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(got.value().status.retryable())
        << got.value().status.ToString();
  }
  gate_->Release();
  auto first = client->ReceiveSearchReply();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().request_id, ids[0]);
  EXPECT_TRUE(first.value().status.ok()) << first.value().status.ToString();
  EXPECT_EQ(server_->Stats().shed_overload, 3u);
}

TEST_F(ServeServerTest, ConnectionCapShedsWithRetryableFrame) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());  // the one admitted connection

  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // The shed frame arrives unprompted, addressed to request_id 0.
  uint8_t header_buf[kHeaderBytes];
  ASSERT_TRUE(ReadFull(fd.value(), header_buf, kHeaderBytes).ok());
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(header_buf, &header));
  EXPECT_EQ(header.request_id, 0u);
  std::vector<uint8_t> payload(header.payload_len);
  ASSERT_TRUE(ReadFull(fd.value(), payload.data(), payload.size()).ok());
  wire::Reader r(payload.data(), payload.size());
  uint8_t status;
  ASSERT_TRUE(r.GetU8(&status));
  EXPECT_EQ(static_cast<WireStatus>(status), WireStatus::kOverloaded);
  EXPECT_TRUE(IsRetryable(static_cast<WireStatus>(status)));
  CloseFd(fd.value());
  EXPECT_GE(server_->Stats().connections_rejected, 1u);
  ASSERT_TRUE(client->Ping().ok());  // the admitted peer is unaffected
}

// Reads one frame off a raw socket (hardening tests drive the protocol
// below the Client abstraction).
Status ReadRawFrame(int fd, FrameHeader* header,
                    std::vector<uint8_t>* payload) {
  uint8_t header_buf[kHeaderBytes];
  Status s = ReadFull(fd, header_buf, kHeaderBytes);
  if (!s.ok()) return s;
  if (!DecodeHeader(header_buf, header)) {
    return Status::Corruption("bad header");
  }
  payload->resize(header->payload_len);
  return payload->empty() ? Status::OK()
                          : ReadFull(fd, payload->data(), payload->size());
}

WireStatus StatusOf(const std::vector<uint8_t>& payload) {
  wire::Reader r(payload.data(), payload.size());
  uint8_t status = 0xFF;
  r.GetU8(&status);
  return static_cast<WireStatus>(status);
}

TEST(ServeClientTest, OversizeResponseLengthIsRejectedBeforeAllocation) {
  // A spoofed "server" that answers with a huge length prefix must not be
  // able to make the client allocate gigabytes: the client mirrors the
  // server's payload gate.
  uint16_t port = 0;
  auto listening = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listening.ok());
  ClientOptions options;
  options.max_payload_bytes = 1024;
  auto client = Client::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto accepted = AcceptWithTimeout(listening.value(), 1000);
  ASSERT_TRUE(accepted.ok());

  // Pre-send the bogus response (request_id 1 = the client's first call);
  // TCP buffers the Ping request the client writes before reading it.
  auto frame = EncodeFrame(OpCode::kPing, 1, {});
  frame[16] = 0xFF;  // payload_len := huge, no payload follows
  frame[17] = 0xFF;
  frame[18] = 0xFF;
  frame[19] = 0x7F;
  ASSERT_TRUE(WriteFull(accepted.value(), frame.data(), frame.size()).ok());

  const Status s = client.value()->Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  CloseFd(accepted.value());
  CloseFd(listening.value());
}

TEST_F(ServeServerTest, GarbageStreamIsDroppedWithoutHarmingPeers) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(WriteFull(fd.value(), garbage.data(), garbage.size()).ok());
  // The server answers nothing and closes: the next read sees EOF.
  uint8_t byte;
  const Status s = ReadFull(fd.value(), &byte, 1);
  EXPECT_FALSE(s.ok());
  CloseFd(fd.value());

  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(ServeServerTest, OversizeLengthPrefixIsRejectedBeforeAllocation) {
  ServerOptions options;
  options.max_payload_bytes = 1024;
  StartServer(options);
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());

  auto frame = EncodeFrame(OpCode::kPing, 9, {});
  frame[16] = 0xFF;  // payload_len := huge, no payload follows
  frame[17] = 0xFF;
  frame[18] = 0xFF;
  frame[19] = 0x7F;
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());

  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &payload).ok());
  EXPECT_EQ(header.request_id, 9u);
  EXPECT_EQ(StatusOf(payload), WireStatus::kProtocolError);
  // ... and the connection is dropped (the stream cannot resync).
  uint8_t byte;
  EXPECT_FALSE(ReadFull(fd.value(), &byte, 1).ok());
  CloseFd(fd.value());
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(ServeServerTest, HugeBatchDimensionsAreAnsweredNotFatal) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());

  // num = dim = 2^31 makes num*dim = 2^62: a naive `count * 4` bound
  // wraps to 0, resize(2^62) throws on an executor thread, and the whole
  // process dies. The server must answer a typed error instead.
  std::vector<uint8_t> payload;
  wire::PutString(&payload, "main");
  wire::PutU32(&payload, 10);            // k
  wire::PutU32(&payload, 0);             // deadline_us
  wire::PutU32(&payload, 0);             // candidate_budget
  wire::PutF64(&payload, 0.0);           // r0
  wire::PutU32(&payload, 0x80000000u);   // num
  wire::PutU32(&payload, 0x80000000u);   // dim — and no floats follow
  const auto frame = EncodeFrame(OpCode::kSearchBatch, 31, payload);
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());

  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(header.request_id, 31u);
  EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError);
  CloseFd(fd.value());

  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());  // the server is still alive
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(ServeServerTest, BadChecksumIsAnsweredAndTheConnectionSurvives) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());

  std::vector<uint8_t> payload;
  wire::PutU32(&payload, 1234);
  auto frame = EncodeFrame(OpCode::kPing, 11, payload);
  frame[20] ^= 0xFF;  // corrupt the checksum
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());

  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError);

  // Frame boundaries stayed sound: a clean Ping on the same socket works.
  const auto ping = EncodeFrame(OpCode::kPing, 12, {});
  ASSERT_TRUE(WriteFull(fd.value(), ping.data(), ping.size()).ok());
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(header.request_id, 12u);
  EXPECT_EQ(StatusOf(response), WireStatus::kOk);
  CloseFd(fd.value());
}

TEST_F(ServeServerTest, UnknownOpCodeIsAnsweredAndTheConnectionSurvives) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  const auto frame = EncodeFrame(static_cast<OpCode>(99), 21, {});
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());
  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(header.request_id, 21u);
  EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError);

  const auto ping = EncodeFrame(OpCode::kPing, 22, {});
  ASSERT_TRUE(WriteFull(fd.value(), ping.data(), ping.size()).ok());
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(StatusOf(response), WireStatus::kOk);
  CloseFd(fd.value());
}

// Every request decoder, fed every strict prefix of a valid payload in a
// checksum-valid frame, answers kProtocolError on the same request id —
// never a crash, a hang or a dropped connection — and a Ping on the same
// socket still succeeds afterwards. Each full payload decodes (whatever
// status it then gets), so every prefix is cut from a request the server
// parses.
TEST_F(ServeServerTest, EveryTruncatedRequestIsAnsweredProtocolError) {
  StartServer();
  const auto q = Query();
  const auto put_head = [](std::vector<uint8_t>* p) {
    wire::PutString(p, "main");
    wire::PutU32(p, 5);      // k
    wire::PutU32(p, 0);      // deadline_us
    wire::PutU32(p, 0);      // candidate_budget
    wire::PutF64(p, 0.0);    // r0
  };
  const auto put_floats = [&](std::vector<uint8_t>* p) {
    for (float v : q) wire::PutF32(p, v);
  };
  struct Case {
    OpCode op;
    std::vector<uint8_t> payload;
  };
  std::vector<Case> cases;
  {
    Case search{OpCode::kSearch, {}};
    put_head(&search.payload);
    wire::PutU32(&search.payload, static_cast<uint32_t>(q.size()));
    put_floats(&search.payload);
    cases.push_back(search);
  }
  {
    Case batch{OpCode::kSearchBatch, {}};
    put_head(&batch.payload);
    wire::PutU32(&batch.payload, 2);  // num
    wire::PutU32(&batch.payload, static_cast<uint32_t>(q.size()));
    put_floats(&batch.payload);
    put_floats(&batch.payload);
    cases.push_back(batch);
  }
  {
    Case upsert{OpCode::kUpsert, {}};
    wire::PutString(&upsert.payload, "main");
    wire::PutU8(&upsert.payload, 1);  // has_id
    wire::PutU32(&upsert.payload, 7);
    wire::PutU32(&upsert.payload, static_cast<uint32_t>(q.size()));
    put_floats(&upsert.payload);
    cases.push_back(upsert);
  }
  {
    Case del{OpCode::kDelete, {}};
    wire::PutString(&del.payload, "main");
    wire::PutU32(&del.payload, 3);
    cases.push_back(del);
  }
  {
    Case checkpoint{OpCode::kCheckpoint, {}};
    wire::PutString(&checkpoint.payload, "main");
    cases.push_back(checkpoint);
  }
  {
    Case subscribe{OpCode::kSubscribe, {}};
    wire::PutString(&subscribe.payload, "main");
    wire::PutU32(&subscribe.payload, 0);  // shard
    wire::PutU64(&subscribe.payload, 0);  // from_lsn
    wire::PutU8(&subscribe.payload, 0);   // need_snapshot
    cases.push_back(subscribe);
  }
  {
    Case status{OpCode::kReplicaStatus, {}};
    wire::PutString(&status.payload, "main");
    cases.push_back(status);
  }

  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  uint64_t request_id = 100;
  uint64_t prefixes = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE("op " + std::to_string(static_cast<unsigned>(c.op)));
    for (size_t len = 0; len <= c.payload.size(); ++len) {
      const std::vector<uint8_t> prefix(c.payload.begin(),
                                        c.payload.begin() + len);
      const uint64_t id = ++request_id;
      const auto frame = EncodeFrame(c.op, id, prefix);
      ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());
      FrameHeader header;
      std::vector<uint8_t> response;
      ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok())
          << "prefix of " << len << " bytes";
      EXPECT_EQ(header.request_id, id);
      EXPECT_TRUE(header.op == c.op);
      if (len < c.payload.size()) {
        ++prefixes;
        EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError)
            << "prefix of " << len << " bytes";
      } else {
        EXPECT_NE(StatusOf(response), WireStatus::kProtocolError)
            << "the full payload must decode";
      }
    }
  }
  const auto ping = EncodeFrame(OpCode::kPing, 1, {});
  ASSERT_TRUE(WriteFull(fd.value(), ping.data(), ping.size()).ok());
  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(header.request_id, 1u);
  EXPECT_EQ(StatusOf(response), WireStatus::kOk);
  CloseFd(fd.value());
  EXPECT_EQ(server_->Stats().protocol_errors, prefixes);
}

TEST_F(ServeServerTest, MidFrameDisconnectLeavesPeersUnaffected) {
  StartServer(Gated());

  // Peer A dies twice over: once mid-frame, once with a search queued
  // whose response will hit a closed socket.
  {
    auto fd = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(fd.ok());
    const auto frame = EncodeFrame(OpCode::kPing, 41, {});
    ASSERT_TRUE(WriteFull(fd.value(), frame.data(), 10).ok());
    CloseFd(fd.value());  // disconnect mid-header
  }
  auto dying = MakeClient();
  const auto q = Query();
  ASSERT_TRUE(dying->SendSearch("main", q.data(), q.size(), {}).ok());
  ASSERT_TRUE(dying->Ping().ok());  // the search is admitted and queued
  dying.reset();      // gone before its search runs
  gate_->Release();   // its response now goes to a closed socket

  auto client = MakeClient();
  auto reply = client->Search("main", q.data(), q.size(), TopK(3));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().response.neighbors.size(), 3u);
  EXPECT_TRUE(
      Eventually([&] { return server_->Stats().protocol_errors >= 1; }));
}

TEST_F(ServeServerTest, ShutdownDrainsHeldRequests) {
  StartServer(Gated());
  auto client = MakeClient();

  const auto q = Query();
  ASSERT_TRUE(client->SendSearch("main", q.data(), q.size(), {}).ok());
  ASSERT_TRUE(client->Ping().ok());  // admitted and queued behind the latch
  // The executor's only worker stays latched, so Shutdown can only finish
  // by running the queued search on its own thread.
  server_->Shutdown();

  auto got = client->ReceiveSearchReply();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().status.ok()) << got.value().status.ToString();
  EXPECT_EQ(server_->Stats().batched_queries, 1u);
  // After shutdown the server side is closed.
  EXPECT_FALSE(client->Ping().ok());
  server_->Shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Search admission, the contract the request coalescer carried before every
// search dispatched at once: the suite keeps its name and checks the same
// contract (deadline, shed, drain, one call per request) through Server.

class CoalescerTest : public ServeServerTest {
 protected:
  FloatMatrix Rows(size_t n) const {
    FloatMatrix queries(n, collection_->dim());
    for (size_t i = 0; i < n; ++i) {
      const auto q = Query(i);
      std::copy(q.begin(), q.end(), queries.mutable_row(i));
    }
    return queries;
  }
};

// A SearchBatch whose budget is gone before it can run is refused whole:
// every one of its queries counts as rejected and none touches the index.
TEST_F(CoalescerTest, ExpiredDeadlineIsRejectedAtAdmission) {
  StartServer(Gated());
  auto client = MakeClient();
  const FloatMatrix queries = Rows(3);
  // The batch call blocks until its reply, so the latch is lifted from a
  // helper once admission has seen the batch and its 1 us is gone.
  std::thread release([&] {
    EXPECT_TRUE(Eventually([&] { return server_->Stats().searches >= 3; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    gate_->Release();
  });
  auto refused =
      client->SearchBatch("main", queries, TopK(3), /*deadline_us=*/1);
  release.join();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDeadlineExceeded)
      << refused.status().ToString();
  ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.rejected_deadline, 3u);
  EXPECT_EQ(stats.batches_dispatched, 0u);
  EXPECT_EQ(stats.batched_queries, 0u);

  auto ok = client->SearchBatch("main", queries, TopK(3));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().size(), 3u);
  stats = server_->Stats();
  EXPECT_EQ(stats.rejected_deadline, 3u);
  EXPECT_EQ(stats.batched_queries, 3u);
}

// A batch that fits max_inflight on its own but not beside the queries
// already in flight is shed retryable, and admitted once they complete.
TEST_F(CoalescerTest, ShedsWithRetryableStatusAtMaxInflight) {
  ServerOptions options = Gated();
  options.max_inflight = 4;
  StartServer(options);
  auto holder = MakeClient();
  const auto q = Query();
  auto held = holder->SendSearch("main", q.data(), q.size(), TopK(3));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_TRUE(holder->Ping().ok());  // admitted: one slot taken

  auto client = MakeClient();
  const FloatMatrix queries = Rows(4);
  auto shed = client->SearchBatch("main", queries, TopK(3));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  EXPECT_TRUE(shed.status().retryable()) << shed.status().ToString();
  EXPECT_EQ(server_->Stats().shed_overload, 4u);

  gate_->Release();
  auto first = holder->ReceiveSearchReply();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().request_id, held.value());
  EXPECT_TRUE(first.value().status.ok()) << first.value().status.ToString();
  auto retried = client->SearchBatch("main", queries, TopK(3));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().size(), 4u);
  EXPECT_EQ(server_->Stats().shed_overload, 4u);
}

// Shutdown answers every query queued on every connection, with the
// executor's only worker still latched, then takes no more requests.
TEST_F(CoalescerTest, DrainFlushesHeldQueriesAndStopsIntake) {
  StartServer(Gated());
  std::vector<std::unique_ptr<Client>> clients;
  clients.push_back(MakeClient());
  clients.push_back(MakeClient());
  std::vector<std::vector<uint64_t>> sent(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    for (size_t i = 0; i < 2; ++i) {
      const auto q = Query(c * 2 + i);
      auto id = clients[c]->SendSearch("main", q.data(), q.size(), TopK(3));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      sent[c].push_back(id.value());
    }
    ASSERT_TRUE(clients[c]->Ping().ok());  // both admitted and queued
  }
  server_->Shutdown();

  for (size_t c = 0; c < clients.size(); ++c) {
    std::vector<uint64_t> answered;
    for (size_t i = 0; i < 2; ++i) {
      auto got = clients[c]->ReceiveSearchReply();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got.value().status.ok()) << got.value().status.ToString();
      EXPECT_EQ(got.value().reply.response.neighbors.size(), 3u);
      answered.push_back(got.value().request_id);
    }
    std::sort(answered.begin(), answered.end());
    EXPECT_EQ(answered, sent[c]);
    EXPECT_FALSE(clients[c]->Ping().ok());
  }
  EXPECT_EQ(server_->Stats().batched_queries, 4u);
  // The acceptor closes its socket within one poll interval.
  EXPECT_TRUE(Eventually(
      [&] { return !Client::Connect("127.0.0.1", server_->port()).ok(); }));
}

// Destroying the server without Shutdown() drains the same way: a queued
// search is answered with its real result before the sockets close.
TEST_F(CoalescerTest, DestructorDrainsHeldQueries) {
  StartServer(Gated());
  auto client = MakeClient();
  const auto q = Query(5);
  auto sent = client->SendSearch("main", q.data(), q.size(), TopK(4));
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  ASSERT_TRUE(client->Ping().ok());  // admitted and queued behind the latch
  server_.reset();

  auto got = client->ReceiveSearchReply();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().request_id, sent.value());
  ASSERT_TRUE(got.value().status.ok()) << got.value().status.ToString();
  auto direct = collection_->Search(q.data(), TopK(4));
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameIds(got.value().reply.response.neighbors,
                      direct.value().neighbors));
  EXPECT_FALSE(client->Ping().ok());
}

// Each request is one dispatched call: pipelined searches never share
// one, and a SearchBatch is one call of all its rows.
TEST_F(CoalescerTest, SubmitBatchDispatchesWithoutWindowHold) {
  StartServer();
  auto pipelined = MakeClient();
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 8; ++i) {
    const auto q = Query(i);
    auto sent = pipelined->SendSearch("main", q.data(), q.size(), TopK(3));
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    ids.push_back(sent.value());
  }
  auto batcher = MakeClient();
  auto batch = batcher->SearchBatch("main", Rows(5), TopK(3));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().size(), 5u);
  std::vector<uint64_t> answered;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto got = pipelined->ReceiveSearchReply();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got.value().status.ok()) << got.value().status.ToString();
    EXPECT_EQ(got.value().reply.batch_size, 1u);
    answered.push_back(got.value().request_id);
  }
  std::sort(answered.begin(), answered.end());
  EXPECT_EQ(answered, ids);

  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.batches_dispatched, 9u);
  EXPECT_EQ(stats.batched_queries, 13u);
  EXPECT_EQ(stats.max_batch_size, 5u);
}

TEST(ServeServerStartTest, RejectsBadCollectionSets) {
  auto collection = SmallCollection();
  EXPECT_EQ(Server::Start({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::Start({{"", collection.get()}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::Start({{"a", nullptr}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::Start({{"a", collection.get()},
                           {"a", collection.get()}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dblsh::serve
