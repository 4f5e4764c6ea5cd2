#include "serve/server.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "replication/feed.h"
#include "serve/net.h"

namespace dblsh::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Response payload prefix shared by every op: status + message.
std::vector<uint8_t> StatusPayload(WireStatus status,
                                   const std::string& message) {
  std::vector<uint8_t> payload;
  wire::PutU8(&payload, static_cast<uint8_t>(status));
  wire::PutString(&payload, message);
  return payload;
}

// Appends one QueryResponse body (neighbors + stats) to `payload`.
void AppendResponseBody(std::vector<uint8_t>* payload,
                        const QueryResponse& response) {
  wire::PutU32(payload, static_cast<uint32_t>(response.neighbors.size()));
  for (const auto& nb : response.neighbors) {
    wire::PutU32(payload, nb.id);
    wire::PutF32(payload, nb.dist);
  }
  wire::PutU64(payload, response.stats.candidates_verified);
}

// Decoded common head of Search / SearchBatch requests.
struct SearchHead {
  std::string name;
  QueryRequest request;
  uint32_t deadline_us = 0;
};

bool DecodeSearchHead(wire::Reader* r, SearchHead* head) {
  uint32_t k, budget;
  double r0;
  if (!r->GetString(&head->name) || !r->GetU32(&k) ||
      !r->GetU32(&head->deadline_us) || !r->GetU32(&budget) ||
      !r->GetF64(&r0)) {
    return false;
  }
  head->request.k = k;
  head->request.candidate_budget = budget;
  head->request.r0 = r0;
  return true;
}

Clock::time_point DeadlineFrom(uint32_t deadline_us) {
  return deadline_us == 0
             ? Clock::time_point::max()
             : Clock::now() + std::chrono::microseconds(deadline_us);
}

}  // namespace

Server::Connection::~Connection() {
  CloseFd(fd);
  server->OnConnectionClosed();
}

Status Server::Connection::WriteFrame(const std::vector<uint8_t>& frame) {
  std::lock_guard lock(write_mutex);
  if (!alive) return Status::Unavailable("connection closed");
  Status s = WriteFull(fd, frame.data(), frame.size());
  if (!s.ok()) alive = false;  // dead peer: later responses become no-ops
  return s;
}

Server::Server(std::vector<ServedCollection> collections,
               const ServerOptions& options)
    : options_(options),
      query_pool_(options.query_executor != nullptr
                      ? options.query_executor
                      : &exec::TaskExecutor::Default()) {
  for (const auto& served : collections) {
    collections_[served.name] = served.collection;
  }
}

Result<std::unique_ptr<Server>> Server::Start(
    std::vector<ServedCollection> collections, const ServerOptions& options) {
  if (collections.empty()) {
    return Status::InvalidArgument("Start: no collections to serve");
  }
  for (const auto& served : collections) {
    if (served.name.empty() || served.collection == nullptr) {
      return Status::InvalidArgument(
          "Start: collection entries need a non-empty name and a non-null "
          "collection");
    }
  }
  const size_t named = collections.size();
  std::unique_ptr<Server> server(
      new Server(std::move(collections), options));
  if (server->collections_.size() != named) {
    return Status::InvalidArgument("Start: duplicate collection name");
  }
  InstallSigpipeGuard();
  auto listening =
      ListenTcp(options.host, options.port, &server->port_);
  if (!listening.ok()) return listening.status();
  server->listen_fd_ = listening.value();

  // One worker per long-lived task: the acceptor + one reader per
  // admitted connection.
  server->io_pool_ = std::make_unique<exec::TaskExecutor>(
      options.max_connections + 1);
  Server* raw = server.get();
  server->io_pool_->Schedule([raw] { raw->AcceptLoop(); });
  return server;
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  std::lock_guard shutdown_lock(shutdown_mutex_);
  if (shutdown_done_.load()) return;
  stopping_.store(true, std::memory_order_release);
  // Admitted searches complete and write their responses while the
  // connection objects are still alive (the tasks hold references). This
  // thread runs queued tasks itself, so a saturated (or width-1) query
  // pool cannot starve the searches being awaited.
  {
    std::unique_lock lock(admit_mutex_);
    while (inflight_ > 0) {
      lock.unlock();
      const bool ran = query_pool_->RunOnePendingTask();
      lock.lock();
      if (!ran) drained_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  // Reader loops observe stopping_ within poll_interval_ms and exit;
  // the last reference to each connection closes its socket.
  {
    std::unique_lock lock(conn_mutex_);
    conn_cv_.wait(lock, [&] { return active_connections_ == 0; });
  }
  shutdown_done_.store(true);
}

ServerStats Server::Stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_rejected = connections_rejected_.load();
  {
    std::lock_guard lock(conn_mutex_);
    s.connections_active = active_connections_;
  }
  s.requests = requests_.load();
  s.searches = searches_.load();
  s.upserts = upserts_.load();
  s.deletes = deletes_.load();
  s.protocol_errors = protocol_errors_.load();
  {
    std::lock_guard lock(admit_mutex_);
    s.shed_overload = shed_overload_;
    s.rejected_deadline = rejected_deadline_;
    s.batches_dispatched = batches_dispatched_;
    s.batched_queries = batched_queries_;
    s.max_batch_size = max_batch_size_;
  }
  s.mean_batch_size =
      s.batches_dispatched > 0
          ? static_cast<double>(s.batched_queries) /
                static_cast<double>(s.batches_dispatched)
          : 0.0;
  s.replication_subscriptions = replication_subscriptions_.load();
  s.replication_records_shipped = replication_records_shipped_.load();
  return s;
}

Collection* Server::Find(const std::string& name) const {
  const auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second;
}

void Server::OnConnectionClosed() {
  std::lock_guard lock(conn_mutex_);
  --active_connections_;
  conn_cv_.notify_all();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto accepted = AcceptWithTimeout(listen_fd_, options_.poll_interval_ms);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kNotFound) continue;
      break;  // listen socket failed; the server stops admitting
    }
    const int fd = accepted.value();
    timeval tv{options_.send_timeout_s, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    bool at_capacity;
    {
      std::lock_guard lock(conn_mutex_);
      at_capacity = active_connections_ >= options_.max_connections;
      if (!at_capacity) ++active_connections_;
    }
    if (at_capacity) {
      // Shed with a retryable status frame (request_id 0 = connection
      // level) instead of an opaque RST.
      connections_rejected_.fetch_add(1);
      const auto frame = EncodeFrame(
          OpCode::kPing, 0,
          StatusPayload(WireStatus::kOverloaded, "connection limit reached"));
      (void)WriteFull(fd, frame.data(), frame.size());
      CloseFd(fd);
      continue;
    }
    connections_accepted_.fetch_add(1);
    auto conn = std::make_shared<Connection>(this, fd);
    io_pool_->Schedule([this, conn] { ConnectionLoop(conn); });
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  std::vector<uint8_t> header_buf(kHeaderBytes);
  std::vector<uint8_t> payload;
  while (true) {
    Status s = ReadFull(conn->fd, header_buf.data(), kHeaderBytes,
                        &stopping_, options_.poll_interval_ms);
    if (!s.ok()) {
      // Clean EOF / shutdown are quiet; a mid-header disconnect counts
      // as a protocol error but still only tears down this connection.
      if (s.code() == StatusCode::kCorruption) {
        protocol_errors_.fetch_add(1);
      }
      break;
    }
    FrameHeader header;
    if (!DecodeHeader(header_buf.data(), &header)) {
      // Wrong magic/version: the stream is not speaking our protocol (or
      // lost sync); answering could feed a desynchronized peer garbage.
      protocol_errors_.fetch_add(1);
      break;
    }
    if (header.payload_len > options_.max_payload_bytes) {
      // Oversize length prefix: reject BEFORE allocating, then drop the
      // connection (the unread payload bytes would desynchronize it).
      protocol_errors_.fetch_add(1);
      SendError(conn, header.op, header.request_id,
                WireStatus::kProtocolError,
                "payload length " + std::to_string(header.payload_len) +
                    " exceeds limit");
      break;
    }
    payload.resize(header.payload_len);
    if (header.payload_len > 0) {
      s = ReadFull(conn->fd, payload.data(), payload.size(), &stopping_,
                   options_.poll_interval_ms);
      if (!s.ok()) {
        if (s.code() == StatusCode::kCorruption) {
          protocol_errors_.fetch_add(1);
        }
        break;
      }
    }
    if (Fnv1a32(payload.data(), payload.size()) != header.payload_checksum) {
      // Frame boundary is intact, so the connection may continue; the
      // request itself is untrustworthy.
      protocol_errors_.fetch_add(1);
      SendError(conn, header.op, header.request_id,
                WireStatus::kProtocolError, "payload checksum mismatch");
      continue;
    }
    if (!HandleFrame(conn, header, payload)) break;
  }
  // Reader exits; in-flight response callbacks still hold references and
  // finish writing, then the last reference closes the socket.
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const FrameHeader& header,
                         const std::vector<uint8_t>& payload) {
  requests_.fetch_add(1);
  switch (header.op) {
    case OpCode::kPing:
      SendError(conn, OpCode::kPing, header.request_id, WireStatus::kOk, "");
      return true;
    case OpCode::kSearch:
      HandleSearch(conn, header.request_id, payload);
      return true;
    case OpCode::kSearchBatch:
      HandleSearchBatch(conn, header.request_id, payload);
      return true;
    case OpCode::kUpsert:
      HandleUpsert(conn, header.request_id, payload);
      return true;
    case OpCode::kDelete:
      HandleDelete(conn, header.request_id, payload);
      return true;
    case OpCode::kStats:
      HandleStats(conn, header.request_id);
      return true;
    case OpCode::kCheckpoint:
      HandleCheckpoint(conn, header.request_id, payload);
      return true;
    case OpCode::kSubscribe:
      return HandleSubscribe(conn, header.request_id, payload);
    case OpCode::kReplicaStatus:
      HandleReplicaStatus(conn, header.request_id, payload);
      return true;
    case OpCode::kSnapshotChunk:
    case OpCode::kWalRecords:
      // Server-to-client stream frames; a client must never send them.
      break;
  }
  protocol_errors_.fetch_add(1);
  SendError(conn, header.op, header.request_id, WireStatus::kProtocolError,
            "unknown op code " +
                std::to_string(static_cast<unsigned>(header.op)));
  return true;  // framing stayed sound; the connection may continue
}

void Server::SendError(const std::shared_ptr<Connection>& conn, OpCode op,
                       uint64_t request_id, WireStatus status,
                       const std::string& message) {
  (void)conn->WriteFrame(
      EncodeFrame(op, request_id, StatusPayload(status, message)));
}

void Server::HandleSearch(const std::shared_ptr<Connection>& conn,
                          uint64_t request_id,
                          const std::vector<uint8_t>& payload) {
  wire::Reader reader(payload.data(), payload.size());
  SearchHead head;
  uint32_t dim;
  std::vector<float> query;
  if (!DecodeSearchHead(&reader, &head) || !reader.GetU32(&dim) ||
      !reader.GetF32Array(dim, &query)) {
    protocol_errors_.fetch_add(1);
    SendError(conn, OpCode::kSearch, request_id, WireStatus::kProtocolError,
              "malformed Search payload");
    return;
  }
  Collection* collection = Find(head.name);
  if (collection == nullptr) {
    SendError(conn, OpCode::kSearch, request_id, WireStatus::kNotFound,
              "no collection named \"" + head.name + "\"");
    return;
  }
  if (dim != collection->dim()) {
    SendError(conn, OpCode::kSearch, request_id,
              WireStatus::kInvalidArgument,
              "query has " + std::to_string(dim) + " dims, collection \"" +
                  head.name + "\" serves " +
                  std::to_string(collection->dim()));
    return;
  }
  Dispatch(conn, OpCode::kSearch, request_id, 1, head.deadline_us,
           [collection, query = std::move(query),
            request = head.request]() -> Result<std::vector<uint8_t>> {
             auto got = collection->Search(query.data(), request);
             if (!got.ok()) return got.status();
             std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
             AppendResponseBody(&body, got.value());
             wire::PutU32(&body, 1);  // batch_size: one query per call
             return body;
           });
}

void Server::HandleSearchBatch(const std::shared_ptr<Connection>& conn,
                               uint64_t request_id,
                               const std::vector<uint8_t>& payload) {
  wire::Reader reader(payload.data(), payload.size());
  SearchHead head;
  uint32_t num, dim;
  std::vector<float> flat;
  if (!DecodeSearchHead(&reader, &head) || !reader.GetU32(&num) ||
      !reader.GetU32(&dim) ||
      !reader.GetF32Array(static_cast<size_t>(num) * dim, &flat)) {
    protocol_errors_.fetch_add(1);
    SendError(conn, OpCode::kSearchBatch, request_id,
              WireStatus::kProtocolError, "malformed SearchBatch payload");
    return;
  }
  Collection* collection = Find(head.name);
  if (collection == nullptr) {
    SendError(conn, OpCode::kSearchBatch, request_id, WireStatus::kNotFound,
              "no collection named \"" + head.name + "\"");
    return;
  }
  if (num == 0 || dim != collection->dim()) {
    SendError(conn, OpCode::kSearchBatch, request_id,
              WireStatus::kInvalidArgument,
              "batch of " + std::to_string(num) + " queries with " +
                  std::to_string(dim) + " dims cannot be served");
    return;
  }
  Dispatch(conn, OpCode::kSearchBatch, request_id, num, head.deadline_us,
           [collection, queries = FloatMatrix(num, dim, std::move(flat)),
            request = head.request]() -> Result<std::vector<uint8_t>> {
             auto got = collection->SearchBatch(queries, request);
             if (!got.ok()) return got.status();
             std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
             wire::PutU32(&body, static_cast<uint32_t>(got.value().size()));
             for (const QueryResponse& response : got.value()) {
               AppendResponseBody(&body, response);
             }
             return body;
           });
}

void Server::Dispatch(const std::shared_ptr<Connection>& conn, OpCode op,
                      uint64_t request_id, uint64_t queries,
                      uint32_t deadline_us,
                      std::function<Result<std::vector<uint8_t>>()> run) {
  if (queries > options_.max_inflight) {
    // Shedding this as retryable would make a client retry forever.
    SendError(conn, op, request_id, WireStatus::kInvalidArgument,
              "batch of " + std::to_string(queries) +
                  " queries exceeds the server's max_inflight of " +
                  std::to_string(options_.max_inflight) + "; split it");
    return;
  }
  const Clock::time_point deadline = DeadlineFrom(deadline_us);
  {
    std::unique_lock lock(admit_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      lock.unlock();
      SendError(conn, op, request_id, WireStatus::kShuttingDown,
                "server draining");
      return;
    }
    searches_.fetch_add(queries);
    if (deadline <= Clock::now()) {
      rejected_deadline_ += queries;
      lock.unlock();
      SendError(conn, op, request_id, WireStatus::kDeadlineExceeded,
                "deadline expired before admission");
      return;
    }
    if (inflight_ + queries > options_.max_inflight) {
      shed_overload_ += queries;
      const std::string message =
          "queue full (" + std::to_string(inflight_) + " in flight); retry";
      lock.unlock();
      SendError(conn, op, request_id, WireStatus::kOverloaded, message);
      return;
    }
    inflight_ += queries;
  }
  query_pool_->Schedule([this, conn, op, request_id, queries, deadline,
                         run = std::move(run)] {
    // The deadline is checked again here: a query that waited out its
    // budget in the executor's queue never touches the index.
    const bool expired = Clock::now() >= deadline;
    Result<std::vector<uint8_t>> body =
        expired ? Result<std::vector<uint8_t>>(Status::DeadlineExceeded(
                      "deadline expired before execution"))
                : run();
    {
      // Counters land before the response, so a client that reads Stats
      // after its reply sees its own query counted.
      std::lock_guard lock(admit_mutex_);
      if (expired) {
        rejected_deadline_ += queries;
      } else {
        ++batches_dispatched_;
        batched_queries_ += queries;
        max_batch_size_ = std::max(max_batch_size_, queries);
      }
      inflight_ -= queries;
      if (inflight_ == 0) drained_cv_.notify_all();
    }
    if (body.ok()) {
      (void)conn->WriteFrame(EncodeFrame(op, request_id, body.value()));
    } else {
      SendError(conn, op, request_id, FromStatus(body.status()),
                body.status().message());
    }
  });
}

void Server::HandleUpsert(const std::shared_ptr<Connection>& conn,
                          uint64_t request_id,
                          const std::vector<uint8_t>& payload) {
  wire::Reader reader(payload.data(), payload.size());
  std::string name;
  uint8_t has_id;
  uint32_t id, dim;
  std::vector<float> vec;
  if (!reader.GetString(&name) || !reader.GetU8(&has_id) ||
      !reader.GetU32(&id) || !reader.GetU32(&dim) ||
      !reader.GetF32Array(dim, &vec)) {
    protocol_errors_.fetch_add(1);
    SendError(conn, OpCode::kUpsert, request_id, WireStatus::kProtocolError,
              "malformed Upsert payload");
    return;
  }
  Collection* collection = Find(name);
  if (collection == nullptr) {
    SendError(conn, OpCode::kUpsert, request_id, WireStatus::kNotFound,
              "no collection named \"" + name + "\"");
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    SendError(conn, OpCode::kUpsert, request_id, WireStatus::kShuttingDown,
              "server draining");
    return;
  }
  upserts_.fetch_add(1);
  // Mutations run inline on the reader: the Collection's writer-priority
  // lock serializes them against searches transactionally.
  auto result = has_id != 0 ? collection->Upsert(id, vec.data(), vec.size())
                            : collection->Upsert(vec.data(), vec.size());
  if (!result.ok()) {
    SendError(conn, OpCode::kUpsert, request_id, FromStatus(result.status()),
              result.status().message());
    return;
  }
  std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
  wire::PutU32(&body, result.value());
  (void)conn->WriteFrame(EncodeFrame(OpCode::kUpsert, request_id, body));
}

void Server::HandleDelete(const std::shared_ptr<Connection>& conn,
                          uint64_t request_id,
                          const std::vector<uint8_t>& payload) {
  wire::Reader reader(payload.data(), payload.size());
  std::string name;
  uint32_t id;
  if (!reader.GetString(&name) || !reader.GetU32(&id)) {
    protocol_errors_.fetch_add(1);
    SendError(conn, OpCode::kDelete, request_id, WireStatus::kProtocolError,
              "malformed Delete payload");
    return;
  }
  Collection* collection = Find(name);
  if (collection == nullptr) {
    SendError(conn, OpCode::kDelete, request_id, WireStatus::kNotFound,
              "no collection named \"" + name + "\"");
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    SendError(conn, OpCode::kDelete, request_id, WireStatus::kShuttingDown,
              "server draining");
    return;
  }
  deletes_.fetch_add(1);
  Status s = collection->Delete(id);
  if (!s.ok()) {
    SendError(conn, OpCode::kDelete, request_id, FromStatus(s), s.message());
    return;
  }
  (void)conn->WriteFrame(EncodeFrame(OpCode::kDelete, request_id,
                                     StatusPayload(WireStatus::kOk, "")));
}

void Server::HandleCheckpoint(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id,
                              const std::vector<uint8_t>& payload) {
  wire::Reader reader(payload.data(), payload.size());
  std::string name;
  if (!reader.GetString(&name)) {
    protocol_errors_.fetch_add(1);
    SendError(conn, OpCode::kCheckpoint, request_id,
              WireStatus::kProtocolError, "malformed Checkpoint payload");
    return;
  }
  Collection* collection = Find(name);
  if (collection == nullptr) {
    SendError(conn, OpCode::kCheckpoint, request_id, WireStatus::kNotFound,
              "no collection named \"" + name + "\"");
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    SendError(conn, OpCode::kCheckpoint, request_id,
              WireStatus::kShuttingDown, "server draining");
    return;
  }
  Status s = collection->Checkpoint();
  if (!s.ok()) {
    SendError(conn, OpCode::kCheckpoint, request_id, FromStatus(s),
              s.message());
    return;
  }
  (void)conn->WriteFrame(EncodeFrame(OpCode::kCheckpoint, request_id,
                                     StatusPayload(WireStatus::kOk, "")));
}

bool Server::HandleSubscribe(const std::shared_ptr<Connection>& conn,
                             uint64_t request_id,
                             const std::vector<uint8_t>& payload) {
  wire::Reader reader(payload.data(), payload.size());
  std::string name;
  uint32_t shard;
  uint64_t from_lsn;
  uint8_t need_snapshot;
  if (!reader.GetString(&name) || !reader.GetU32(&shard) ||
      !reader.GetU64(&from_lsn) || !reader.GetU8(&need_snapshot)) {
    protocol_errors_.fetch_add(1);
    SendError(conn, OpCode::kSubscribe, request_id,
              WireStatus::kProtocolError, "malformed Subscribe payload");
    return true;
  }
  Collection* collection = Find(name);
  if (collection == nullptr) {
    SendError(conn, OpCode::kSubscribe, request_id, WireStatus::kNotFound,
              "no collection named \"" + name + "\"");
    return true;
  }
  const CollectionDurabilityInfo durable = collection->Durability();
  if (!durable.enabled) {
    SendError(conn, OpCode::kSubscribe, request_id,
              WireStatus::kInvalidArgument,
              "collection \"" + name + "\" has no durability directory");
    return true;
  }
  if (shard >= collection->shards()) {
    SendError(conn, OpCode::kSubscribe, request_id,
              WireStatus::kInvalidArgument,
              "shard " + std::to_string(shard) + " out of range");
    return true;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    SendError(conn, OpCode::kSubscribe, request_id,
              WireStatus::kShuttingDown, "server draining");
    return true;
  }
  replication_subscriptions_.fetch_add(1);

  // The reader task now belongs to this stream: the feed runs inline and
  // every stream frame echoes the Subscribe's request_id.
  bool snapshot_mode = false;
  bool ack_sent = false;
  replication::FeedOptions feed;
  feed.collection = collection;
  feed.dir = durable.dir;
  feed.shard = shard;
  feed.from_lsn = from_lsn;
  feed.need_snapshot = need_snapshot != 0;
  feed.cancelled = [this] {
    return stopping_.load(std::memory_order_acquire);
  };
  feed.on_subscribed = [&](const durability::Manifest& manifest,
                           uint8_t mode, uint64_t snapshot_lsn,
                           uint64_t shard_lsn) {
    snapshot_mode = mode == replication::kFeedModeSnapshot;
    ack_sent = true;
    std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
    wire::PutU32(&body, manifest.shards);
    wire::PutU32(&body, manifest.dim);
    wire::PutU8(&body, static_cast<uint8_t>(manifest.storage));
    wire::PutU8(&body, mode);
    wire::PutU64(&body, snapshot_lsn);
    wire::PutU64(&body, shard_lsn);
    return conn->WriteFrame(EncodeFrame(OpCode::kSubscribe, request_id, body))
        .ok();
  };
  feed.on_chunk = [&](uint64_t total, uint64_t offset, bool last,
                      const uint8_t* data, size_t len) {
    std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
    wire::PutU32(&body, shard);
    wire::PutU64(&body, total);
    wire::PutU64(&body, offset);
    wire::PutU8(&body, last ? 1 : 0);
    wire::PutU32(&body, static_cast<uint32_t>(len));
    body.insert(body.end(), data, data + len);
    return conn->WriteFrame(
                   EncodeFrame(OpCode::kSnapshotChunk, request_id, body))
        .ok();
  };
  feed.on_records = [&](uint64_t watermark,
                        const std::vector<durability::WalRecord>& records) {
    std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
    wire::PutU32(&body, shard);
    wire::PutU64(&body, watermark);
    wire::PutU32(&body, static_cast<uint32_t>(records.size()));
    for (const durability::WalRecord& rec : records) {
      wire::PutU64(&body, rec.lsn);
      wire::PutU8(&body, static_cast<uint8_t>(rec.op));
      wire::PutU32(&body, rec.id);
      if (rec.op == durability::WalOp::kUpsert) {
        for (float v : rec.vec) wire::PutF32(&body, v);
      }
    }
    if (!conn->WriteFrame(EncodeFrame(OpCode::kWalRecords, request_id, body))
             .ok()) {
      return false;
    }
    replication_records_shipped_.fetch_add(records.size());
    return true;
  };

  Status s = replication::RunShardFeed(feed);
  if (!s.ok() && !ack_sent) {
    SendError(conn, OpCode::kSubscribe, request_id, FromStatus(s),
              s.message());
    return true;
  }
  // After the ack the stream has no in-band error channel: a feed failure
  // simply ends the stream and the follower treats it as a disconnect.
  // A completed snapshot stream hands the connection back to request mode
  // (the follower re-subscribes for the tail); a tail stream only ends
  // with the connection.
  return s.ok() && ack_sent && snapshot_mode;
}

void Server::HandleReplicaStatus(const std::shared_ptr<Connection>& conn,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload) {
  wire::Reader reader(payload.data(), payload.size());
  std::string name;
  if (!reader.GetString(&name)) {
    protocol_errors_.fetch_add(1);
    SendError(conn, OpCode::kReplicaStatus, request_id,
              WireStatus::kProtocolError, "malformed ReplicaStatus payload");
    return;
  }
  Collection* collection = Find(name);
  if (collection == nullptr) {
    SendError(conn, OpCode::kReplicaStatus, request_id, WireStatus::kNotFound,
              "no collection named \"" + name + "\"");
    return;
  }
  std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
  if (options_.replication_report) {
    const ReplicationReport report = options_.replication_report();
    wire::PutU8(&body, 1);  // role: replica
    wire::PutString(&body, report.primary);
    wire::PutU64(&body, replication_records_shipped_.load());
    wire::PutU64(&body, report.records_applied);
    wire::PutU32(&body, static_cast<uint32_t>(report.shards.size()));
    for (const ReplicationShardReport& s : report.shards) {
      wire::PutU64(&body, s.applied_lsn);
      wire::PutU64(&body, s.primary_lsn);
    }
  } else {
    // Primary: its own applied LSNs are both sides of the lag equation.
    const std::vector<uint64_t> lsns = collection->ShardAppliedLsns();
    wire::PutU8(&body, 0);  // role: primary
    wire::PutString(&body, "");
    wire::PutU64(&body, replication_records_shipped_.load());
    wire::PutU64(&body, 0);
    wire::PutU32(&body, static_cast<uint32_t>(lsns.size()));
    for (uint64_t lsn : lsns) {
      wire::PutU64(&body, lsn);
      wire::PutU64(&body, lsn);
    }
  }
  (void)conn->WriteFrame(EncodeFrame(OpCode::kReplicaStatus, request_id, body));
}

void Server::HandleStats(const std::shared_ptr<Connection>& conn,
                         uint64_t request_id) {
  const ServerStats s = Stats();
  std::vector<uint8_t> body = StatusPayload(WireStatus::kOk, "");
  wire::PutU32(&body, static_cast<uint32_t>(collections_.size()));
  for (const auto& [name, collection] : collections_) {
    const CollectionStorageInfo storage = collection->Storage();
    const CollectionDurabilityInfo durable = collection->Durability();
    wire::PutString(&body, name);
    wire::PutU64(&body, collection->size());
    wire::PutU64(&body, collection->epoch());
    wire::PutU32(&body, static_cast<uint32_t>(collection->shards()));
    wire::PutString(&body, storage.kind);
    wire::PutU64(&body, storage.bytes_per_vector);
    wire::PutU64(&body, storage.resident_bytes);
    wire::PutU32(&body, static_cast<uint32_t>(storage.rerank));
    wire::PutU8(&body, durable.enabled ? 1 : 0);
    wire::PutU64(&body, durable.checkpoints);
    wire::PutU64(&body, durable.compactions);
    wire::PutU64(&body, durable.wal_appends);
    wire::PutU64(&body, durable.replayed_records);
    wire::PutF64(&body, durable.recovery_ms);
  }
  wire::PutU64(&body, s.connections_accepted);
  wire::PutU64(&body, s.connections_rejected);
  wire::PutU64(&body, s.connections_active);
  wire::PutU64(&body, s.requests);
  wire::PutU64(&body, s.searches);
  wire::PutU64(&body, s.upserts);
  wire::PutU64(&body, s.deletes);
  wire::PutU64(&body, s.protocol_errors);
  wire::PutU64(&body, s.shed_overload);
  wire::PutU64(&body, s.rejected_deadline);
  wire::PutU64(&body, s.batches_dispatched);
  wire::PutU64(&body, s.batched_queries);
  wire::PutU64(&body, s.max_batch_size);
  wire::PutF64(&body, s.mean_batch_size);
  wire::PutU64(&body, s.replication_subscriptions);
  wire::PutU64(&body, s.replication_records_shipped);
  (void)conn->WriteFrame(EncodeFrame(OpCode::kStats, request_id, body));
}

}  // namespace dblsh::serve
