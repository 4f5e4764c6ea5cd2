#include "serve/client.h"

#include <utility>

#include "serve/net.h"

namespace dblsh::serve {

namespace {

// Decodes the status + message prefix every response payload begins with.
bool ReadStatusPrefix(wire::Reader* r, WireStatus* status,
                      std::string* message) {
  uint8_t code;
  if (!r->GetU8(&code) || !r->GetString(message)) return false;
  *status = static_cast<WireStatus>(code);
  return true;
}

// Decodes one QueryResponse body (neighbors + stats) as the server wrote
// it in AppendResponseBody.
bool ReadResponseBody(wire::Reader* r, QueryResponse* response) {
  uint32_t nn;
  if (!r->GetU32(&nn)) return false;
  response->neighbors.resize(nn);
  for (uint32_t i = 0; i < nn; ++i) {
    if (!r->GetU32(&response->neighbors[i].id) ||
        !r->GetF32(&response->neighbors[i].dist)) {
      return false;
    }
  }
  uint64_t candidates;
  if (!r->GetU64(&candidates)) return false;
  response->stats.candidates_verified = candidates;
  return true;
}

// Encodes the shared (name, k, deadline, budget, r0) head of Search /
// SearchBatch requests.
void PutSearchHead(std::vector<uint8_t>* out, const std::string& collection,
                   const QueryRequest& request, uint32_t deadline_us) {
  wire::PutString(out, collection);
  wire::PutU32(out, static_cast<uint32_t>(request.k));
  wire::PutU32(out, deadline_us);
  wire::PutU32(out, static_cast<uint32_t>(request.candidate_budget));
  wire::PutF64(out, request.r0);
}

Status ProtocolError(const std::string& what) {
  return Status::Corruption("protocol error: " + what);
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                const ClientOptions& options) {
  InstallSigpipeGuard();
  auto fd = ConnectTcp(host, port, options.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<Client>(
      new Client(fd.value(), options.max_payload_bytes));
}

Client::~Client() { CloseFd(fd_); }

Status Client::SendFrame(OpCode op, uint64_t request_id,
                         const std::vector<uint8_t>& payload) {
  const auto frame = EncodeFrame(op, request_id, payload);
  std::lock_guard lock(send_mutex_);
  return WriteFull(fd_, frame.data(), frame.size());
}

Status Client::ReceiveFrame(FrameHeader* header,
                            std::vector<uint8_t>* payload,
                            const std::atomic<bool>* stop) {
  std::lock_guard lock(recv_mutex_);
  uint8_t header_buf[kHeaderBytes];
  Status s = ReadFull(fd_, header_buf, kHeaderBytes, stop);
  if (!s.ok()) return s;
  if (!DecodeHeader(header_buf, header)) {
    return ProtocolError("bad response header");
  }
  if (header->payload_len > max_payload_bytes_) {
    // Mirror the server's oversize-length gate: reject before allocating
    // so a misbehaving peer cannot force a multi-GiB buffer.
    return ProtocolError("response payload length " +
                         std::to_string(header->payload_len) +
                         " exceeds limit");
  }
  payload->resize(header->payload_len);
  if (header->payload_len > 0) {
    s = ReadFull(fd_, payload->data(), payload->size(), stop);
    if (!s.ok()) return s;
  }
  if (Fnv1a32(payload->data(), payload->size()) != header->payload_checksum) {
    return ProtocolError("response checksum mismatch");
  }
  return Status::OK();
}

Status Client::Call(OpCode op, const std::vector<uint8_t>& request,
                    std::vector<uint8_t>* response) {
  uint64_t id;
  {
    std::lock_guard lock(send_mutex_);
    id = next_id_++;
    const auto frame = EncodeFrame(op, id, request);
    Status s = WriteFull(fd_, frame.data(), frame.size());
    if (!s.ok()) return s;
  }
  FrameHeader header;
  Status s = ReceiveFrame(&header, response);
  if (!s.ok()) return s;
  if (header.request_id == 0) {
    // Connection-level frame: the server shed this connection at its
    // capacity limit before any request was served.
    wire::Reader r(response->data(), response->size());
    WireStatus status;
    std::string message;
    if (ReadStatusPrefix(&r, &status, &message)) {
      return ToStatus(status, message);
    }
    return ProtocolError("unparseable connection-level frame");
  }
  if (header.request_id != id || header.op != op) {
    return ProtocolError("response does not match request");
  }
  return Status::OK();
}

Status Client::Ping() {
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kPing, {}, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Ping response");
  }
  return ToStatus(status, message);
}

Result<SearchReply> Client::Search(const std::string& collection,
                                   const float* query, size_t dim,
                                   const QueryRequest& request,
                                   uint32_t deadline_us) {
  std::vector<uint8_t> payload;
  PutSearchHead(&payload, collection, request, deadline_us);
  wire::PutU32(&payload, static_cast<uint32_t>(dim));
  for (size_t i = 0; i < dim; ++i) wire::PutF32(&payload, query[i]);
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kSearch, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Search response");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  SearchReply reply;
  if (!ReadResponseBody(&r, &reply.response) || !r.GetU32(&reply.batch_size)) {
    return ProtocolError("malformed Search response body");
  }
  return reply;
}

Result<std::vector<QueryResponse>> Client::SearchBatch(
    const std::string& collection, const FloatMatrix& queries,
    const QueryRequest& request, uint32_t deadline_us) {
  std::vector<uint8_t> payload;
  PutSearchHead(&payload, collection, request, deadline_us);
  wire::PutU32(&payload, static_cast<uint32_t>(queries.rows()));
  wire::PutU32(&payload, static_cast<uint32_t>(queries.cols()));
  for (size_t i = 0; i < queries.rows(); ++i) {
    const float* row = queries.row(i);
    for (size_t j = 0; j < queries.cols(); ++j) wire::PutF32(&payload, row[j]);
  }
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kSearchBatch, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed SearchBatch response");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  uint32_t count;
  if (!r.GetU32(&count)) {
    return ProtocolError("malformed SearchBatch response body");
  }
  std::vector<QueryResponse> responses(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!ReadResponseBody(&r, &responses[i])) {
      return ProtocolError("malformed SearchBatch response body");
    }
  }
  return responses;
}

Result<uint32_t> Client::Upsert(const std::string& collection,
                                const float* vec, size_t dim) {
  std::vector<uint8_t> payload;
  wire::PutString(&payload, collection);
  wire::PutU8(&payload, 0);   // no explicit id
  wire::PutU32(&payload, 0);  // id slot (ignored)
  wire::PutU32(&payload, static_cast<uint32_t>(dim));
  for (size_t i = 0; i < dim; ++i) wire::PutF32(&payload, vec[i]);
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kUpsert, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  uint32_t id;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Upsert response");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  if (!r.GetU32(&id)) return ProtocolError("malformed Upsert response body");
  return id;
}

Result<uint32_t> Client::Upsert(const std::string& collection, uint32_t id,
                                const float* vec, size_t dim) {
  std::vector<uint8_t> payload;
  wire::PutString(&payload, collection);
  wire::PutU8(&payload, 1);  // explicit id
  wire::PutU32(&payload, id);
  wire::PutU32(&payload, static_cast<uint32_t>(dim));
  for (size_t i = 0; i < dim; ++i) wire::PutF32(&payload, vec[i]);
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kUpsert, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  uint32_t assigned;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Upsert response");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  if (!r.GetU32(&assigned)) {
    return ProtocolError("malformed Upsert response body");
  }
  return assigned;
}

Status Client::Delete(const std::string& collection, uint32_t id) {
  std::vector<uint8_t> payload;
  wire::PutString(&payload, collection);
  wire::PutU32(&payload, id);
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kDelete, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Delete response");
  }
  return ToStatus(status, message);
}

Result<RemoteStats> Client::Stats() {
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kStats, {}, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Stats response");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  RemoteStats stats;
  uint32_t num_collections;
  if (!r.GetU32(&num_collections)) {
    return ProtocolError("malformed Stats response body");
  }
  stats.collections.resize(num_collections);
  for (uint32_t i = 0; i < num_collections; ++i) {
    RemoteCollectionStats& c = stats.collections[i];
    uint8_t durable = 0;
    if (!r.GetString(&c.name) || !r.GetU64(&c.live_vectors) ||
        !r.GetU64(&c.epoch) || !r.GetU32(&c.shards) ||
        !r.GetString(&c.storage) || !r.GetU64(&c.bytes_per_vector) ||
        !r.GetU64(&c.resident_bytes) || !r.GetU32(&c.rerank) ||
        !r.GetU8(&durable) || !r.GetU64(&c.checkpoints) ||
        !r.GetU64(&c.compactions) || !r.GetU64(&c.wal_appends) ||
        !r.GetU64(&c.replayed_records) || !r.GetF64(&c.recovery_ms)) {
      return ProtocolError("malformed Stats response body");
    }
    c.durable = durable != 0;
  }
  ServerStats& sv = stats.server;
  if (!r.GetU64(&sv.connections_accepted) ||
      !r.GetU64(&sv.connections_rejected) ||
      !r.GetU64(&sv.connections_active) || !r.GetU64(&sv.requests) ||
      !r.GetU64(&sv.searches) || !r.GetU64(&sv.upserts) ||
      !r.GetU64(&sv.deletes) || !r.GetU64(&sv.protocol_errors) ||
      !r.GetU64(&sv.shed_overload) || !r.GetU64(&sv.rejected_deadline) ||
      !r.GetU64(&sv.batches_dispatched) || !r.GetU64(&sv.batched_queries) ||
      !r.GetU64(&sv.max_batch_size) || !r.GetF64(&sv.mean_batch_size) ||
      !r.GetU64(&sv.replication_subscriptions) ||
      !r.GetU64(&sv.replication_records_shipped)) {
    return ProtocolError("malformed Stats response body");
  }
  return stats;
}

Status Client::Checkpoint(const std::string& collection) {
  std::vector<uint8_t> payload;
  wire::PutString(&payload, collection);
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kCheckpoint, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Checkpoint response");
  }
  return ToStatus(status, message);
}

Status Client::Subscribe(const std::string& collection, uint32_t shard,
                         uint64_t from_lsn, bool need_snapshot,
                         SubscribeAck* ack) {
  std::vector<uint8_t> payload;
  wire::PutString(&payload, collection);
  wire::PutU32(&payload, shard);
  wire::PutU64(&payload, from_lsn);
  wire::PutU8(&payload, need_snapshot ? 1 : 0);
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kSubscribe, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed Subscribe response");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  if (!r.GetU32(&ack->shards) || !r.GetU32(&ack->dim) ||
      !r.GetU8(&ack->storage) || !r.GetU8(&ack->mode) ||
      !r.GetU64(&ack->snapshot_lsn) || !r.GetU64(&ack->shard_lsn)) {
    return ProtocolError("malformed Subscribe response body");
  }
  return Status::OK();
}

Status Client::ReceiveReplicationEvent(uint32_t dim, ReplicationEvent* event,
                                       const std::atomic<bool>* stop) {
  FrameHeader header;
  std::vector<uint8_t> payload;
  Status s = ReceiveFrame(&header, &payload, stop);
  if (!s.ok()) return s;
  wire::Reader r(payload.data(), payload.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed replication stream frame");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  if (header.op == OpCode::kSnapshotChunk) {
    event->kind = ReplicationEvent::Kind::kSnapshotChunk;
    uint8_t last;
    uint32_t len;
    if (!r.GetU32(&event->shard) || !r.GetU64(&event->total_bytes) ||
        !r.GetU64(&event->offset) || !r.GetU8(&last) || !r.GetU32(&len) ||
        len > r.remaining()) {
      return ProtocolError("malformed SnapshotChunk frame");
    }
    event->last = last != 0;
    event->bytes.resize(len);
    for (uint32_t i = 0; i < len; ++i) (void)r.GetU8(&event->bytes[i]);
    return Status::OK();
  }
  if (header.op == OpCode::kWalRecords) {
    event->kind = ReplicationEvent::Kind::kWalRecords;
    uint32_t count;
    if (!r.GetU32(&event->shard) || !r.GetU64(&event->watermark_lsn) ||
        !r.GetU32(&count)) {
      return ProtocolError("malformed WalRecords frame");
    }
    event->records.clear();
    event->records.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      durability::WalRecord rec;
      uint8_t op;
      if (!r.GetU64(&rec.lsn) || !r.GetU8(&op) || !r.GetU32(&rec.id)) {
        return ProtocolError("malformed WalRecords frame");
      }
      if (op < static_cast<uint8_t>(durability::WalOp::kUpsert) ||
          op > static_cast<uint8_t>(durability::WalOp::kRetrain)) {
        return ProtocolError("unknown wal op " + std::to_string(op) +
                             " in WalRecords frame");
      }
      rec.op = static_cast<durability::WalOp>(op);
      if (rec.op == durability::WalOp::kUpsert &&
          !r.GetF32Array(dim, &rec.vec)) {
        return ProtocolError("malformed WalRecords frame");
      }
      event->records.push_back(std::move(rec));
    }
    return Status::OK();
  }
  return ProtocolError("unexpected op " +
                       std::to_string(static_cast<unsigned>(header.op)) +
                       " on replication stream");
}

Result<Client::ReplicaStatusReply> Client::ReplicaStatus(
    const std::string& collection) {
  std::vector<uint8_t> payload;
  wire::PutString(&payload, collection);
  std::vector<uint8_t> response;
  Status s = Call(OpCode::kReplicaStatus, payload, &response);
  if (!s.ok()) return s;
  wire::Reader r(response.data(), response.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed ReplicaStatus response");
  }
  if (status != WireStatus::kOk) return ToStatus(status, message);
  ReplicaStatusReply reply;
  uint32_t nshards;
  if (!r.GetU8(&reply.role) || !r.GetString(&reply.primary) ||
      !r.GetU64(&reply.records_shipped) ||
      !r.GetU64(&reply.records_applied) || !r.GetU32(&nshards)) {
    return ProtocolError("malformed ReplicaStatus response body");
  }
  reply.shards.resize(nshards);
  for (uint32_t i = 0; i < nshards; ++i) {
    if (!r.GetU64(&reply.shards[i].applied_lsn) ||
        !r.GetU64(&reply.shards[i].primary_lsn)) {
      return ProtocolError("malformed ReplicaStatus response body");
    }
  }
  return reply;
}

Result<uint64_t> Client::SendSearch(const std::string& collection,
                                    const float* query, size_t dim,
                                    const QueryRequest& request,
                                    uint32_t deadline_us) {
  std::vector<uint8_t> payload;
  PutSearchHead(&payload, collection, request, deadline_us);
  wire::PutU32(&payload, static_cast<uint32_t>(dim));
  for (size_t i = 0; i < dim; ++i) wire::PutF32(&payload, query[i]);
  std::lock_guard lock(send_mutex_);
  const uint64_t id = next_id_++;
  const auto frame = EncodeFrame(OpCode::kSearch, id, payload);
  Status s = WriteFull(fd_, frame.data(), frame.size());
  if (!s.ok()) return s;
  return id;
}

Result<Client::PipelinedReply> Client::ReceiveSearchReply() {
  FrameHeader header;
  std::vector<uint8_t> payload;
  Status s = ReceiveFrame(&header, &payload);
  if (!s.ok()) return s;
  wire::Reader r(payload.data(), payload.size());
  WireStatus status;
  std::string message;
  if (!ReadStatusPrefix(&r, &status, &message)) {
    return ProtocolError("malformed pipelined response");
  }
  if (header.request_id == 0) {
    // Connection-level shed frame: surface as a connection failure.
    return ToStatus(status, message);
  }
  PipelinedReply reply;
  reply.request_id = header.request_id;
  reply.status = ToStatus(status, message);
  if (status == WireStatus::kOk &&
      (!ReadResponseBody(&r, &reply.reply.response) ||
       !r.GetU32(&reply.reply.batch_size))) {
    return ProtocolError("malformed pipelined response body");
  }
  return reply;
}

}  // namespace dblsh::serve
