#ifndef DBLSH_SERVE_PROTOCOL_H_
#define DBLSH_SERVE_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

/// Wire format of the framed-TCP serving protocol (src/serve/).
///
/// Every message — request or response — is one *frame*: a fixed 24-byte
/// header followed by `payload_len` payload bytes. All multi-byte fields
/// are little-endian with fixed widths; floats travel as their IEEE-754
/// bit patterns. The header carries an FNV-1a checksum of the payload so
/// a corrupted or desynchronized stream is detected before any field is
/// trusted.
///
///   offset  size  field
///        0     4  magic            0x48534C44 ("DLSH")
///        4     1  version          kProtocolVersion
///        5     1  op               OpCode (a response echoes its request's)
///        6     2  reserved         must be 0
///        8     8  request_id       echoed verbatim in the response
///       16     4  payload_len      <= ServerOptions::max_payload_bytes
///       20     4  payload_checksum FNV-1a32 over the payload bytes
///
/// Responses start their payload with `u8 status` (WireStatus) and a
/// length-prefixed error message (empty on success); op-specific fields
/// follow only when status == kOk. Per-op payload layouts are documented
/// in docs/API.md; the Encode*/Decode* helpers below are the single
/// source of truth both sides compile against.
namespace dblsh::serve {

/// Frame magic ("DLSH" read as a little-endian u32).
inline constexpr uint32_t kMagic = 0x48534C44u;

/// Protocol version this build speaks; a frame with any other version is
/// rejected with kProtocolError. Version 2 added the kCheckpoint op and
/// the per-collection durability block in the kStats response. Version 3
/// added the replication ops (kSubscribe / kSnapshotChunk / kWalRecords /
/// kReplicaStatus) and the kReadOnly status.
inline constexpr uint8_t kProtocolVersion = 3;

/// Size of the fixed frame header on the wire.
inline constexpr size_t kHeaderBytes = 24;

/// Default cap on payload_len (16 MiB): an oversize length prefix — the
/// classic way a desynchronized or hostile stream makes a server allocate
/// unboundedly — is rejected before any allocation.
inline constexpr uint32_t kDefaultMaxPayloadBytes = 16u << 20;

/// Operation selector of a frame. Responses reuse the request's op.
enum class OpCode : uint8_t {
  kPing = 0,         ///< liveness probe; empty payload both ways
  kSearch = 1,       ///< one k-NN query, dispatched at once
  kSearchBatch = 2,  ///< pre-formed query batch, dispatched as-is
  kUpsert = 3,       ///< insert or replace one vector
  kDelete = 4,       ///< tombstone one id
  kStats = 5,        ///< server + per-collection counters
  kCheckpoint = 6,   ///< durable snapshot + WAL rotation of one collection
  kSubscribe = 7,    ///< follower attaches to one shard's WAL stream
  kSnapshotChunk = 8,  ///< bootstrap: one chunk of a shard snapshot file
  kWalRecords = 9,     ///< a batch of WAL records + primary high watermark
  kReplicaStatus = 10,  ///< replication role + per-shard LSN/lag report
};

/// Typed status of a response frame. kOverloaded and kShuttingDown are
/// *retryable*: the request was shed without side effects and may be
/// resent after backoff. kDeadlineExceeded means the request's budget
/// elapsed before execution started — the index was never touched.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kDeadlineExceeded = 3,
  kOverloaded = 4,
  kShuttingDown = 5,
  kProtocolError = 6,
  kInternal = 7,
  kReadOnly = 8,  ///< write refused by a replica; message = primary address
};

/// FNV-1a 32-bit over `len` bytes — the frame payload checksum (same hash
/// family DbLsh::Save uses for dataset checksums).
inline uint32_t Fnv1a32(const uint8_t* data, size_t len) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

/// Decoded form of the fixed frame header.
struct FrameHeader {
  uint32_t magic = kMagic;
  uint8_t version = kProtocolVersion;
  OpCode op = OpCode::kPing;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_checksum = 0;
};

namespace wire {

/// Appends `v` to `out` in little-endian byte order.
inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
/// Appends a little-endian u16.
inline void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}
/// Appends a little-endian u32.
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
/// Appends a little-endian u64.
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
/// Appends an IEEE-754 float as its little-endian bit pattern.
inline void PutF32(std::vector<uint8_t>* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
}
/// Appends an IEEE-754 double as its little-endian bit pattern.
inline void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}
/// Appends a u16 length prefix followed by the string bytes; `s` must fit
/// in 65535 bytes (collection names and error messages — the encoder
/// truncates rather than overflow the prefix).
inline void PutString(std::vector<uint8_t>* out, const std::string& s) {
  const size_t n = s.size() > 0xFFFF ? 0xFFFF : s.size();
  PutU16(out, static_cast<uint16_t>(n));
  out->insert(out->end(), s.begin(), s.begin() + static_cast<ptrdiff_t>(n));
}

/// Bounds-checked sequential reader over a payload. Every Get* returns
/// false instead of reading past the end, so a truncated or lying payload
/// can never drive an out-of-bounds read.
class Reader {
 public:
  /// Wraps (data, len); the buffer must outlive the reader.
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return len_ - pos_; }

  /// Reads one u8; false at end of payload.
  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  /// Reads a little-endian u16; false on underrun.
  bool GetU16(uint16_t* v) {
    if (remaining() < 2) return false;
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  /// Reads a little-endian u32; false on underrun.
  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *v = out;
    return true;
  }
  /// Reads a little-endian u64; false on underrun.
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *v = out;
    return true;
  }
  /// Reads a float bit pattern; false on underrun.
  bool GetF32(float* v) {
    uint32_t bits;
    if (!GetU32(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  /// Reads a double bit pattern; false on underrun.
  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  /// Reads a u16-length-prefixed string; false on underrun.
  bool GetString(std::string* s) {
    uint16_t n;
    if (!GetU16(&n) || remaining() < n) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  /// Reads `count` packed f32 values; false on underrun. The bound is
  /// checked as `count > remaining() / 4` so an attacker-controlled count
  /// near SIZE_MAX cannot overflow `count * 4` into a passing check (and
  /// a length_error-throwing resize).
  bool GetF32Array(size_t count, std::vector<float>* out) {
    if (count > remaining() / 4) return false;
    out->resize(count);
    // Packed little-endian floats: on every supported target this is a
    // straight copy of the bit patterns.
    std::memcpy(out->data(), data_ + pos_, count * 4);
    pos_ += count * 4;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace wire

/// Serializes a frame (header computed from `payload`) into one
/// contiguous buffer ready for a single write.
inline std::vector<uint8_t> EncodeFrame(OpCode op, uint64_t request_id,
                                        const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  wire::PutU32(&out, kMagic);
  wire::PutU8(&out, kProtocolVersion);
  wire::PutU8(&out, static_cast<uint8_t>(op));
  wire::PutU16(&out, 0);  // reserved
  wire::PutU64(&out, request_id);
  wire::PutU32(&out, static_cast<uint32_t>(payload.size()));
  wire::PutU32(&out, Fnv1a32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Parses the 24 header bytes. Returns false when the magic, version or
/// reserved field is wrong — the stream is not speaking this protocol
/// (or lost sync) and must be dropped, not answered.
inline bool DecodeHeader(const uint8_t* buf, FrameHeader* header) {
  wire::Reader r{buf, kHeaderBytes};
  uint8_t op, version;
  uint16_t reserved;
  if (!r.GetU32(&header->magic) || !r.GetU8(&version) || !r.GetU8(&op) ||
      !r.GetU16(&reserved) || !r.GetU64(&header->request_id) ||
      !r.GetU32(&header->payload_len) || !r.GetU32(&header->payload_checksum)) {
    return false;
  }
  header->version = version;
  header->op = static_cast<OpCode>(op);
  return header->magic == kMagic && version == kProtocolVersion &&
         reserved == 0;
}

/// True for the shed statuses a client may retry after backoff.
inline bool IsRetryable(WireStatus status) {
  return status == WireStatus::kOverloaded ||
         status == WireStatus::kShuttingDown;
}

/// Maps a wire status (+ message) onto the library's Status vocabulary:
/// kOverloaded / kShuttingDown become Status::Unavailable (retryable()),
/// kDeadlineExceeded keeps its typed code.
inline Status ToStatus(WireStatus status, const std::string& message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kNotFound:
      return Status::NotFound(message);
    case WireStatus::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case WireStatus::kOverloaded:
      return Status::Unavailable("overloaded: " + message);
    case WireStatus::kShuttingDown:
      return Status::Unavailable("shutting down: " + message);
    case WireStatus::kProtocolError:
      return Status::Corruption("protocol error: " + message);
    case WireStatus::kInternal:
      return Status::Internal(message);
    case WireStatus::kReadOnly:
      return Status::ReadOnly(message);
  }
  return Status::Internal("unknown wire status");
}

/// Maps a library Status onto the wire vocabulary (inverse of ToStatus
/// for the codes the serving layer emits).
inline WireStatus FromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
    case StatusCode::kUnavailable:
      return WireStatus::kOverloaded;
    case StatusCode::kCorruption:
      return WireStatus::kProtocolError;
    case StatusCode::kReadOnly:
      return WireStatus::kReadOnly;
    default:
      return WireStatus::kInternal;
  }
}

}  // namespace dblsh::serve

#endif  // DBLSH_SERVE_PROTOCOL_H_
