// Persistence for DbLsh. Format (host-endian, version 4):
//   magic "DBLSHIDX" | u32 version | u8 storage tag (StorageKind)
//   u64 n | u64 dim | u64 data_checksum (FNV-1a; see below)
//   sq8 only: dim f32 scales | dim f32 offsets (the store's quantization
//   parameters, so LoadStore can re-encode the original dataset exactly)
//   pq only (version >= 4): u32 m | 256*dim f32 codebooks (the trained
//   sub-quantizer centroids, so LoadStore can re-encode exactly)
//   f64 c | f64 w0 | u64 k | u64 l | u64 t | u64 seed | u8 bucketing
//   u8 backend | f64 auto_r0 | f64 early_stop_slack
//   directions matrix (u64 rows, u64 cols, floats)
//   grid offsets (u64 count, floats)
//   l projected matrices (u64 rows, u64 cols, floats each)
//   tombstones: u64 count | u32 ids in erasure order (the free-list stack)
// Version 3 files are identical minus the pq storage variant; version 2
// files additionally lack the storage tag and quantization parameters
// (implicitly fp32). Both still load.
// The R*-trees are rebuilt by STR bulk loading at load time: they are a
// deterministic function of the projected matrices, bulk loading is fast
// (the paper's own construction path), and the file stays portable.
// The checksum pins the index to the exact dataset bytes it was saved
// over: for fp32 storage it covers the raw float payload; for sq8/pq the
// fp32 payload is released, so it covers the store's u8 codes instead —
// both are stable across erase-only mutations (EraseRow touches neither).
// A wrong/reordered/edited dataset is rejected with InvalidArgument
// instead of silently serving wrong neighbors. Tombstones are re-applied
// to the caller's dataset on load, restoring the free-list in its
// original order so InsertRow keeps recycling deterministically.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "core/db_lsh.h"

namespace dblsh {

namespace {

constexpr char kMagic[8] = {'D', 'B', 'L', 'S', 'H', 'I', 'D', 'X'};
constexpr uint32_t kVersion = 4;
constexpr uint32_t kVersionSq8 = 3;       // pre-PQ format (fp32/sq8 only)
constexpr uint32_t kVersionFp32Only = 2;  // pre-VectorStore format

// FNV-1a: cheap, order-sensitive, byte-exact.
uint64_t Fnv1a(const unsigned char* bytes, size_t count) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < count; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Checksum over the matrix's raw float payload (fp32 storage): stable
// across erase-only mutations (EraseRow never touches row bytes).
uint64_t DataChecksum(const FloatMatrix& m) {
  return Fnv1a(reinterpret_cast<const unsigned char*>(m.data().data()),
               m.data().size() * sizeof(float));
}

// Checksum over the store's u8 codes (sq8/pq storage, payload released).
uint64_t CodesChecksum(const Sq8Store& store) {
  return Fnv1a(store.codes().data(), store.codes().size());
}

uint64_t CodesChecksum(const PqStore& store) {
  return Fnv1a(store.codes().data(), store.codes().size());
}

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(value), sizeof(T)));
}

/// Bytes between the read position and the end of the file. Every length
/// field is checked against it before anything is allocated, so a flipped
/// bit in a count fails as Corruption instead of a huge allocation.
uint64_t BytesLeft(std::ifstream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return here < 0 || end < here ? 0 : static_cast<uint64_t>(end - here);
}

/// True when `count` items of `item_bytes` each fit in the rest of the file.
bool FitsInFile(std::ifstream& in, uint64_t count, uint64_t item_bytes) {
  return count <= BytesLeft(in) / item_bytes;
}

/// Reads `count` floats, rejecting a short read and any NaN/inf: a saved
/// index never holds one, and the trees and grids built from these values
/// assume ordered, finite coordinates.
Status ReadFloats(std::ifstream& in, uint64_t count, const std::string& what,
                  std::vector<float>* out) {
  if (!FitsInFile(in, count, sizeof(float))) {
    return Status::Corruption(what + " truncated");
  }
  out->resize(count);
  if (!in.read(reinterpret_cast<char*>(out->data()),
               static_cast<std::streamsize>(count * sizeof(float)))) {
    return Status::Corruption(what + " truncated");
  }
  for (const float v : *out) {
    if (!std::isfinite(v)) {
      return Status::Corruption(what + " holds a non-finite value");
    }
  }
  return Status::OK();
}

void WriteMatrix(std::ofstream& out, const FloatMatrix& m) {
  WritePod<uint64_t>(out, m.rows());
  WritePod<uint64_t>(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data().data()),
            static_cast<std::streamsize>(m.data().size() * sizeof(float)));
}

Result<FloatMatrix> ReadMatrix(std::ifstream& in, const std::string& what) {
  uint64_t rows = 0, cols = 0;
  if (!ReadPod(in, &rows) || !ReadPod(in, &cols)) {
    return Status::Corruption("truncated " + what + " header");
  }
  uint64_t count = 0;
  if (rows == 0 || cols == 0 || __builtin_mul_overflow(rows, cols, &count)) {
    return Status::Corruption("implausible " + what + " shape");
  }
  std::vector<float> values;
  DBLSH_RETURN_IF_ERROR(ReadFloats(in, count, what + " payload", &values));
  return FloatMatrix(rows, cols, std::move(values));
}

/// Everything up to (and including) the storage-dependent prefix: format
/// version, storage tag, dataset shape, checksum, and — for sq8/pq — the
/// saved quantization parameters.
struct StorageHeader {
  uint32_t version = 0;
  StorageKind storage = StorageKind::kFp32;
  uint64_t n = 0;
  uint64_t dim = 0;
  uint64_t checksum = 0;
  std::vector<float> scale;      // sq8 only, dim entries
  std::vector<float> offset;     // sq8 only, dim entries
  uint32_t pq_m = 0;             // pq only
  std::vector<float> codebooks;  // pq only, 256*dim entries
};

Status ReadStorageHeader(std::ifstream& in, const std::string& path,
                         StorageHeader* header) {
  char magic[8];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + ": not a DB-LSH index file");
  }
  if (!ReadPod(in, &header->version) ||
      (header->version != kVersion && header->version != kVersionSq8 &&
       header->version != kVersionFp32Only)) {
    return Status::Corruption(path + ": unsupported index version");
  }
  if (header->version >= kVersionSq8) {
    uint8_t tag = 0;
    if (!ReadPod(in, &tag)) {
      return Status::Corruption(path + ": truncated storage tag");
    }
    if (tag > static_cast<uint8_t>(StorageKind::kPq)) {
      return Status::Corruption(path + ": unknown storage backend tag");
    }
    if (tag == static_cast<uint8_t>(StorageKind::kPq) &&
        header->version < kVersion) {
      return Status::Corruption(path +
                                ": pq storage requires format version 4");
    }
    header->storage = static_cast<StorageKind>(tag);
  }
  if (!ReadPod(in, &header->n) || !ReadPod(in, &header->dim) ||
      !ReadPod(in, &header->checksum)) {
    return Status::Corruption(path + ": truncated header");
  }
  if (header->storage == StorageKind::kSq8) {
    if (header->dim == 0 || header->dim > (1ULL << 24)) {
      return Status::Corruption(path + ": implausible dimensionality");
    }
    DBLSH_RETURN_IF_ERROR(ReadFloats(
        in, header->dim, path + ": quantization scales", &header->scale));
    DBLSH_RETURN_IF_ERROR(ReadFloats(
        in, header->dim, path + ": quantization offsets", &header->offset));
  } else if (header->storage == StorageKind::kPq) {
    if (header->dim == 0 || header->dim > (1ULL << 24)) {
      return Status::Corruption(path + ": implausible dimensionality");
    }
    if (!ReadPod(in, &header->pq_m) || header->pq_m == 0 ||
        header->pq_m > header->dim) {
      return Status::Corruption(path + ": invalid pq subspace count");
    }
    DBLSH_RETURN_IF_ERROR(ReadFloats(in, 256 * header->dim,
                                     path + ": pq codebooks",
                                     &header->codebooks));
  }
  return Status::OK();
}

}  // namespace

Status DbLsh::Save(const std::string& path) const {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Save() requires a built index");
  }
  // Storage backend of the dataset: a quantized store bound to the matrix
  // means the fp32 payload is released — checksum the codes and persist
  // the quantization parameters so LoadStore can reconstruct the store.
  const Sq8Store* sq8 = nullptr;
  const PqStore* pq = nullptr;
  StorageKind tag = StorageKind::kFp32;
  if (data_->store() != nullptr) {
    tag = data_->store()->storage_kind();
    if (tag == StorageKind::kSq8) {
      sq8 = static_cast<const Sq8Store*>(data_->store());
    } else if (tag == StorageKind::kPq) {
      pq = static_cast<const PqStore*>(data_->store());
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");

  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod<uint8_t>(out, static_cast<uint8_t>(tag));
  WritePod<uint64_t>(out, data_->rows());
  WritePod<uint64_t>(out, data_->cols());
  WritePod<uint64_t>(out, sq8 != nullptr  ? CodesChecksum(*sq8)
                          : pq != nullptr ? CodesChecksum(*pq)
                                          : DataChecksum(*data_));
  if (sq8 != nullptr) {
    const std::streamsize bytes =
        static_cast<std::streamsize>(data_->cols() * sizeof(float));
    out.write(reinterpret_cast<const char*>(sq8->scales().data()), bytes);
    out.write(reinterpret_cast<const char*>(sq8->offsets().data()), bytes);
  } else if (pq != nullptr) {
    WritePod<uint32_t>(out, static_cast<uint32_t>(pq->m()));
    out.write(reinterpret_cast<const char*>(pq->codebooks().data()),
              static_cast<std::streamsize>(pq->codebooks().size() *
                                           sizeof(float)));
  }
  WritePod<double>(out, params_.c);
  WritePod<double>(out, params_.w0);
  WritePod<uint64_t>(out, params_.k);
  WritePod<uint64_t>(out, params_.l);
  WritePod<uint64_t>(out, params_.t);
  WritePod<uint64_t>(out, params_.seed);
  WritePod<uint8_t>(out, static_cast<uint8_t>(params_.bucketing));
  WritePod<uint8_t>(out, static_cast<uint8_t>(params_.backend));
  WritePod<double>(out, auto_r0_);
  WritePod<double>(out, params_.early_stop_slack);
  WriteMatrix(out, bank_->directions());
  WritePod<uint64_t>(out, grid_offsets_.size());
  out.write(reinterpret_cast<const char*>(grid_offsets_.data()),
            static_cast<std::streamsize>(grid_offsets_.size() *
                                         sizeof(float)));
  for (const FloatMatrix& space : projected_) WriteMatrix(out, space);
  const std::vector<uint32_t>& tombstones = data_->free_slots();
  WritePod<uint64_t>(out, tombstones.size());
  out.write(reinterpret_cast<const char*>(tombstones.data()),
            static_cast<std::streamsize>(tombstones.size() *
                                         sizeof(uint32_t)));
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<DbLsh> DbLsh::LoadIndexBody(std::ifstream& in,
                                   const std::string& path, uint64_t n,
                                   uint64_t dim, FloatMatrix* data,
                                   VectorStore* store) {
  DbLshParams params;
  uint64_t k = 0, l = 0, t = 0, seed = 0;
  uint8_t bucketing = 0, backend = 0;
  double auto_r0 = 1.0;
  if (!ReadPod(in, &params.c) || !ReadPod(in, &params.w0) ||
      !ReadPod(in, &k) || !ReadPod(in, &l) || !ReadPod(in, &t) ||
      !ReadPod(in, &seed) || !ReadPod(in, &bucketing) ||
      !ReadPod(in, &backend) || !ReadPod(in, &auto_r0) ||
      !ReadPod(in, &params.early_stop_slack)) {
    return Status::Corruption(path + ": truncated parameters");
  }
  params.k = k;
  params.l = l;
  params.t = t;
  params.seed = seed;
  params.bucketing = static_cast<BucketingMode>(bucketing);
  params.backend = static_cast<IndexBackend>(backend);
  // NaN slips through `c <= 1.0`-style checks, so non-finite values are
  // rejected outright; l * k must not wrap.
  const bool finite = std::isfinite(params.c) && std::isfinite(params.w0) &&
                      std::isfinite(auto_r0);
  uint64_t projections = 0;
  if (!finite || !(params.c > 1.0) || !(params.w0 > 0.0) ||
      !(auto_r0 > 0.0) || !(params.early_stop_slack >= 1.0) || l == 0 ||
      k == 0 || __builtin_mul_overflow(l, k, &projections) ||
      bucketing > static_cast<uint8_t>(BucketingMode::kFixedGrid) ||
      backend > static_cast<uint8_t>(IndexBackend::kKdTree)) {
    return Status::Corruption(path + ": invalid stored parameters");
  }

  auto directions = ReadMatrix(in, "projection directions");
  if (!directions.ok()) return directions.status();
  if (directions.value().rows() != projections ||
      directions.value().cols() != dim) {
    return Status::Corruption(path + ": direction matrix shape mismatch");
  }

  uint64_t offset_count = 0;
  if (!ReadPod(in, &offset_count) || offset_count != projections) {
    return Status::Corruption(path + ": grid offset count mismatch");
  }
  std::vector<float> grid_offsets;
  DBLSH_RETURN_IF_ERROR(
      ReadFloats(in, offset_count, path + ": grid offsets", &grid_offsets));

  DbLsh index(params);
  index.data_ = data;
  index.auto_r0_ = auto_r0;
  index.bank_ =
      std::make_unique<lsh::ProjectionBank>(std::move(directions).value());
  index.grid_offsets_ = std::move(grid_offsets);
  index.projected_.reserve(params.l);
  for (size_t i = 0; i < params.l; ++i) {
    auto space = ReadMatrix(in, "projected space");
    if (!space.ok()) return space.status();
    if (space.value().rows() != n || space.value().cols() != params.k) {
      return Status::Corruption(path + ": projected space shape mismatch");
    }
    index.projected_.push_back(std::move(space).value());
  }
  uint64_t tombstone_count = 0;
  if (!ReadPod(in, &tombstone_count) || tombstone_count > n ||
      !FitsInFile(in, tombstone_count, sizeof(uint32_t))) {
    return Status::Corruption(path + ": truncated/implausible tombstones");
  }
  std::vector<uint32_t> tombstones(tombstone_count);
  if (tombstone_count > 0 &&
      !in.read(reinterpret_cast<char*>(tombstones.data()),
               static_cast<std::streamsize>(tombstone_count *
                                            sizeof(uint32_t)))) {
    return Status::Corruption(path + ": truncated tombstone ids");
  }
  // Every id is checked before any is applied: a Corruption return must
  // leave the caller's dataset untouched.
  for (uint32_t id : tombstones) {
    if (id >= n) return Status::Corruption(path + ": tombstone id range");
  }
  // Re-apply in erasure order so the dataset's free-list stack matches the
  // saved state exactly (InsertRow recycles the same slots in the same
  // order as it would have before the save).
  for (uint32_t id : tombstones) {
    if (!data->IsDeleted(id)) {
      DBLSH_RETURN_IF_ERROR(store != nullptr ? store->EraseRow(id)
                                             : data->EraseRow(id));
    }
  }
  if (params.backend == IndexBackend::kRStarTree) {
    // Bulk load live rows only: tombstoned slots stay out of the trees, so
    // post-load Erase/InsertRow slot recycling behaves as before the save.
    std::vector<uint32_t> live;
    live.reserve(data->live_rows());
    for (uint32_t id = 0; id < n; ++id) {
      if (!data->IsDeleted(id)) live.push_back(id);
    }
    index.trees_.reserve(params.l);
    for (size_t i = 0; i < params.l; ++i) {
      index.trees_.emplace_back(&index.projected_[i], params.rtree_options);
      DBLSH_RETURN_IF_ERROR(index.trees_.back().BulkLoad(live));
    }
  } else {
    index.kd_trees_.reserve(params.l);
    for (size_t i = 0; i < params.l; ++i) {
      index.kd_trees_.push_back(
          std::make_unique<kdtree::KdTree>(&index.projected_[i]));
    }
  }
  return index;
}

namespace {

Status CheckShape(const std::string& path, const StorageHeader& header,
                  const FloatMatrix& data) {
  if (header.n != data.rows() || header.dim != data.cols()) {
    return Status::InvalidArgument(
        path + ": index was built over a different dataset (" +
        std::to_string(header.n) + "x" + std::to_string(header.dim) +
        " vs " + std::to_string(data.rows()) + "x" +
        std::to_string(data.cols()) + ")");
  }
  return Status::OK();
}

}  // namespace

Result<DbLsh> DbLsh::Load(const std::string& path, FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("Load() requires the backing dataset");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);

  StorageHeader header;
  DBLSH_RETURN_IF_ERROR(ReadStorageHeader(in, path, &header));
  if (header.storage != StorageKind::kFp32) {
    return Status::InvalidArgument(
        path + ": index was saved over " +
        std::string(StorageKindName(header.storage)) +
        " storage; restore its store with DbLsh::LoadStore and use the "
        "Load(path, VectorStore*) overload");
  }
  DBLSH_RETURN_IF_ERROR(CheckShape(path, header, *data));
  if (header.checksum != DataChecksum(*data)) {
    return Status::InvalidArgument(
        path + ": dataset content checksum mismatch — the provided data is "
               "not the dataset this index was saved over");
  }
  return LoadIndexBody(in, path, header.n, header.dim, data, nullptr);
}

Result<std::unique_ptr<VectorStore>> DbLsh::LoadStore(
    const std::string& path, std::unique_ptr<FloatMatrix> data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("LoadStore() requires the backing dataset");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);

  StorageHeader header;
  DBLSH_RETURN_IF_ERROR(ReadStorageHeader(in, path, &header));
  DBLSH_RETURN_IF_ERROR(CheckShape(path, header, *data));
  if (header.storage == StorageKind::kFp32) {
    if (header.checksum != DataChecksum(*data)) {
      return Status::InvalidArgument(
          path + ": dataset content checksum mismatch — the provided data "
                 "is not the dataset this index was saved over");
    }
    return std::unique_ptr<VectorStore>(
        std::make_unique<Fp32Store>(std::move(data)));
  }
  if (header.storage == StorageKind::kPq) {
    // pq: re-encode against the *saved* codebooks (not re-training), then
    // require the resulting codes to be byte-identical to the saved state.
    auto store = std::make_unique<PqStore>(std::move(data), header.pq_m,
                                           std::move(header.codebooks));
    if (header.checksum != CodesChecksum(*store)) {
      return Status::InvalidArgument(
          path + ": quantized code checksum mismatch — the provided data "
                 "is not the dataset this index was saved over");
    }
    return std::unique_ptr<VectorStore>(std::move(store));
  }
  // sq8: re-encode with the *saved* parameters (not re-training, which
  // would drift if the dataset was mutated after the store trained), then
  // require the resulting codes to be byte-identical to the saved state.
  auto store = std::make_unique<Sq8Store>(std::move(data), header.scale,
                                          header.offset);
  if (header.checksum != CodesChecksum(*store)) {
    return Status::InvalidArgument(
        path + ": quantized code checksum mismatch — the provided data is "
               "not the dataset this index was saved over");
  }
  return std::unique_ptr<VectorStore>(std::move(store));
}

Result<DbLsh> DbLsh::Load(const std::string& path, VectorStore* store) {
  if (store == nullptr || store->matrix().rows() == 0) {
    return Status::InvalidArgument("Load() requires the backing store");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);

  StorageHeader header;
  DBLSH_RETURN_IF_ERROR(ReadStorageHeader(in, path, &header));
  if (header.storage != store->storage_kind()) {
    return Status::InvalidArgument(
        path + ": index was saved over " +
        std::string(StorageKindName(header.storage)) +
        " storage but the provided store is " + store->kind_name());
  }
  FloatMatrix& data = store->matrix();
  DBLSH_RETURN_IF_ERROR(CheckShape(path, header, data));
  if (header.storage == StorageKind::kSq8) {
    const auto& sq8 = *static_cast<const Sq8Store*>(store);
    if (header.scale != sq8.scales() || header.offset != sq8.offsets()) {
      return Status::InvalidArgument(
          path + ": quantization parameters do not match the provided "
                 "store (different training data or a mutated store)");
    }
    if (header.checksum != CodesChecksum(sq8)) {
      return Status::InvalidArgument(
          path + ": quantized code checksum mismatch — the provided store "
                 "does not hold the dataset this index was saved over");
    }
  } else if (header.storage == StorageKind::kPq) {
    const auto& pq = *static_cast<const PqStore*>(store);
    if (header.pq_m != pq.m() || header.codebooks != pq.codebooks()) {
      return Status::InvalidArgument(
          path + ": quantization parameters do not match the provided "
                 "store (different training data or a mutated store)");
    }
    if (header.checksum != CodesChecksum(pq)) {
      return Status::InvalidArgument(
          path + ": quantized code checksum mismatch — the provided store "
                 "does not hold the dataset this index was saved over");
    }
  } else if (header.checksum != DataChecksum(data)) {
    return Status::InvalidArgument(
        path + ": dataset content checksum mismatch — the provided data is "
               "not the dataset this index was saved over");
  }
  return LoadIndexBody(in, path, header.n, header.dim, &data, store);
}

}  // namespace dblsh
