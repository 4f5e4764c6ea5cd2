#include "dataset/vector_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "simd/scalar_kernels.h"
#include "simd/simd.h"

namespace dblsh {
namespace {

/// Tombstone bookkeeping bytes a matrix carries (approximate: the lazy
/// deleted_ bitmap is one byte per row once any tombstone exists, the
/// free-list four bytes per entry). Shared by both backends' stats.
size_t MatrixBookkeepingBytes(const FloatMatrix& m) {
  return (m.has_tombstones() ? m.rows() * sizeof(uint8_t) : 0) +
         m.free_slots().size() * sizeof(uint32_t);
}

}  // namespace

const char* StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kFp32:
      return "fp32";
    case StorageKind::kSq8:
      return "sq8";
    case StorageKind::kPq:
      return "pq";
  }
  return "unknown";
}

Result<StorageKind> ParseStorageKind(const std::string& name) {
  if (name == "fp32") return StorageKind::kFp32;
  if (name == "sq8") return StorageKind::kSq8;
  if (name == "pq") return StorageKind::kPq;
  return Status::InvalidArgument(
      "storage backend \"" + name + "\" is not recognized (expected fp32, "
      "sq8 or pq)");
}

VectorStore::VectorStore(std::unique_ptr<FloatMatrix> matrix)
    : matrix_(std::move(matrix)) {
  assert(matrix_ != nullptr);
  matrix_->BindStore(this);
}

VectorStore::~VectorStore() {
  // Unbind defensively: the matrix is destroyed with us, but a caller that
  // moved it out beforehand must not keep a dangling store pointer.
  if (matrix_ != nullptr) matrix_->BindStore(nullptr);
}

// ---------------------------------------------------------------- fp32 ----

Fp32Store::Fp32Store(std::unique_ptr<FloatMatrix> data)
    : VectorStore(std::move(data)) {}

size_t Fp32Store::bytes_per_vector() const {
  return matrix_->cols() * sizeof(float);
}

size_t Fp32Store::resident_bytes() const {
  return matrix_->data().capacity() * sizeof(float) +
         MatrixBookkeepingBytes(*matrix_);
}

uint32_t Fp32Store::InsertRow(const float* values, size_t len) {
  return matrix_->InsertRow(values, len);
}

Status Fp32Store::EraseRow(size_t id) { return matrix_->EraseRow(id); }

size_t Fp32Store::TrimTombstonedTail() {
  return matrix_->TrimTombstonedTail();
}

void Fp32Store::DecodeRow(uint32_t id, float* out) const {
  const float* row = matrix_->row(id);
  std::copy(row, row + matrix_->cols(), out);
}

float Fp32Store::ExactL2Squared(const float* query, uint32_t id) const {
  return simd::Active().l2_squared(query, matrix_->row(id), matrix_->cols());
}

void Fp32Store::PrepareQuery(const float* query,
                             std::vector<float>* prep) const {
  prep->assign(query, query + matrix_->cols());
}

void Fp32Store::ScoreBatch(const float* prep, size_t start,
                           const uint32_t* ids, size_t n, float* out) const {
  const size_t dim = matrix_->cols();
  const float* base = matrix_->data().data();
  if (ids != nullptr) {
    simd::Active().l2_squared_batch(prep, base, dim, ids, n, out);
  } else {
    simd::Active().l2_squared_batch(prep, base + start * dim, dim, nullptr,
                                    n, out);
  }
}

FloatMatrix Fp32Store::DecodedCopy() const {
  return *matrix_;  // the copy drops the store binding by construction
}

// ----------------------------------------------------------------- sq8 ----

Sq8Store::Sq8Store(std::unique_ptr<FloatMatrix> seed)
    : VectorStore(std::move(seed)) {
  const size_t dim = matrix_->cols();
  scale_.assign(dim, 1.0f);
  offset_.assign(dim, 0.0f);
  if (matrix_->rows() > 0) {
    Train(*matrix_);
    codes_.resize(matrix_->rows() * dim);
    for (size_t r = 0; r < matrix_->rows(); ++r) {
      EncodeRow(matrix_->row(r), static_cast<uint32_t>(r));
    }
  }
  matrix_->ReleasePayload();
}

Sq8Store::Sq8Store(std::unique_ptr<FloatMatrix> data,
                   std::vector<float> scale, std::vector<float> offset)
    : VectorStore(std::move(data)),
      scale_(std::move(scale)),
      offset_(std::move(offset)) {
  const size_t dim = matrix_->cols();
  assert(scale_.size() == dim && offset_.size() == dim);
  trained_ = true;
  codes_.resize(matrix_->rows() * dim);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    EncodeRow(matrix_->row(r), static_cast<uint32_t>(r));
  }
  matrix_->ReleasePayload();
}

Sq8Store::Sq8Store(std::unique_ptr<FloatMatrix> shell,
                   std::vector<float> scale, std::vector<float> offset,
                   std::vector<uint8_t> codes, bool trained)
    : VectorStore(std::move(shell)),
      codes_(std::move(codes)),
      scale_(std::move(scale)),
      offset_(std::move(offset)),
      trained_(trained) {
  assert(matrix_->payload_released());
  assert(scale_.size() == matrix_->cols() &&
         offset_.size() == matrix_->cols());
  assert(codes_.size() == matrix_->rows() * matrix_->cols());
}

void Sq8Store::Train(const FloatMatrix& m) {
  const size_t dim = m.cols();
  std::vector<float> lo(dim, std::numeric_limits<float>::max());
  std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
  // Min/max over every physical row — tombstoned slots included, so the
  // parameters do not depend on erasure timing.
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row(r);
    for (size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], row[d]);
      hi[d] = std::max(hi[d], row[d]);
    }
  }
  for (size_t d = 0; d < dim; ++d) {
    offset_[d] = lo[d];
    const float range = hi[d] - lo[d];
    scale_[d] = range > 0.0f ? range / 255.0f : 1.0f;
  }
  trained_ = true;
}

void Sq8Store::EncodeRow(const float* values, uint32_t id) {
  const size_t dim = matrix_->cols();
  uint8_t* out = codes_.data() + static_cast<size_t>(id) * dim;
  for (size_t d = 0; d < dim; ++d) {
    const float level = (values[d] - offset_[d]) / scale_[d];
    const float clamped = std::min(255.0f, std::max(0.0f, level));
    out[d] = static_cast<uint8_t>(std::lround(clamped));
  }
}

size_t Sq8Store::bytes_per_vector() const { return matrix_->cols(); }

size_t Sq8Store::resident_bytes() const {
  return codes_.capacity() * sizeof(uint8_t) +
         (scale_.capacity() + offset_.capacity()) * sizeof(float) +
         matrix_->data().capacity() * sizeof(float) +  // 0 unless view held
         MatrixBookkeepingBytes(*matrix_);
}

uint32_t Sq8Store::InsertRow(const float* values, size_t len) {
  const size_t dim = matrix_->cols() > 0 ? matrix_->cols() : len;
  if (!trained_) {
    // Empty-seeded store: degenerate single-point training on the first
    // vector (scale 1.0, offset at the vector) — documented limitation.
    scale_.assign(dim, 1.0f);
    offset_.assign(values, values + len);
    trained_ = true;
  }
  const uint32_t id = matrix_->InsertRow(values, len);
  const size_t needed = (static_cast<size_t>(id) + 1) * dim;
  if (codes_.size() < needed) codes_.resize(needed);
  EncodeRow(values, id);
  return id;
}

Status Sq8Store::EraseRow(size_t id) {
  // Codes stay in place, exactly like the fp32 bytes under a tombstone —
  // the verification path filters the id out, and InsertRow re-encodes
  // over the slot on recycle.
  return matrix_->EraseRow(id);
}

size_t Sq8Store::TrimTombstonedTail() {
  const size_t trimmed = matrix_->TrimTombstonedTail();
  if (trimmed > 0) {
    codes_.resize(matrix_->rows() * matrix_->cols());
    codes_.shrink_to_fit();
  }
  return trimmed;
}

bool Sq8Store::RetrainQuantizer() {
  const size_t dim = matrix_->cols();
  const size_t rows = matrix_->rows();
  if (!trained_ || dim == 0 || rows == 0) return false;

  // Decode every physical row with the *current* params first: the new
  // codes must be a pure function of the old codes so replay/replication
  // reproduce them exactly.
  std::vector<float> decoded(rows * dim);
  for (size_t r = 0; r < rows; ++r) {
    DecodeRow(static_cast<uint32_t>(r), decoded.data() + r * dim);
  }

  // New range from live rows only — tombstoned slots no longer widen it.
  std::vector<float> lo(dim, std::numeric_limits<float>::max());
  std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
  bool any_live = false;
  for (size_t r = 0; r < rows; ++r) {
    if (matrix_->IsDeleted(r)) continue;
    any_live = true;
    const float* row = decoded.data() + r * dim;
    for (size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], row[d]);
      hi[d] = std::max(hi[d], row[d]);
    }
  }
  if (!any_live) return false;
  for (size_t d = 0; d < dim; ++d) {
    offset_[d] = lo[d];
    const float range = hi[d] - lo[d];
    scale_[d] = range > 0.0f ? range / 255.0f : 1.0f;
  }

  // Re-encode every physical row (tombstoned included) so the whole code
  // array stays a deterministic function of its prior state.
  for (size_t r = 0; r < rows; ++r) {
    EncodeRow(decoded.data() + r * dim, static_cast<uint32_t>(r));
  }
  return true;
}

void Sq8Store::DecodeRow(uint32_t id, float* out) const {
  const size_t dim = matrix_->cols();
  const uint8_t* code = codes_.data() + static_cast<size_t>(id) * dim;
  for (size_t d = 0; d < dim; ++d) {
    out[d] = offset_[d] + scale_[d] * static_cast<float>(code[d]);
  }
}

float Sq8Store::ExactL2Squared(const float* query, uint32_t id) const {
  const size_t dim = matrix_->cols();
  return simd::Active().sq8_l2_asym(
      query, offset_.data(), scale_.data(),
      codes_.data() + static_cast<size_t>(id) * dim, dim);
}

void Sq8Store::PrepareQuery(const float* query,
                            std::vector<float>* prep) const {
  // Quantize the query into code space and premultiply by the scales:
  // prep[d] = scale[d] * round(clamp((q[d] - offset[d]) / scale[d])).
  // ScoreBatch then computes sum (prep - scale*code)^2 =
  // sum scale^2 (q_code - code)^2 — the offsets cancel, and the row side
  // needs only the u8 codes.
  const size_t dim = matrix_->cols();
  prep->resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    const float level = (query[d] - offset_[d]) / scale_[d];
    const float clamped = std::min(255.0f, std::max(0.0f, level));
    (*prep)[d] =
        scale_[d] * static_cast<float>(std::lround(clamped));
  }
}

void Sq8Store::ScoreBatch(const float* prep, size_t start,
                          const uint32_t* ids, size_t n, float* out) const {
  const size_t dim = matrix_->cols();
  if (ids != nullptr) {
    simd::Active().sq8_score_batch(prep, scale_.data(), codes_.data(), dim,
                                   ids, n, out);
  } else {
    simd::Active().sq8_score_batch(prep, scale_.data(),
                                   codes_.data() + start * dim, dim, nullptr,
                                   n, out);
  }
}

void Sq8Store::MaterializeDecodeView() {
  const size_t dim = matrix_->cols();
  std::vector<float> decoded(matrix_->rows() * dim);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    DecodeRow(static_cast<uint32_t>(r), decoded.data() + r * dim);
  }
  matrix_->SetPayload(std::move(decoded));
}

void Sq8Store::ReleaseDecodeView() { matrix_->ReleasePayload(); }

FloatMatrix Sq8Store::DecodedCopy() const {
  const size_t dim = matrix_->cols();
  std::vector<float> decoded(matrix_->rows() * dim);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    DecodeRow(static_cast<uint32_t>(r), decoded.data() + r * dim);
  }
  FloatMatrix out(matrix_->rows(), dim, std::move(decoded));
  // Replay tombstones in erasure order so the copy's LIFO free-list
  // recycles exactly like the live store would.
  for (const uint32_t slot : matrix_->free_slots()) {
    Status erased = out.EraseRow(slot);
    assert(erased.ok());
    (void)erased;
  }
  return out;
}

// ------------------------------------------------------------------ pq ----

PqStore::PqStore(std::unique_ptr<FloatMatrix> seed, size_t m)
    : VectorStore(std::move(seed)), m_(m) {
  assert(m_ >= 1 && (matrix_->cols() == 0 || m_ <= matrix_->cols()));
  InitSubspaces();
  if (matrix_->rows() > 0) {
    // Train on every physical row (tombstoned slots included, like SQ8's
    // range) up to the deterministic sample cap.
    std::vector<uint32_t> sample;
    sample.reserve(std::min(matrix_->rows(), kTrainSample));
    for (size_t r = 0; r < matrix_->rows() && sample.size() < kTrainSample;
         ++r) {
      sample.push_back(static_cast<uint32_t>(r));
    }
    Train(*matrix_, sample);
    codes_.resize(matrix_->rows() * m_);
    for (size_t r = 0; r < matrix_->rows(); ++r) {
      EncodeRow(matrix_->row(r), static_cast<uint32_t>(r));
    }
  }
  matrix_->ReleasePayload();
}

PqStore::PqStore(std::unique_ptr<FloatMatrix> data, size_t m,
                 std::vector<float> codebooks)
    : VectorStore(std::move(data)),
      codebooks_(std::move(codebooks)),
      m_(m) {
  assert(m_ >= 1 && m_ <= matrix_->cols());
  assert(codebooks_.size() == kCentroids * matrix_->cols());
  InitSubspaces();
  trained_ = true;
  codes_.resize(matrix_->rows() * m_);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    EncodeRow(matrix_->row(r), static_cast<uint32_t>(r));
  }
  matrix_->ReleasePayload();
}

PqStore::PqStore(std::unique_ptr<FloatMatrix> shell, size_t m,
                 std::vector<float> codebooks, std::vector<uint8_t> codes,
                 bool trained)
    : VectorStore(std::move(shell)),
      codes_(std::move(codes)),
      codebooks_(std::move(codebooks)),
      m_(m),
      trained_(trained) {
  assert(matrix_->payload_released());
  assert(m_ >= 1 && m_ <= matrix_->cols());
  assert(codebooks_.size() == kCentroids * matrix_->cols());
  assert(codes_.size() == matrix_->rows() * m_);
  InitSubspaces();
}

void PqStore::InitSubspaces() {
  // Balanced ragged split: the first dim % m subspaces take one extra
  // dimension, so sum of widths == dim for any dim >= m.
  const size_t dim = matrix_->cols();
  sub_begin_.assign(m_ + 1, 0);
  const size_t base = dim / m_;
  const size_t extra = dim % m_;
  for (size_t j = 0; j < m_; ++j) {
    sub_begin_[j + 1] = sub_begin_[j] + base + (j < extra ? 1 : 0);
  }
  if (codebooks_.empty()) codebooks_.assign(kCentroids * dim, 0.0f);
}

void PqStore::Train(const FloatMatrix& data,
                    const std::vector<uint32_t>& rows) {
  const size_t npoints = rows.size();
  if (npoints == 0) return;
  constexpr size_t kLloydIters = 8;
  std::vector<uint8_t> assign(npoints);
  for (size_t j = 0; j < m_; ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    float* cb = codebooks_.data() + kCentroids * begin;
    // Initial centroids: evenly strided over the sample; with fewer rows
    // than centroids the surplus duplicates wrap around (every training
    // row then owns its own centroid and encodes exactly).
    for (size_t c = 0; c < kCentroids; ++c) {
      const uint32_t r = npoints >= kCentroids
                             ? rows[c * npoints / kCentroids]
                             : rows[c % npoints];
      const float* src = data.row(r) + begin;
      std::copy(src, src + dsub, cb + c * dsub);
    }
    // Lloyd iterations: ties and empty clusters are resolved
    // deterministically (lowest index wins; empties keep their centroid),
    // so the codebooks are a pure function of the training rows.
    std::vector<double> sums(kCentroids * dsub);
    std::vector<size_t> counts(kCentroids);
    for (size_t iter = 0; iter < kLloydIters; ++iter) {
      bool moved = false;
      for (size_t p = 0; p < npoints; ++p) {
        const float* v = data.row(rows[p]) + begin;
        float best = std::numeric_limits<float>::max();
        size_t best_c = 0;
        for (size_t c = 0; c < kCentroids; ++c) {
          const float* cent = cb + c * dsub;
          float dist = 0.0f;
          for (size_t d = 0; d < dsub; ++d) {
            const float diff = v[d] - cent[d];
            dist += diff * diff;
          }
          if (dist < best) {
            best = dist;
            best_c = c;
          }
        }
        if (assign[p] != best_c) moved = true;
        assign[p] = static_cast<uint8_t>(best_c);
      }
      if (iter > 0 && !moved) break;  // converged; further passes no-op
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0);
      for (size_t p = 0; p < npoints; ++p) {
        const float* v = data.row(rows[p]) + begin;
        double* sum = sums.data() + static_cast<size_t>(assign[p]) * dsub;
        for (size_t d = 0; d < dsub; ++d) sum[d] += v[d];
        ++counts[assign[p]];
      }
      for (size_t c = 0; c < kCentroids; ++c) {
        if (counts[c] == 0) continue;  // empty cluster: keep the centroid
        float* cent = cb + c * dsub;
        for (size_t d = 0; d < dsub; ++d) {
          cent[d] = static_cast<float>(sums[c * dsub + d] /
                                       static_cast<double>(counts[c]));
        }
      }
    }
  }
  trained_ = true;
}

void PqStore::EncodeRow(const float* values, uint32_t id) {
  uint8_t* out = codes_.data() + static_cast<size_t>(id) * m_;
  for (size_t j = 0; j < m_; ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    const float* v = values + begin;
    const float* cb = codebooks_.data() + kCentroids * begin;
    float best = std::numeric_limits<float>::max();
    size_t best_c = 0;
    for (size_t c = 0; c < kCentroids; ++c) {
      const float* cent = cb + c * dsub;
      float dist = 0.0f;
      for (size_t d = 0; d < dsub; ++d) {
        const float diff = v[d] - cent[d];
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        best_c = c;
      }
    }
    out[j] = static_cast<uint8_t>(best_c);
  }
}

size_t PqStore::bytes_per_vector() const { return m_; }

size_t PqStore::resident_bytes() const {
  return codes_.capacity() * sizeof(uint8_t) +
         codebooks_.capacity() * sizeof(float) +
         sub_begin_.capacity() * sizeof(size_t) +
         matrix_->data().capacity() * sizeof(float) +  // 0 unless view held
         MatrixBookkeepingBytes(*matrix_);
}

uint32_t PqStore::InsertRow(const float* values, size_t len) {
  if (!trained_) {
    // Empty-seeded store: degenerate single-point training on the first
    // vector (every centroid duplicates its subvector) — documented
    // limitation, mirroring Sq8Store.
    for (size_t j = 0; j < m_; ++j) {
      const size_t begin = sub_begin_[j];
      const size_t dsub = sub_begin_[j + 1] - begin;
      float* cb = codebooks_.data() + kCentroids * begin;
      for (size_t c = 0; c < kCentroids; ++c) {
        std::copy(values + begin, values + begin + dsub, cb + c * dsub);
      }
    }
    trained_ = true;
  }
  const uint32_t id = matrix_->InsertRow(values, len);
  const size_t needed = (static_cast<size_t>(id) + 1) * m_;
  if (codes_.size() < needed) codes_.resize(needed);
  EncodeRow(values, id);
  return id;
}

Status PqStore::EraseRow(size_t id) {
  // Codes stay in place under the tombstone, exactly like Sq8Store —
  // verification filters the id out, InsertRow re-encodes on recycle.
  return matrix_->EraseRow(id);
}

size_t PqStore::TrimTombstonedTail() {
  const size_t trimmed = matrix_->TrimTombstonedTail();
  if (trimmed > 0) {
    codes_.resize(matrix_->rows() * m_);
    codes_.shrink_to_fit();
  }
  return trimmed;
}

bool PqStore::RetrainQuantizer() {
  const size_t dim = matrix_->cols();
  const size_t rows = matrix_->rows();
  if (!trained_ || dim == 0 || rows == 0) return false;

  // Decode every physical row with the *current* codebooks first: the new
  // codebooks and codes must be a pure function of the old codes so WAL
  // replay and replication reproduce them byte-identically.
  auto decoded = std::make_unique<FloatMatrix>(rows, dim);
  for (size_t r = 0; r < rows; ++r) {
    DecodeRow(static_cast<uint32_t>(r), decoded->mutable_row(r));
  }

  // New codebooks from live rows only (capped deterministically) —
  // tombstoned slots no longer pull centroids toward stale data.
  std::vector<uint32_t> live;
  live.reserve(std::min(rows, kTrainSample));
  for (size_t r = 0; r < rows && live.size() < kTrainSample; ++r) {
    if (!matrix_->IsDeleted(r)) live.push_back(static_cast<uint32_t>(r));
  }
  if (live.empty()) return false;
  Train(*decoded, live);

  // Re-encode every physical row (tombstoned included) so the whole code
  // array stays a deterministic function of its prior state.
  for (size_t r = 0; r < rows; ++r) {
    EncodeRow(decoded->row(r), static_cast<uint32_t>(r));
  }
  return true;
}

void PqStore::DecodeRow(uint32_t id, float* out) const {
  const uint8_t* code = codes_.data() + static_cast<size_t>(id) * m_;
  for (size_t j = 0; j < m_; ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    const float* cent =
        codebooks_.data() + kCentroids * begin + code[j] * dsub;
    std::copy(cent, cent + dsub, out + begin);
  }
}

float PqStore::ExactL2Squared(const float* query, uint32_t id) const {
  // Plain scalar accumulation on purpose: the re-rank ordering must be
  // identical on every SIMD tier (the ADC hot path already is), keeping
  // whole-search results tier-independent under PQ.
  const uint8_t* code = codes_.data() + static_cast<size_t>(id) * m_;
  float total = 0.0f;
  for (size_t j = 0; j < m_; ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    const float* cent =
        codebooks_.data() + kCentroids * begin + code[j] * dsub;
    for (size_t d = 0; d < dsub; ++d) {
      const float diff = query[begin + d] - cent[d];
      total += diff * diff;
    }
  }
  return total;
}

void PqStore::PrepareQuery(const float* query,
                           std::vector<float>* prep) const {
  // The ADC lookup table: prep[j * 256 + c] = ||q_sub(j) - centroid(j,c)||^2,
  // so ScoreBatch is pure table accumulation. Built with plain scalar
  // arithmetic — never through simd::Active() — so the table (and thus
  // every downstream score) is identical on every tier.
  prep->resize(m_ * kCentroids);
  for (size_t j = 0; j < m_; ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    const float* q = query + begin;
    const float* cb = codebooks_.data() + kCentroids * begin;
    float* row = prep->data() + j * kCentroids;
    for (size_t c = 0; c < kCentroids; ++c) {
      const float* cent = cb + c * dsub;
      float dist = 0.0f;
      for (size_t d = 0; d < dsub; ++d) {
        const float diff = q[d] - cent[d];
        dist += diff * diff;
      }
      row[c] = dist;
    }
  }
}

void PqStore::ScoreBatch(const float* prep, size_t start,
                         const uint32_t* ids, size_t n, float* out) const {
  // Scalar ADC on every tier: a score is m dependent table loads, and the
  // AVX2/AVX-512 gather kernels this replaced ran at 0.6-1.4x this loop.
  // Rows ahead of the current one are prefetched like the fp32/sq8 batch
  // kernels do (ids == nullptr means rows start..start+n-1).
  constexpr size_t kAhead = 4;          // rows of prefetch distance
  constexpr size_t kMaxPrefetch = 512;  // bytes per row worth fetching ahead
  const uint8_t* codes = codes_.data() + (ids ? 0 : start * m_);
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const uint8_t* p = codes + (ids ? ids[i + kAhead] : i + kAhead) * m_;
      for (size_t off = 0; off < m_ && off < kMaxPrefetch; off += 64) {
        __builtin_prefetch(p + off, 0, 3);
      }
    }
    out[i] = simd::ScalarPqAdc(prep, codes + (ids ? ids[i] : i) * m_, m_);
  }
}

void PqStore::MaterializeDecodeView() {
  const size_t dim = matrix_->cols();
  std::vector<float> decoded(matrix_->rows() * dim);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    DecodeRow(static_cast<uint32_t>(r), decoded.data() + r * dim);
  }
  matrix_->SetPayload(std::move(decoded));
}

void PqStore::ReleaseDecodeView() { matrix_->ReleasePayload(); }

FloatMatrix PqStore::DecodedCopy() const {
  const size_t dim = matrix_->cols();
  std::vector<float> decoded(matrix_->rows() * dim);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    DecodeRow(static_cast<uint32_t>(r), decoded.data() + r * dim);
  }
  FloatMatrix out(matrix_->rows(), dim, std::move(decoded));
  // Replay tombstones in erasure order so the copy's LIFO free-list
  // recycles exactly like the live store would.
  for (const uint32_t slot : matrix_->free_slots()) {
    Status erased = out.EraseRow(slot);
    assert(erased.ok());
    (void)erased;
  }
  return out;
}

std::unique_ptr<VectorStore> MakeVectorStore(
    StorageKind kind, std::unique_ptr<FloatMatrix> data, size_t pq_m) {
  switch (kind) {
    case StorageKind::kSq8:
      return std::make_unique<Sq8Store>(std::move(data));
    case StorageKind::kPq:
      return std::make_unique<PqStore>(std::move(data), pq_m);
    case StorageKind::kFp32:
      break;
  }
  return std::make_unique<Fp32Store>(std::move(data));
}

}  // namespace dblsh
