#ifndef DBLSH_DATASET_VECTOR_STORE_H_
#define DBLSH_DATASET_VECTOR_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/float_matrix.h"
#include "util/status.h"

namespace dblsh {

/// Storage backends a VectorStore can be built as (Collection spec key
/// `storage=fp32|sq8|pq`).
enum class StorageKind : int {
  kFp32 = 0,  ///< raw fp32 rows — byte-identical to the pre-store layout
  kSq8 = 1,   ///< per-dimension scalar-quantized u8 rows (~4x compression)
  kPq = 2,    ///< product-quantized m-byte rows (~16x at dim 128 / m 16)
};

/// Stable name of a storage backend ("fp32", "sq8", "pq"); serialized into
/// v3/v4 index files and reported by stats surfaces.
const char* StorageKindName(StorageKind kind);

/// Parses a `storage=` spec value ("fp32" | "sq8" | "pq") into a
/// StorageKind.
Result<StorageKind> ParseStorageKind(const std::string& name);

/// Owns one shard's row bytes behind the FloatMatrix that the rest of the
/// system keeps talking to. The matrix remains the source of truth for
/// *shape* — ids, tombstones, the LIFO free-list — while the store decides
/// how the payload is represented:
///
/// - **Fp32Store** keeps the payload inside the matrix, bit-identical to
///   the pre-store code: same bytes, same kernels, same results.
/// - **Sq8Store** scalar-quantizes each row to one byte per dimension
///   (per-dimension offset/scale trained on the seed rows) and *releases*
///   the matrix's fp32 payload — the matrix becomes a metadata shell
///   (FloatMatrix::payload_released()), which is what makes the ~4x memory
///   saving real instead of an extra copy.
///
/// Query-time integration is through the shared verification path
/// (core/verify.cc): the store binds itself to its matrix
/// (FloatMatrix::BindStore), and VerifyCandidates scores candidates via
/// PrepareQuery/ScoreBatch whenever the bound store is quantized() —
/// identical tombstone/filter/budget semantics, different bytes scanned.
/// Index builds (hashing, projections) keep reading fp32 through a decode
/// view (ScopedDecodeView) so every method works against either backend
/// with zero per-method code.
///
/// Thread-safety mirrors FloatMatrix: reads (ScoreBatch, ExactL2Squared,
/// DecodeRow, DecodedCopy, stats) may run concurrently; mutations
/// (InsertRow/EraseRow, Materialize/ReleaseDecodeView) must be externally
/// serialized against them (the Collection's per-shard writer lock).
class VectorStore {
 public:
  virtual ~VectorStore();

  VectorStore(const VectorStore&) = delete;
  VectorStore& operator=(const VectorStore&) = delete;

  /// Which backend this store is.
  virtual StorageKind storage_kind() const = 0;

  /// StorageKindName(storage_kind()).
  const char* kind_name() const { return StorageKindName(storage_kind()); }

  /// True when rows are stored quantized: verification scores through
  /// PrepareQuery/ScoreBatch and search results should be re-ranked with
  /// ExactL2Squared (Collection does both automatically).
  virtual bool quantized() const = 0;

  /// The logical matrix (ids, tombstones, free-list; payload too for
  /// fp32). Address-stable for the life of the store — indexes keep raw
  /// pointers to it across rebinds.
  FloatMatrix& matrix() { return *matrix_; }
  const FloatMatrix& matrix() const { return *matrix_; }

  /// Payload bytes per vector slot (fp32: 4*dim, sq8: dim).
  virtual size_t bytes_per_vector() const = 0;

  /// Heap bytes currently resident in this store: payload plus
  /// quantization parameters plus tombstone bookkeeping.
  virtual size_t resident_bytes() const = 0;

  /// Inserts one vector of matrix().cols() floats, recycling the most
  /// recently tombstoned slot like FloatMatrix::InsertRow (same LIFO
  /// contract), quantizing on write for quantized stores. Returns the id
  /// now holding the vector.
  virtual uint32_t InsertRow(const float* values, size_t len) = 0;

  /// Tombstones row `id` (exact FloatMatrix::EraseRow semantics).
  virtual Status EraseRow(size_t id) = 0;

  /// Physically drops every trailing tombstoned row, shrinking the payload
  /// to match (FloatMatrix::TrimTombstonedTail plus the backend's own code
  /// array for quantized stores). Mutation: caller holds the writer lock
  /// and must swap/rebuild indexes in the same critical section. Returns
  /// rows removed.
  virtual size_t TrimTombstonedTail() = 0;

  /// Reconstructs row `id` as fp32 into out[0..matrix().cols()). Exact for
  /// fp32; the quantized reconstruction for sq8.
  virtual void DecodeRow(uint32_t id, float* out) const = 0;

  /// Exact squared L2 distance between the raw fp32 `query` and row `id`'s
  /// stored representation (decoded on the fly for sq8) — the re-rank
  /// scorer. No query quantization error.
  virtual float ExactL2Squared(const float* query, uint32_t id) const = 0;

  /// Prepares `query` once per query for repeated ScoreBatch calls,
  /// resizing `*prep` as needed. For sq8 this quantizes the query and
  /// premultiplies by the per-dimension scales; for fp32 it is a plain
  /// copy (ScoreBatch ignores the distinction).
  virtual void PrepareQuery(const float* query,
                            std::vector<float>* prep) const = 0;

  /// out[i] = squared distance between the prepared query and candidate i,
  /// where candidates are rows ids[0..n) when `ids != nullptr` and the
  /// contiguous rows [start, start + n) otherwise. For fp32 this is the
  /// exact L2; for sq8 the symmetric quantized score (both sides in code
  /// space), which is what the hot path scans.
  virtual void ScoreBatch(const float* prep, size_t start,
                          const uint32_t* ids, size_t n,
                          float* out) const = 0;

  /// Materializes decoded fp32 rows into the matrix so index builds can
  /// read matrix().row() (no-op for fp32). Mutation: caller holds the
  /// writer lock. Balanced by ReleaseDecodeView(); use ScopedDecodeView.
  virtual void MaterializeDecodeView() = 0;
  /// Releases a MaterializeDecodeView() payload (no-op for fp32).
  virtual void ReleaseDecodeView() = 0;

  /// A standalone fp32 matrix with this store's decoded rows and exact
  /// tombstone state (free-list replayed in erasure order). The basis for
  /// background-rebuild snapshots and Collection::Snapshot. The returned
  /// matrix carries no store binding.
  virtual FloatMatrix DecodedCopy() const = 0;

  /// Re-derives the quantization parameters from the rows currently live
  /// and re-encodes every physical row, so a drifting insert stream stops
  /// degrading into clamped codes. Deterministic: the new codes are a pure
  /// function of the old codes + params, which is what lets WAL replay
  /// (WalOp::kRetrain) and replication reproduce them byte-identically.
  /// Returns true when the parameters changed (no-op for fp32 and for
  /// stores with no live rows). Mutation: caller holds the writer lock and
  /// rebuilds indexes afterwards.
  virtual bool RetrainQuantizer() { return false; }

 protected:
  /// Adopts `matrix` (never null) and binds this store to it.
  explicit VectorStore(std::unique_ptr<FloatMatrix> matrix);

  std::unique_ptr<FloatMatrix> matrix_;
};

/// RAII pairing of MaterializeDecodeView/ReleaseDecodeView around an index
/// build. Caller holds the shard's writer lock for the whole scope.
class ScopedDecodeView {
 public:
  explicit ScopedDecodeView(VectorStore* store) : store_(store) {
    store_->MaterializeDecodeView();
  }
  ~ScopedDecodeView() { store_->ReleaseDecodeView(); }

  ScopedDecodeView(const ScopedDecodeView&) = delete;
  ScopedDecodeView& operator=(const ScopedDecodeView&) = delete;

 private:
  VectorStore* store_;
};

/// The identity backend: payload stays in the FloatMatrix, every operation
/// forwards to it, and verification takes the exact pre-store fp32 path —
/// `storage=fp32` is bit-identical to the historical collection.
class Fp32Store final : public VectorStore {
 public:
  /// Adopts `data` without copying — the matrix address stays stable, so
  /// indexes built over it before the hand-off stay valid
  /// (Collection::AddPrebuiltIndex relies on this).
  explicit Fp32Store(std::unique_ptr<FloatMatrix> data);

  StorageKind storage_kind() const override { return StorageKind::kFp32; }
  bool quantized() const override { return false; }
  size_t bytes_per_vector() const override;
  size_t resident_bytes() const override;
  uint32_t InsertRow(const float* values, size_t len) override;
  Status EraseRow(size_t id) override;
  size_t TrimTombstonedTail() override;
  void DecodeRow(uint32_t id, float* out) const override;
  float ExactL2Squared(const float* query, uint32_t id) const override;
  void PrepareQuery(const float* query,
                    std::vector<float>* prep) const override;
  void ScoreBatch(const float* prep, size_t start, const uint32_t* ids,
                  size_t n, float* out) const override;
  void MaterializeDecodeView() override {}
  void ReleaseDecodeView() override {}
  FloatMatrix DecodedCopy() const override;
};

/// Scalar-quantized backend: row bytes live in a dim-byte-per-row code
/// array; the adopted matrix keeps only metadata (payload released).
///
/// Quantization: per-dimension affine codes trained on the seed rows —
/// offset[d] = min over rows, scale[d] = (max - min) / 255 (1.0 when the
/// dimension is constant), code = round((v - offset) / scale) clamped to
/// [0, 255]. Reconstruction error is at most scale[d]/2 per dimension for
/// in-range values; vectors inserted later that fall outside the trained
/// range clamp (their error can exceed the bound — re-rank still orders
/// whatever the codes admit as candidates). A store constructed over an
/// empty matrix trains on its first InsertRow (degenerate single-point
/// range: scale 1.0 around that vector) — seed a representative sample
/// when possible.
///
/// Updates: in-place index maintenance (AnnIndex::Insert reading fp32
/// rows) is unavailable over a released payload; the Collection treats
/// every slot as static under sq8 and relies on staleness-triggered
/// rebuilds through the decode view.
class Sq8Store final : public VectorStore {
 public:
  /// Trains on `seed`'s rows, encodes them, and releases the seed's fp32
  /// payload. The seed's tombstone state is preserved as-is.
  explicit Sq8Store(std::unique_ptr<FloatMatrix> seed);

  /// Restores a store from persisted quantization parameters (v3 index
  /// load): re-encodes `data`'s rows with the *saved* scale/offset instead
  /// of re-training, then releases the payload. `scale`/`offset` must have
  /// data->cols() entries.
  Sq8Store(std::unique_ptr<FloatMatrix> data, std::vector<float> scale,
           std::vector<float> offset);

  /// Adopts persisted code bytes directly (durability snapshot restore):
  /// `shell` is a payload-released metadata matrix (ids, tombstones,
  /// free-list) whose fp32 bytes were never materialized, and `codes` are
  /// its shell->rows() * shell->cols() quantized bytes verbatim — no
  /// re-encoding, so the restored store is byte-identical to the one that
  /// was snapshotted. `trained` round-trips the empty-seeded flag.
  Sq8Store(std::unique_ptr<FloatMatrix> shell, std::vector<float> scale,
           std::vector<float> offset, std::vector<uint8_t> codes,
           bool trained);

  StorageKind storage_kind() const override { return StorageKind::kSq8; }
  bool quantized() const override { return true; }
  size_t bytes_per_vector() const override;
  size_t resident_bytes() const override;
  uint32_t InsertRow(const float* values, size_t len) override;
  Status EraseRow(size_t id) override;
  size_t TrimTombstonedTail() override;
  void DecodeRow(uint32_t id, float* out) const override;
  float ExactL2Squared(const float* query, uint32_t id) const override;
  void PrepareQuery(const float* query,
                    std::vector<float>* prep) const override;
  void ScoreBatch(const float* prep, size_t start, const uint32_t* ids,
                  size_t n, float* out) const override;
  void MaterializeDecodeView() override;
  void ReleaseDecodeView() override;
  FloatMatrix DecodedCopy() const override;
  bool RetrainQuantizer() override;

  /// Per-dimension quantization parameters (persisted in v3 index files).
  const std::vector<float>& scales() const { return scale_; }
  const std::vector<float>& offsets() const { return offset_; }
  /// Raw code bytes, row r at codes()[r * dim .. r * dim + dim) — the v3
  /// checksum basis.
  const std::vector<uint8_t>& codes() const { return codes_; }
  /// False until the first row trains the scale/offset (empty-seeded
  /// stores only).
  bool trained() const { return trained_; }

 private:
  /// Derives scale_/offset_ from the per-dimension min/max of `m`'s rows.
  void Train(const FloatMatrix& m);
  /// Quantizes one fp32 row into codes_[id * dim ..).
  void EncodeRow(const float* values, uint32_t id);

  std::vector<uint8_t> codes_;  ///< rows x dim, tombstoned slots included
  std::vector<float> scale_;    ///< per-dimension, > 0
  std::vector<float> offset_;   ///< per-dimension
  bool trained_ = false;
};

/// Product-quantized backend: each row is split into `m` contiguous
/// subspaces and stored as one byte per subspace — the index of the
/// nearest centroid in that subspace's 256-entry codebook (nbits = 8).
/// The adopted matrix keeps only metadata (payload released), so memory
/// per vector drops from 4*dim bytes to m bytes (~16x at dim 128 / m 16).
///
/// Subspace split: balanced ragged — the first dim % m subspaces get
/// ceil(dim/m) dimensions, the rest floor(dim/m) — so any dim >= m works
/// without padding, and the concatenated codebooks always total 256 * dim
/// floats regardless of the split.
///
/// Training: deterministic per-subspace k-means (Lloyd) over the seed
/// rows, capped at a fixed-size deterministic sample. Initial centroids
/// are evenly strided over the sample; with fewer rows than centroids the
/// surplus centroids duplicate existing rows (every seed row then encodes
/// exactly). Empty clusters keep their previous centroid, and distance
/// ties assign to the lowest centroid index, so the codebooks are a pure
/// function of the training rows — the determinism WAL replay and
/// replication rely on (see RetrainQuantizer).
///
/// Scoring: PrepareQuery computes the ADC lookup table — m x 256 squared
/// sub-distances from the query to every centroid — once per query; the
/// ScoreBatch hot path is then pure table accumulation through
/// simd::ScalarPqAdc. Both are plain scalar arithmetic with no SIMD tier,
/// so PQ scores are identical on every CPU. Unlike SQ8 the query side is
/// never quantized, so ADC scores are exact on the query side; re-rank
/// (ExactL2Squared) re-scores against the same reconstruction and exists
/// for ordering stability under the shared rerank=N machinery.
///
/// Updates mirror Sq8Store: in-place index maintenance is unavailable
/// over a released payload, slots are static, rebuilds read through the
/// decode view. An empty-seeded store trains on its first InsertRow
/// (degenerate single-point codebooks) — seed a representative sample
/// when possible.
class PqStore final : public VectorStore {
 public:
  /// Centroids per subspace (nbits = 8 — the one code width the 1-byte
  /// layout and the ADC kernel support).
  static constexpr size_t kCentroids = 256;
  /// Deterministic training-sample cap: k-means trains on the first
  /// kTrainSample qualifying rows (all seed rows when fewer).
  static constexpr size_t kTrainSample = 16384;

  /// Trains codebooks on `seed`'s rows (all physical rows, like SQ8's
  /// range), encodes them, and releases the seed's fp32 payload. `m` must
  /// be in [1, seed->cols()]. The seed's tombstone state is preserved.
  PqStore(std::unique_ptr<FloatMatrix> seed, size_t m);

  /// Restores a store from persisted codebooks (v4 index load):
  /// re-encodes `data`'s rows with the *saved* codebooks instead of
  /// re-training, then releases the payload. `codebooks` must have
  /// 256 * data->cols() floats.
  PqStore(std::unique_ptr<FloatMatrix> data, size_t m,
          std::vector<float> codebooks);

  /// Adopts persisted code bytes directly (durability snapshot restore):
  /// `shell` is a payload-released metadata matrix and `codes` are its
  /// shell->rows() * m code bytes verbatim — no re-encoding, so the
  /// restored store is byte-identical to the one that was snapshotted.
  PqStore(std::unique_ptr<FloatMatrix> shell, size_t m,
          std::vector<float> codebooks, std::vector<uint8_t> codes,
          bool trained);

  StorageKind storage_kind() const override { return StorageKind::kPq; }
  bool quantized() const override { return true; }
  size_t bytes_per_vector() const override;
  size_t resident_bytes() const override;
  uint32_t InsertRow(const float* values, size_t len) override;
  Status EraseRow(size_t id) override;
  size_t TrimTombstonedTail() override;
  void DecodeRow(uint32_t id, float* out) const override;
  float ExactL2Squared(const float* query, uint32_t id) const override;
  void PrepareQuery(const float* query,
                    std::vector<float>* prep) const override;
  void ScoreBatch(const float* prep, size_t start, const uint32_t* ids,
                  size_t n, float* out) const override;
  void MaterializeDecodeView() override;
  void ReleaseDecodeView() override;
  FloatMatrix DecodedCopy() const override;
  bool RetrainQuantizer() override;

  /// Number of subspaces (= code bytes per row).
  size_t m() const { return m_; }
  /// Concatenated sub-quantizer codebooks: subspace j's centroid c spans
  /// codebooks()[256 * sub_begin(j) + c * sub_dim(j) ..), totalling
  /// 256 * dim floats. The v4 persistence payload.
  const std::vector<float>& codebooks() const { return codebooks_; }
  /// Raw code bytes, row r at codes()[r * m .. r * m + m) — the v4
  /// checksum basis and the durability snapshot payload.
  const std::vector<uint8_t>& codes() const { return codes_; }
  /// False until the first row trains the codebooks (empty-seeded stores
  /// only).
  bool trained() const { return trained_; }
  /// First dimension of subspace j (j in [0, m]; sub_begin(m) == dim).
  size_t sub_begin(size_t j) const { return sub_begin_[j]; }
  /// Width of subspace j.
  size_t sub_dim(size_t j) const { return sub_begin_[j + 1] - sub_begin_[j]; }

 private:
  /// Derives codebooks_ by deterministic k-means over `rows` (row ids into
  /// `m`, pre-filtered and capped by the caller).
  void Train(const FloatMatrix& data, const std::vector<uint32_t>& rows);
  /// Encodes one fp32 row into codes_[id * m ..) (nearest centroid per
  /// subspace, lowest index on ties).
  void EncodeRow(const float* values, uint32_t id);
  /// Fills the balanced ragged subspace bounds for the matrix's dim.
  void InitSubspaces();

  std::vector<uint8_t> codes_;      ///< rows x m, tombstoned slots included
  std::vector<float> codebooks_;    ///< 256 * dim, per-subspace blocks
  std::vector<size_t> sub_begin_;   ///< m + 1 subspace dimension bounds
  size_t m_ = 0;
  bool trained_ = false;
};

/// Constructs the requested backend over `data` (see Fp32Store / Sq8Store
/// / PqStore for adoption semantics). `pq_m` is the PQ subspace count,
/// ignored by the other backends.
std::unique_ptr<VectorStore> MakeVectorStore(StorageKind kind,
                                             std::unique_ptr<FloatMatrix> data,
                                             size_t pq_m = 16);

}  // namespace dblsh

#endif  // DBLSH_DATASET_VECTOR_STORE_H_
