#ifndef DBLSH_CORE_DB_LSH_H_
#define DBLSH_CORE_DB_LSH_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/ann_index.h"
#include "core/index_factory.h"
#include "core/verify.h"
#include "dataset/float_matrix.h"
#include "dataset/vector_store.h"
#include "kdtree/kd_tree.h"
#include "lsh/projection.h"
#include "rtree/rtree.h"
#include "util/status.h"

namespace dblsh {

/// How the query phase turns a projected space into buckets. Dynamic is
/// DB-LSH proper (query-centric hypercubes); Fixed reproduces the paper's
/// FB-LSH ablation, which keeps the identical (K,L)-index but uses
/// query-oblivious grid cells, re-introducing the hash-boundary problem.
enum class BucketingMode {
  kDynamicQueryCentric,
  kFixedGrid,
};

/// Which multi-dimensional index answers the window queries. The paper uses
/// the R*-tree but notes that "the only requirement of the index is that it
/// can efficiently answer a window query in the low-dimensional space"
/// (Sec. IV-B); the kd-tree backend demonstrates that pluggability and
/// feeds the backend ablation bench.
enum class IndexBackend {
  kRStarTree,
  kKdTree,
};

/// Construction parameters. Defaults mirror the paper's experimental
/// settings (Sec. VI-A): c = 1.5, w0 = 4c^2, L = 5, K = 12 for n > 1M and
/// K = 10 otherwise.
struct DbLshParams {
  double c = 1.5;    ///< approximation ratio (> 1)
  double w0 = 0.0;   ///< initial bucket width; 0 = auto (4 * c^2)
  size_t k = 0;      ///< hash functions per projected space; 0 = auto
  size_t l = 5;      ///< number of projected spaces (R*-trees)
  /// Candidate budget constant of Remark 2: a (c,k)-ANN query verifies at
  /// most 2tL + k candidates. 0 = auto (scales as max(64, n/100) / (2L)).
  size_t t = 0;
  /// Starting search radius r for the (r,c)-NN cascade; 0 = auto-estimated
  /// from a sample of nearest-neighbor distances so early rounds are not
  /// wasted on empty windows.
  double r0 = 0.0;
  /// Early-termination slack (the paper's Sec. VII future-work direction,
  /// in the spirit of I-LSH/EI-LSH): a round accepts the current k-th
  /// distance once it is within `early_stop_slack * c * r`. 1.0 (default)
  /// is the paper's exact condition; larger values stop earlier, trading
  /// the formal guarantee for speed (see the ablation bench).
  double early_stop_slack = 1.0;
  uint64_t seed = 42;
  BucketingMode bucketing = BucketingMode::kDynamicQueryCentric;
  IndexBackend backend = IndexBackend::kRStarTree;
  /// Bulk-load the R*-trees (paper default). Set false for the
  /// insertion-based construction ablation.
  bool bulk_load = true;
  rtree::RTreeOptions rtree_options;
};

/// DB-LSH: the paper's contribution. Indexing phase: project the dataset
/// into L K-dimensional spaces with independent 2-stable projections and
/// index each with an R*-tree. Query phase: answer a c-ANN query as a
/// cascade of (r,c)-NN queries with r = r0, c*r0, c^2*r0, ..., where each
/// round issues L window queries with query-centric hypercubic buckets of
/// width w0*r (Algorithms 1 and 2).
class DbLsh : public AnnIndex {
 public:
  /// Stores `params`; auto-derived fields (w0, k, t, r0) are resolved by
  /// Build(), so params() is only meaningful after a successful build.
  explicit DbLsh(DbLshParams params = DbLshParams());

  /// "DB-LSH", or "FB-LSH" under the fixed-grid ablation bucketing.
  std::string Name() const override;
  /// Derives auto parameters (w0, K, t, r0), projects the dataset into the
  /// L spaces and builds one index per space. Live rows only when `data`
  /// carries tombstones. `data` must outlive the index.
  Status Build(const FloatMatrix* data) override;
  /// Repoints dataset reads at an equal-content matrix (see
  /// AnnIndex::RebindData) -- Collection's background-rebuild swap hook.
  Status RebindData(const FloatMatrix* data) override;
  /// c-ANN query via the (r,c)-NN cascade. Per-query state lives in a
  /// thread-local scratch, so concurrent calls from different threads are
  /// safe.
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  /// Honors the request's candidate-budget (`t` of Remark 2) and starting
  /// radius overrides, so one built index serves per-query accuracy/latency
  /// trades without rebuilding. AnnIndex::QueryBatch fans batches out
  /// through this entry point.
  QueryResponse Search(const float* query,
                       const QueryRequest& request) const override;
  /// The read path is thread-safe: all per-query state lives in the
  /// calling thread's scratch and every structure access is const. This is
  /// what lets a Collection fan reader threads into one built DB-LSH under
  /// its shared lock.
  bool SupportsConcurrentQueries() const override { return true; }
  /// K*L: the paper's index-size proxy (n entries per hash function).
  size_t NumHashFunctions() const override { return params_.k * params_.l; }

  /// Dynamic updates — the structural payoff of "hash tables are just
  /// R*-trees": true for the R*-tree backend (incremental R* insertion and
  /// deletion-with-reinsertion), false for the static kd-tree backend.
  bool SupportsUpdates() const override;
  /// Projects row `id` into the L spaces and R*-inserts it into each tree.
  /// See AnnIndex::Insert for the dataset-first update protocol.
  Status Insert(uint32_t id) override;
  /// Removes `id` from all L trees (condense + orphan reinsertion). Call
  /// before the slot is recycled by FloatMatrix::InsertRow.
  Status Erase(uint32_t id) override;

  /// One (r,c)-NN round (Algorithm 1), exposed for tests and for the
  /// theoretical-guarantee property tests: returns a point within c*r of
  /// `query` if one is found under the 2tL+1 candidate budget, otherwise
  /// nothing.
  std::optional<Neighbor> RcNnQuery(const float* query, double r,
                                    QueryStats* stats = nullptr) const;

  /// Effective (post-auto-derivation) parameters; valid after Build().
  const DbLshParams& params() const { return params_; }

  /// Total entries across the L R*-trees (for index size accounting).
  size_t IndexEntries() const;

  /// Persists the built index (parameters, projection directions, projected
  /// points, and the dataset's tombstone set) to `path` in format version
  /// 3. The backing dataset itself is NOT stored — pass the same data to
  /// Load(); a checksum over its raw bytes is stored so a mismatched
  /// dataset is rejected rather than silently served. Trees are rebuilt by
  /// bulk loading on load, which is fast and keeps the file format simple
  /// and portable. Appended rows round-trip naturally (they are ordinary
  /// rows of the projected matrices by save time).
  ///
  /// Storage backends: when the dataset is managed by a quantized
  /// VectorStore (FloatMatrix::store(); the Collection's storage=sq8
  /// case), the file records the backend tag, the per-dimension
  /// quantization parameters, and a checksum over the u8 codes instead of
  /// the (released) fp32 payload. Such files are restored through
  /// LoadStore() + Load(path, VectorStore*).
  Status Save(const std::string& path) const;

  /// Restores an index saved with Save() over plain fp32 data (format
  /// version 2, or version 3/4 with the fp32 storage tag; sq8/pq-tagged
  /// files are rejected with InvalidArgument — use LoadStore + the
  /// VectorStore overload). `data` must hold the same bytes as the
  /// dataset the index
  /// was saved over — row count, dimensionality and content checksum are
  /// validated, returning InvalidArgument on any mismatch — and must
  /// outlive the returned index. The pointer is non-const because Load
  /// re-applies the saved tombstone set to `data` (erased rows are not
  /// persisted by fvecs files).
  static Result<DbLsh> Load(const std::string& path, FloatMatrix* data);

  /// Reconstructs the VectorStore an index file was saved over from the
  /// original fp32 dataset (as read from disk; tombstones are re-applied
  /// by the subsequent Load). For an fp32-tagged (or version-2) file this
  /// wraps `data` in an Fp32Store; for sq8 it re-encodes `data`'s rows
  /// with the *saved* scale/offset and for pq with the *saved* codebooks
  /// (never re-training) so the codes — and the stored code checksum —
  /// come out byte-identical. Consumes `data` in all cases, including
  /// errors.
  static Result<std::unique_ptr<VectorStore>> LoadStore(
      const std::string& path, std::unique_ptr<FloatMatrix> data);

  /// Restores an index saved with Save() against an existing store
  /// (typically from LoadStore). The file's storage tag must match the
  /// store's kind; for sq8/pq the saved quantization parameters and the
  /// code checksum are validated against the store (InvalidArgument on
  /// any mismatch). Saved tombstones are re-applied through the store. The
  /// store must outlive the returned index.
  static Result<DbLsh> Load(const std::string& path, VectorStore* store);

 private:
  /// Shared tail of the Load() overloads: parameters, projections,
  /// projected spaces, tombstone replay (through `store` when non-null so
  /// quantized backends stay in sync, else through `data`) and tree
  /// rebuild. `in` is positioned just past the storage-dependent prefix.
  static Result<DbLsh> LoadIndexBody(std::ifstream& in,
                                     const std::string& path, uint64_t n,
                                     uint64_t dim, FloatMatrix* data,
                                     VectorStore* store);

  /// The one piece of per-query state besides the top-k heap: which points
  /// the query has already verified, as epoch stamps indexed by row.
  struct QueryScratch {
    std::vector<uint32_t> visited_epoch;
    uint32_t epoch = 0;
  };

  /// Runs one round of L window queries at radius r, feeding candidates into
  /// `verifier` (which owns the heap, budget and certification bound) until
  /// the budget is exhausted or the k-th distance drops below c*r. Returns
  /// true when the query can terminate.
  bool RunRound(const float* query, double r, CandidateVerifier* verifier,
                std::vector<uint32_t>* visited_mark, uint32_t query_epoch,
                QueryStats* stats) const;

  /// Grows `scratch` to cover this index's rows and advances its epoch;
  /// returns the epoch to stamp visited points with.
  uint32_t PrepareScratch(QueryScratch* scratch) const;

  /// Shared query path: the (r,c)-NN cascade with an explicit candidate
  /// budget constant `t` and starting radius `r0` (the per-query override
  /// hooks of the QueryRequest API).
  std::vector<Neighbor> QueryImpl(const float* query, size_t k, size_t t,
                                  double r0, QueryStats* stats) const;

  /// The bucket of width `width` around `proj_center` in space
  /// `tree_index`: the query-centric window, or under fixed-grid bucketing
  /// the grid cell containing it.
  rtree::Rect MakeBucket(const float* proj_center, size_t tree_index,
                         double width) const;

  /// The calling thread's scratch. One scratch is shared by every DbLsh
  /// instance on the thread: PrepareScratch only ever grows the stamp
  /// buffer (a thread parks the largest dataset's worth of stamps it has
  /// queried) and its epoch is monotone per thread, so stamps written
  /// through one index are always below another index's current epoch.
  static QueryScratch& ThreadLocalScratch();

  DbLshParams params_;
  const FloatMatrix* data_ = nullptr;
  std::unique_ptr<lsh::ProjectionBank> bank_;  // l*k functions
  std::vector<FloatMatrix> projected_;         // l matrices of n x k
  std::vector<rtree::RStarTree> trees_;        // kRStarTree backend
  std::vector<std::unique_ptr<kdtree::KdTree>> kd_trees_;  // kKdTree backend
  /// Random per-function grid offsets (the `b` of Eq. 1), used only by the
  /// FB-LSH fixed-grid mode so cell boundaries are unbiased.
  std::vector<float> grid_offsets_;
  double auto_r0_ = 1.0;
};

/// Applies spec keys (c, w0, k, l, t, r0, early_stop_slack, seed,
/// bulk_load, bucketing=dynamic|fixed, backend=rtree|kdtree) on top of
/// `base`. Shared by the DB-LSH and FB-LSH factory registrations.
Result<DbLshParams> DbLshParamsFromSpec(const IndexFactory::Spec& spec,
                                        DbLshParams base);

}  // namespace dblsh

#endif  // DBLSH_CORE_DB_LSH_H_
