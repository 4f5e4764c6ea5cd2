#ifndef DBLSH_CORE_VERIFY_H_
#define DBLSH_CORE_VERIFY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/query.h"
#include "dataset/float_matrix.h"
#include "util/top_k_heap.h"

namespace dblsh {

/// Early-exit policy for a verification pass. Both tests are evaluated
/// after every push, in candidate order — the same per-candidate semantics
/// the methods' hand-rolled loops used, so migrating onto this helper
/// changes which SIMD kernel computes the distances but not which
/// candidates end up in the heap.
struct VerifyOptions {
  /// Maximum number of candidates to push in this call; the pass exits at
  /// (not before) the push that reaches it.
  size_t budget = std::numeric_limits<size_t>::max();

  /// When non-negative: exit once the heap is full and its k-th distance
  /// is <= this bound (the (r,c)-NN certification test). Compared against
  /// actual (non-squared) distances.
  double dist_bound = -1.0;
};

struct VerifyResult {
  size_t pushed = 0;   ///< candidates actually pushed into the heap
  /// Live candidates dropped by the thread's active query filter (not
  /// tombstones). pushed + filtered is every distinct live candidate this
  /// call consumed — the count coverage-based termination tests need,
  /// since a restrictive filter keeps `pushed` from ever reaching the
  /// live-row count.
  size_t filtered = 0;
  bool exited = false; ///< true when budget or dist_bound tripped
};

/// Computes exact L2 distances for `n` candidates of `data` with the active
/// one-to-many SIMD kernel (software-prefetched, in chunks) and pushes
/// (distance, id) into `heap`. `ids == nullptr` verifies rows [0, n) — the
/// contiguous-scan case, used by LinearScan and the ground-truth oracle.
/// Increments stats->candidates_verified per push when `stats` is non-null.
/// Candidates after an early exit are neither pushed nor counted.
///
/// Tombstones: candidates whose row is erased in `data`
/// (FloatMatrix::IsDeleted) are silently dropped — not pushed, not counted
/// against the budget, not reported in stats. Because every method's
/// verification funnels through this function, a dataset-level erase is
/// enough to guarantee the id never appears in any index's results, even
/// when the index's internal structures still reference it.
///
/// Query filters: candidates rejected by the calling thread's active
/// QueryFilter (installed by ScopedQueryFilter below; the Search()
/// entrypoints install the request's filter automatically) are dropped
/// with exactly the tombstone semantics — not pushed, not counted against
/// the budget or stats — and the rejection happens *before* the distance
/// kernel, so restrictive filters skip the SIMD work for rejected
/// candidates. This is how `QueryRequest::filter` reaches all 12 methods
/// with zero per-method code. Dropped live candidates are tallied in
/// VerifyResult::filtered for coverage-based termination tests.
///
/// Quantized storage: when `data` is managed by a quantized VectorStore
/// (data.store()->quantized(); see dataset/vector_store.h), distances come
/// from the store's prepared-query scoring over u8 codes instead of the
/// raw fp32 kernels — same chunking, same tombstone/filter/budget/bound
/// semantics, approximately-equal distances (callers re-rank the final
/// top-k through the store's exact scorer; Collection does this
/// automatically). The fp32 path is byte-for-byte the historical loop.
///
/// Thread-safety: safe to call concurrently for distinct (heap, stats)
/// pairs over one immutable `data`; not safe concurrently with dataset
/// mutations.
VerifyResult VerifyCandidates(const float* query, const FloatMatrix& data,
                              const uint32_t* ids, size_t n,
                              const VerifyOptions& options, TopKHeap* heap,
                              QueryStats* stats);

/// RAII push-down of a per-query id filter into every VerifyCandidates /
/// CandidateVerifier call made by the current thread while the scope is
/// alive. The Search()/QueryBatch() entrypoints wrap the per-method Query()
/// hook in one of these, which is what makes `QueryRequest::filter` work
/// identically across all methods without touching their query code.
///
/// Scopes nest (the previous filter is restored on destruction) and are
/// strictly thread-local: a filter installed on one thread is invisible to
/// every other thread, so concurrent queries with different filters never
/// interfere. A null or empty filter deactivates filtering for the scope.
class ScopedQueryFilter {
 public:
  /// Installs `filter` (borrowed; must outlive the scope) as the calling
  /// thread's active filter. nullptr or an empty filter installs "no
  /// filtering".
  explicit ScopedQueryFilter(const QueryFilter* filter);
  ~ScopedQueryFilter();

  ScopedQueryFilter(const ScopedQueryFilter&) = delete;
  ScopedQueryFilter& operator=(const ScopedQueryFilter&) = delete;

  /// The calling thread's active filter, or nullptr when none is installed
  /// (consulted by VerifyCandidates; exposed for tests).
  static const QueryFilter* Active();

 private:
  const QueryFilter* previous_;
};

/// Streaming adapter over VerifyCandidates for index traversals that emit
/// candidates one at a time (cursors, bucket chains, B+-tree frontiers).
/// Offer() buffers deduplicated ids and flushes through the batch kernel
/// once kBatch are pending; callers must Flush() wherever their hand-rolled
/// loop re-read the verified-count or the heap threshold (typically at each
/// window/round boundary) so the early-exit decisions stay exact.
///
/// Exactness contract: the heap contents, the terminating candidate, and
/// candidates_verified match the historical per-candidate loops exactly.
/// points_accessed (and collision counters) can exceed the historical
/// numbers: an exit buried in a pending batch is only detected at the next
/// flush, so the caller keeps scanning — and counting accesses — through
/// the remainder of its current window/bucket before the flush boundary
/// latches the exit.
///
/// The dedup/marking step stays with the caller (epoch stamps, collision
/// counting); ids handed to Offer() must already be unique for the query.
class CandidateVerifier {
 public:
  static constexpr size_t kBatch = 32;

  /// `query`, `data`, `heap` and `stats` (nullable) must outlive the
  /// verifier; distances pushed are actual (non-squared) L2. When `data`
  /// is managed by a quantized VectorStore, the store's prepared query is
  /// built here, once per query, and reused by every flush.
  CandidateVerifier(const float* query, const FloatMatrix* data,
                    TopKHeap* heap, QueryStats* stats);

  /// Cumulative push budget across the whole query (not per flush).
  void set_budget(size_t budget) { budget_ = budget; }

  /// Certification bound for the current round; negative disables. May be
  /// tightened/re-set between rounds (callers flush at round boundaries).
  void set_dist_bound(double bound) { dist_bound_ = bound; }

  /// Buffers one candidate. Returns true when a flush has detected an
  /// early exit — the caller should stop feeding (pending semantics match
  /// the hand-rolled loops: the query terminates on true).
  bool Offer(uint32_t id) {
    if (done_) return true;
    buffer_[buffered_++] = id;
    if (buffered_ == kBatch) return Flush();
    return false;
  }

  /// Verifies a single candidate immediately (batch of one). For flows
  /// that must observe the updated heap threshold before the next
  /// candidate (PM-LSH / SRS projected-distance stop tests).
  bool VerifyNow(uint32_t id) {
    Offer(id);
    return Flush();
  }

  /// Drains the buffer through the batch kernel; returns done().
  bool Flush();

  /// True once the budget or distance bound tripped; latched.
  bool done() const { return done_; }

  /// Candidates pushed so far. Only counts flushed work — call Flush()
  /// first when using this in a loop condition.
  size_t verified() const { return verified_; }

  /// Live candidates dropped by the active query filter so far (flushed
  /// work only). verified() + filtered() is the distinct live candidates
  /// consumed — use it (not verified() alone) for "has everything been
  /// seen" termination tests so restrictive filters cannot disable them.
  size_t filtered() const { return filtered_; }

 private:
  const float* query_;
  const FloatMatrix* data_;
  TopKHeap* heap_;
  QueryStats* stats_;
  size_t budget_ = std::numeric_limits<size_t>::max();
  double dist_bound_ = -1.0;
  size_t verified_ = 0;
  size_t filtered_ = 0;
  bool done_ = false;
  size_t buffered_ = 0;
  uint32_t buffer_[kBatch];
  /// The store's prepared query (VectorStore::PrepareQuery); empty over
  /// fp32 data.
  std::vector<float> prepared_;
};

}  // namespace dblsh

#endif  // DBLSH_CORE_VERIFY_H_
