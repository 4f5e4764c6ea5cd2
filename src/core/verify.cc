#include "core/verify.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dataset/vector_store.h"
#include "simd/simd.h"

namespace dblsh {
namespace {

/// The calling thread's active per-query filter (see ScopedQueryFilter).
/// Plain thread_local pointer: install/lookup are a handful of instructions
/// on the query hot path and need no synchronization.
thread_local const QueryFilter* g_active_filter = nullptr;

}  // namespace

ScopedQueryFilter::ScopedQueryFilter(const QueryFilter* filter)
    : previous_(g_active_filter) {
  g_active_filter = (filter != nullptr && !filter->empty()) ? filter : nullptr;
}

ScopedQueryFilter::~ScopedQueryFilter() { g_active_filter = previous_; }

const QueryFilter* ScopedQueryFilter::Active() { return g_active_filter; }

namespace {

/// VerifyCandidates over a query already prepared for `data`'s store:
/// `prep` is VectorStore::PrepareQuery's output when the store is
/// quantized, and unused otherwise.
VerifyResult VerifyPrepared(const float* query, const float* prep,
                            const FloatMatrix& data, const uint32_t* ids,
                            size_t n, const VerifyOptions& options,
                            TopKHeap* heap, QueryStats* stats) {
  // Chunk sizing: with an early exit armed, small chunks bound the wasted
  // distance computations past the exit point; when no exit can fire (full
  // scans — LinearScan, ground truth) larger chunks keep the batch
  // kernel's prefetch lookahead warm across more rows.
  constexpr size_t kExitChunk = 32;
  constexpr size_t kScanChunk = 256;
  const bool exit_possible = options.dist_bound >= 0.0 || options.budget < n;
  const size_t chunk = exit_possible ? kExitChunk : kScanChunk;
  float d2[kScanChunk];
  VerifyResult result;
  const auto& kernels = simd::Active();
  const float* base = data.data().data();
  const size_t dim = data.cols();
  // Quantized storage: when a quantized VectorStore manages this matrix's
  // payload (the matrix is then a metadata shell), distances come from the
  // store's prepared-query scoring instead of the raw fp32 kernels. Every
  // other semantic below — tombstones, filters, budget, dist_bound, chunk
  // boundaries, push order — is identical, which is how quantization
  // reaches all 12 methods with zero per-method code. The fp32/unbound
  // path is untouched (one pointer test per call).
  const VectorStore* store = data.store();
  const bool quantized = store != nullptr && store->quantized();
  // Tombstone filter: erased rows are dropped after the batch distance
  // computation, before the push — they consume neither budget nor
  // candidates_verified. The flag is hoisted so the static (no-mutation)
  // path is byte-for-byte the historical loop. The thread's active query
  // filter (request push-down) gets identical drop semantics.
  const bool tombstones = data.has_tombstones();
  const QueryFilter* filter = ScopedQueryFilter::Active();
  for (size_t off = 0; off < n && !result.exited; off += chunk) {
    const size_t m = std::min(chunk, n - off);
    if (filter != nullptr) {
      // Filtered path: reject before the distance kernel — a restrictive
      // allow-list must not pay SIMD work for candidates it will drop.
      // Tombstones are tested first so a dead row never counts as a
      // filtered *live* candidate (result.filtered feeds coverage-based
      // termination against live_rows()).
      uint32_t keep[kScanChunk];
      size_t kept = 0;
      for (size_t j = 0; j < m; ++j) {
        const uint32_t id =
            ids != nullptr ? ids[off + j] : static_cast<uint32_t>(off + j);
        if (tombstones && data.IsDeleted(id)) continue;
        if (!filter->Admits(id)) {
          ++result.filtered;
          continue;
        }
        keep[kept++] = id;
      }
      if (kept == 0) continue;
      if (quantized) {
        store->ScoreBatch(prep, 0, keep, kept, d2);
      } else {
        kernels.l2_squared_batch(query, base, dim, keep, kept, d2);
      }
      for (size_t j = 0; j < kept; ++j) {
        heap->Push(std::sqrt(d2[j]), keep[j]);
        ++result.pushed;
        if (stats != nullptr) ++stats->candidates_verified;
        if (result.pushed >= options.budget ||
            (options.dist_bound >= 0.0 && heap->Full() &&
             heap->Threshold() <= options.dist_bound)) {
          result.exited = true;
          break;
        }
      }
      continue;
    }
    if (quantized) {
      if (ids != nullptr) {
        store->ScoreBatch(prep, 0, ids + off, m, d2);
      } else {
        store->ScoreBatch(prep, off, nullptr, m, d2);
      }
    } else if (ids != nullptr) {
      kernels.l2_squared_batch(query, base, dim, ids + off, m, d2);
    } else {
      // Contiguous rows: advance the base pointer instead of materializing
      // sequential ids.
      kernels.l2_squared_batch(query, base + off * dim, dim, nullptr, m, d2);
    }
    for (size_t j = 0; j < m; ++j) {
      const uint32_t id =
          ids != nullptr ? ids[off + j] : static_cast<uint32_t>(off + j);
      if (tombstones && data.IsDeleted(id)) continue;
      heap->Push(std::sqrt(d2[j]), id);
      ++result.pushed;
      if (stats != nullptr) ++stats->candidates_verified;
      if (result.pushed >= options.budget ||
          (options.dist_bound >= 0.0 && heap->Full() &&
           heap->Threshold() <= options.dist_bound)) {
        result.exited = true;
        break;  // drop the rest of the chunk, exactly like the old loops
      }
    }
  }
  return result;
}

}  // namespace

VerifyResult VerifyCandidates(const float* query, const FloatMatrix& data,
                              const uint32_t* ids, size_t n,
                              const VerifyOptions& options, TopKHeap* heap,
                              QueryStats* stats) {
  std::vector<float> prepared;
  const VectorStore* store = data.store();
  if (store != nullptr && store->quantized()) {
    store->PrepareQuery(query, &prepared);
  }
  return VerifyPrepared(query, prepared.data(), data, ids, n, options, heap,
                        stats);
}

CandidateVerifier::CandidateVerifier(const float* query,
                                     const FloatMatrix* data, TopKHeap* heap,
                                     QueryStats* stats)
    : query_(query), data_(data), heap_(heap), stats_(stats) {
  const VectorStore* store = data->store();
  if (store != nullptr && store->quantized()) {
    store->PrepareQuery(query, &prepared_);
  }
}

bool CandidateVerifier::Flush() {
  const size_t pending = buffered_;
  buffered_ = 0;
  if (pending == 0 || done_) return done_;
  if (budget_ <= verified_) {
    // Budget already consumed (possible only if a caller lowers it
    // mid-query): exit without verifying anything further.
    done_ = true;
    return true;
  }
  VerifyOptions options;
  options.budget = budget_ - verified_;
  options.dist_bound = dist_bound_;
  const VerifyResult result =
      VerifyPrepared(query_, prepared_.data(), *data_, buffer_, pending,
                     options, heap_, stats_);
  verified_ += result.pushed;
  filtered_ += result.filtered;
  if (result.exited) done_ = true;
  return done_;
}

}  // namespace dblsh
