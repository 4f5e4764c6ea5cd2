#include "core/ann_index.h"

#include <algorithm>

#include "core/verify.h"
#include "exec/task_executor.h"

namespace dblsh {

namespace detail {

Status ValidateRebind(const std::string& method, const FloatMatrix* current,
                      const FloatMatrix* target) {
  if (current == nullptr) {
    return Status::InvalidArgument(method +
                                   ": RebindData requires a built index");
  }
  if (target == nullptr) {
    return Status::InvalidArgument(method + ": RebindData target is null");
  }
  if (target->rows() != current->rows() ||
      target->cols() != current->cols()) {
    return Status::InvalidArgument(
        method + ": RebindData target shape " +
        std::to_string(target->rows()) + "x" +
        std::to_string(target->cols()) + " does not match the built " +
        std::to_string(current->rows()) + "x" +
        std::to_string(current->cols()));
  }
  return Status::OK();
}

}  // namespace detail

Status AnnIndex::Insert(uint32_t /*id*/) {
  return Status::Unimplemented(
      Name() +
      " does not support dynamic updates (SupportsUpdates() == false); "
      "rebuild the index to absorb new points");
}

Status AnnIndex::RebindData(const FloatMatrix* /*data*/) {
  return Status::Unimplemented(
      Name() +
      " does not support rebinding its dataset reference; rebuild over the "
      "target matrix instead");
}

Status AnnIndex::Erase(uint32_t /*id*/) {
  return Status::Unimplemented(
      Name() +
      " does not support dynamic updates (SupportsUpdates() == false); "
      "tombstone the row with FloatMatrix::EraseRow — the shared "
      "verification path already keeps it out of this index's results — "
      "and rebuild before recycling the slot");
}

QueryResponse AnnIndex::Search(const float* query,
                               const QueryRequest& request) const {
  QueryResponse response;
  // Push the request's filter down into the shared verification path for
  // the duration of the per-method Query() hook (thread-local, so batched
  // workers each install their own).
  ScopedQueryFilter filter_scope(&request.filter);
  response.neighbors = Query(query, request.k, &response.stats);
  return response;
}

std::vector<QueryResponse> AnnIndex::QueryBatch(const FloatMatrix& queries,
                                                const QueryRequest& request,
                                                size_t num_threads) const {
  const size_t q_count = queries.rows();
  std::vector<QueryResponse> responses(q_count);
  if (q_count == 0) return responses;

  if (!SupportsConcurrentQueries()) {
    num_threads = 1;
  } else if (num_threads == 0) {
    num_threads = exec::HardwareConcurrency();
  }
  num_threads = std::min(num_threads, q_count);

  exec::TaskExecutor::Default().ParallelFor(
      q_count,
      [&](size_t q) { responses[q] = Search(queries.row(q), request); },
      num_threads);
  return responses;
}

}  // namespace dblsh
