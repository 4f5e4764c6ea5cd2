#include "core/db_lsh.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>

#include "core/index_factory.h"
#include "dataset/ground_truth.h"
#include "util/distance.h"
#include "util/random.h"

namespace dblsh {

DbLsh::DbLsh(DbLshParams params) : params_(params) {}

std::string DbLsh::Name() const {
  return params_.bucketing == BucketingMode::kDynamicQueryCentric ? "DB-LSH"
                                                                  : "FB-LSH";
}

Status DbLsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("DbLsh::Build requires a non-empty dataset");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.l == 0) {
    return Status::InvalidArgument("number of projected spaces l must be >= 1");
  }
  if (params_.early_stop_slack < 1.0) {
    return Status::InvalidArgument(
        "early_stop_slack must be >= 1 (1 = the paper's exact condition)");
  }
  data_ = data;
  const size_t n = data->rows();

  // Paper defaults (Sec. VI-A).
  if (params_.w0 <= 0.0) params_.w0 = 4.0 * params_.c * params_.c;
  if (params_.k == 0) params_.k = (n > 1000000) ? 12 : 10;
  if (params_.t == 0) {
    // Default candidate budget 2tL ~ max(192, 4*sqrt(n)): grows sub-linearly
    // with n (the theory's budget is O(tL) = O(n^rho*)), which is what keeps
    // the measured query time sub-linear in the vary-n experiment while
    // sustaining ~90% recall on clustered data.
    const size_t budget = std::max<size_t>(
        192, static_cast<size_t>(4.0 * std::sqrt(static_cast<double>(n))));
    params_.t = std::max<size_t>(8, budget / (2 * params_.l));
  }
  // An under-estimated r0 only costs a few cheap empty rounds; an
  // over-estimate only widens the first window, so the sample NN distance is
  // divided by c^2 for safety.
  auto_r0_ = params_.r0 > 0.0
                 ? params_.r0
                 : std::max(1e-6, EstimateNnDistance(
                                      *data, params_.seed ^ 0x5EEDULL) /
                                      (params_.c * params_.c));

  bank_ = std::make_unique<lsh::ProjectionBank>(params_.l * params_.k,
                                                data->cols(), params_.seed);

  // Project the dataset once and slice into the L K-dimensional spaces.
  projected_.clear();
  projected_.reserve(params_.l);
  {
    FloatMatrix all = bank_->ProjectDataset(*data);
    for (size_t i = 0; i < params_.l; ++i) {
      FloatMatrix space(n, params_.k);
      for (size_t row = 0; row < n; ++row) {
        const float* src = all.row(row) + i * params_.k;
        std::copy_n(src, params_.k, space.mutable_row(row));
      }
      projected_.push_back(std::move(space));
    }
  }

  trees_.clear();
  kd_trees_.clear();
  if (params_.backend == IndexBackend::kRStarTree) {
    // Building over a mutated dataset (e.g. the streaming bench's rebuild
    // baseline) indexes live rows only; tombstoned slots stay out of the
    // trees so they can be recycled by InsertRow + Insert later.
    std::vector<uint32_t> live;
    if (data->has_tombstones()) {
      live.reserve(data->live_rows());
      for (uint32_t id = 0; id < n; ++id) {
        if (!data->IsDeleted(id)) live.push_back(id);
      }
    }
    trees_.reserve(params_.l);
    for (size_t i = 0; i < params_.l; ++i) {
      trees_.emplace_back(&projected_[i], params_.rtree_options);
      if (params_.bulk_load) {
        if (data->has_tombstones()) {
          DBLSH_RETURN_IF_ERROR(trees_.back().BulkLoad(live));
        } else {
          DBLSH_RETURN_IF_ERROR(trees_.back().BulkLoadAll());
        }
      } else {
        for (uint32_t id = 0; id < n; ++id) {
          if (data->IsDeleted(id)) continue;
          DBLSH_RETURN_IF_ERROR(trees_.back().Insert(id));
        }
      }
    }
  } else {
    kd_trees_.reserve(params_.l);
    for (size_t i = 0; i < params_.l; ++i) {
      kd_trees_.push_back(std::make_unique<kdtree::KdTree>(&projected_[i]));
    }
  }

  // Fixed-grid bucketing uses uniform random cell offsets (the `b` of the
  // static family, Eq. 1) so boundary losses are unbiased across functions.
  grid_offsets_.assign(params_.l * params_.k, 0.f);
  if (params_.bucketing == BucketingMode::kFixedGrid) {
    Rng rng(params_.seed ^ 0x0FF5E7ULL);
    for (auto& b : grid_offsets_) {
      b = static_cast<float>(rng.NextDouble());  // fraction of cell width
    }
  }

  return Status::OK();
}

DbLsh::QueryScratch& DbLsh::ThreadLocalScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

uint32_t DbLsh::PrepareScratch(QueryScratch* scratch) const {
  // Grow only: switching between indexes of unequal size (e.g. the shards
  // of one collection) must not re-zero the buffer. Entries past this
  // index's rows are never read, and every stamp already written is below
  // the next epoch, so no stale stamp can alias this query's.
  if (scratch->visited_epoch.size() < data_->rows()) {
    scratch->visited_epoch.resize(data_->rows(), 0);
  }
  if (++scratch->epoch == 0) {  // epoch wrapped: reset stamps
    std::fill(scratch->visited_epoch.begin(), scratch->visited_epoch.end(),
              0);
    scratch->epoch = 1;
  }
  return scratch->epoch;
}

rtree::Rect DbLsh::MakeBucket(const float* proj_center, size_t tree_index,
                              double width) const {
  if (params_.bucketing == BucketingMode::kDynamicQueryCentric) {
    return rtree::Rect::Window(proj_center, params_.k, width);
  }
  // Fixed (query-oblivious) grid cell of side `width` containing the query's
  // projection: the FB-LSH ablation. Cells tile the space at offsets `b`
  // (Eq. 1), independent of the query, so near-boundary neighbors can be
  // cut off — the hash-boundary problem DB-LSH eliminates.
  rtree::Rect cell(params_.k);
  for (size_t j = 0; j < params_.k; ++j) {
    const double offset =
        grid_offsets_[tree_index * params_.k + j] * width;
    const auto base = static_cast<float>(
        std::floor((proj_center[j] - offset) / width) * width + offset);
    cell.lo(j) = base;
    cell.hi(j) = static_cast<float>(base + width);
  }
  return cell;
}

bool DbLsh::RunRound(const float* query, double r,
                     CandidateVerifier* verifier,
                     std::vector<uint32_t>* visited_mark,
                     uint32_t query_epoch, QueryStats* stats) const {
  const double width = params_.w0 * r;
  const double c = params_.c;
  std::vector<float> proj(params_.l * params_.k);
  bank_->ProjectAll(query, proj.data());

  // Algorithm 1's termination tests — candidate budget exhausted, or the
  // k-th best distance certifying a (r,c)-NN result (optionally relaxed by
  // the early-stop slack) — live inside the verifier and are evaluated per
  // candidate in arrival order, so batching through the SIMD kernel leaves
  // the terminating candidate (and thus the heap) unchanged.
  verifier->set_dist_bound(params_.early_stop_slack * c * r);

  // Per-candidate dedup shared by both index backends; unseen ids are fed
  // to the batch verifier. Returns true when Algorithm 1 may terminate.
  auto process = [&](uint32_t id) -> bool {
    if (stats != nullptr) ++stats->points_accessed;
    if ((*visited_mark)[id] == query_epoch) return false;
    (*visited_mark)[id] = query_epoch;
    return verifier->Offer(id);
  };

  for (size_t i = 0; i < params_.l; ++i) {
    const float* center = proj.data() + i * params_.k;
    const rtree::Rect bucket = MakeBucket(center, i, width);
    if (stats != nullptr) ++stats->window_queries;
    uint32_t id = 0;
    if (params_.backend == IndexBackend::kRStarTree) {
      rtree::RStarTree::WindowCursor cursor(&trees_[i], bucket);
      while (cursor.Next(&id)) {
        if (process(id)) return true;
      }
    } else {
      std::vector<float> lo(params_.k), hi(params_.k);
      for (size_t j = 0; j < params_.k; ++j) {
        lo[j] = bucket.lo(j);
        hi[j] = bucket.hi(j);
      }
      kdtree::KdTree::WindowCursor cursor(kd_trees_[i].get(), lo.data(),
                                          hi.data());
      while (cursor.Next(&id)) {
        if (process(id)) return true;
      }
    }
    if (verifier->Flush()) return true;  // window boundary: settle exits
  }
  // All L windows drained without termination: round reports "not done".
  // (If every live point has been consumed — pushed, or dropped by the
  // request's filter — there is nothing left to find. Counting filtered
  // drops matters: a restrictive filter keeps the heap from filling and
  // the budget from tripping, and without this exit the radius ladder
  // would run its full 256 rounds of ever-larger window scans.)
  return verifier->verified() + verifier->filtered() >= data_->live_rows();
}

std::vector<Neighbor> DbLsh::Query(const float* query, size_t k,
                                   QueryStats* stats) const {
  return QueryImpl(query, k, params_.t, auto_r0_, stats);
}

QueryResponse DbLsh::Search(const float* query,
                            const QueryRequest& request) const {
  QueryResponse response;
  const size_t t =
      request.candidate_budget > 0 ? request.candidate_budget : params_.t;
  const double r0 = request.r0 > 0.0 ? request.r0 : auto_r0_;
  ScopedQueryFilter filter_scope(&request.filter);
  response.neighbors = QueryImpl(query, request.k, t, r0, &response.stats);
  return response;
}

std::vector<Neighbor> DbLsh::QueryImpl(const float* query, size_t k, size_t t,
                                       double r0, QueryStats* stats) const {
  assert(data_ != nullptr && "Build() must succeed before Query()");
  if (k == 0 || data_ == nullptr) return {};

  QueryScratch& scratch = ThreadLocalScratch();
  const uint32_t epoch = PrepareScratch(&scratch);
  TopKHeap heap(k);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(2 * t * params_.l + k);
  double r = r0;
  // The radius ladder r0, c*r0, c^2*r0, ... terminates via the Algorithm 1
  // conditions; the iteration cap only guards degenerate inputs (it allows
  // the window to outgrow any float data spread).
  for (size_t round = 0; round < 256; ++round) {
    if (stats != nullptr) ++stats->rounds;
    if (RunRound(query, r, &verifier, &scratch.visited_epoch, epoch, stats)) {
      break;
    }
    r *= params_.c;
  }
  return heap.TakeSorted();
}

std::optional<Neighbor> DbLsh::RcNnQuery(const float* query, double r,
                                         QueryStats* stats) const {
  assert(data_ != nullptr && "Build() must succeed before Query()");
  QueryScratch& scratch = ThreadLocalScratch();
  const uint32_t epoch = PrepareScratch(&scratch);
  const size_t budget = 2 * params_.t * params_.l + 1;
  TopKHeap heap(1);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);
  if (stats != nullptr) ++stats->rounds;
  const bool done =
      RunRound(query, r, &verifier, &scratch.visited_epoch, epoch, stats);
  if (!done && heap.Size() == 0) return std::nullopt;
  std::vector<Neighbor> best = heap.TakeSorted();
  if (best.empty()) return std::nullopt;
  // Definition 2: report a point only when it certifies the (r,c)-NN
  // answer (within c*r) or the candidate budget tripped (event E2 then
  // guarantees the point is within c*r with constant probability).
  if (best[0].dist <= params_.c * r || verifier.verified() >= budget) {
    return best[0];
  }
  return std::nullopt;
}

bool DbLsh::SupportsUpdates() const {
  return params_.backend == IndexBackend::kRStarTree;
}

Status DbLsh::Insert(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Insert() requires a built index");
  }
  if (params_.backend != IndexBackend::kRStarTree) {
    return Status::Unimplemented(
        "the kd-tree backend is bulk-built and static; rebuild, or use "
        "backend=rtree for dynamic updates");
  }
  if (id >= data_->rows() || data_->IsDeleted(id)) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): not a live row of the backing dataset (insert the vector with "
        "FloatMatrix::InsertRow first)");
  }
  if (id > projected_[0].rows()) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): appended ids must arrive densely (next expected id is " +
        std::to_string(projected_[0].rows()) + ")");
  }
  std::vector<float> proj(params_.l * params_.k);
  bank_->ProjectAll(data_->row(id), proj.data());
  for (size_t i = 0; i < params_.l; ++i) {
    FloatMatrix& space = projected_[i];
    const float* src = proj.data() + i * params_.k;
    if (id == space.rows()) {
      space.AppendRow(src, params_.k);
    } else {
      // Recycled slot: the caller Erase()d it from the trees earlier, so
      // overwriting the projected row cannot invalidate any stored entry.
      std::copy_n(src, params_.k, space.mutable_row(id));
    }
    DBLSH_RETURN_IF_ERROR(trees_[i].Insert(id));
  }
  return Status::OK();
}

Status DbLsh::Erase(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Erase() requires a built index");
  }
  if (params_.backend != IndexBackend::kRStarTree) {
    return Status::Unimplemented(
        "the kd-tree backend is bulk-built and static; tombstone the row "
        "with FloatMatrix::EraseRow and rebuild before recycling the slot");
  }
  for (size_t i = 0; i < params_.l; ++i) {
    DBLSH_RETURN_IF_ERROR(trees_[i].Remove(id));
  }
  return Status::OK();
}

size_t DbLsh::IndexEntries() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree.size();
  for (const auto& tree : kd_trees_) total += tree->size();
  return total;
}

Result<DbLshParams> DbLshParamsFromSpec(const IndexFactory::Spec& spec,
                                        DbLshParams base) {
  SpecReader reader(spec);
  reader.Key("c", &base.c);
  reader.Key("w0", &base.w0);
  reader.Key("k", &base.k);
  reader.Key("l", &base.l);
  reader.Key("t", &base.t);
  reader.Key("r0", &base.r0);
  reader.Key("early_stop_slack", &base.early_stop_slack);
  reader.Key("seed", &base.seed);
  reader.Key("bulk_load", &base.bulk_load);
  std::string bucketing;
  std::string backend;
  reader.Key("bucketing", &bucketing);
  reader.Key("backend", &backend);
  DBLSH_RETURN_IF_ERROR(reader.Finish());
  if (!bucketing.empty()) {
    if (bucketing == "dynamic") {
      base.bucketing = BucketingMode::kDynamicQueryCentric;
    } else if (bucketing == "fixed") {
      base.bucketing = BucketingMode::kFixedGrid;
    } else {
      return Status::InvalidArgument(
          "bucketing must be \"dynamic\" or \"fixed\", got \"" + bucketing +
          "\"");
    }
  }
  if (!backend.empty()) {
    if (backend == "rtree") {
      base.backend = IndexBackend::kRStarTree;
    } else if (backend == "kdtree") {
      base.backend = IndexBackend::kKdTree;
    } else {
      return Status::InvalidArgument(
          "backend must be \"rtree\" or \"kdtree\", got \"" + backend + "\"");
    }
  }
  return base;
}

DBLSH_REGISTER_INDEX(
    kRegisterDbLsh, "DB-LSH",
    "DB-LSH (Tian et al., ICDE 2022): dynamic query-centric bucketing over "
    "L R*-tree-indexed K-dim projected spaces",
    [](const IndexFactory::Spec& spec) -> Result<std::unique_ptr<AnnIndex>> {
      auto params = DbLshParamsFromSpec(spec, DbLshParams());
      if (!params.ok()) return params.status();
      std::unique_ptr<AnnIndex> index =
          std::make_unique<DbLsh>(params.value());
      return index;
    });


Status DbLsh::RebindData(const FloatMatrix* data) {
  DBLSH_RETURN_IF_ERROR(detail::ValidateRebind(Name(), data_, data));
  data_ = data;
  return Status::OK();
}

}  // namespace dblsh
