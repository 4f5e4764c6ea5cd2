#include "replay.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "core/verify.h"
#include "dataset/ground_truth.h"
#include "durability/wal.h"
#include "harness.h"
#include "lsh/projection.h"
#include "rtree/rtree.h"

namespace dblsh::perfbench {
namespace {

/// One window the query traversed: which tree, the query-centric bucket,
/// and how many ids the traversal consumed before the query moved on.
struct WindowTrace {
  size_t tree = 0;
  rtree::Rect rect;
  size_t consumed = 0;
};

/// Per-query record of the exact replay.
struct QueryTrace {
  size_t rounds = 0;
  std::vector<uint32_t> verified;  ///< candidate ids, in verification order
};

double RelativeGap(double a, double b) {
  return std::fabs(a - b) / std::max(1e-12, std::fabs(b));
}

}  // namespace

ReplayResult ReplayIndexLayers(const ReplayInput& in) {
  ReplayResult out;
  const DbLshParams& p = in.params;
  const size_t nq = in.queries->rows();

  // The store the index scored through, rebuilt from the same rows: store
  // training is deterministic, so quantized codes come out identical. The
  // index projected the store's fp32 (decoded) view of those rows.
  auto store = MakeVectorStore(in.storage,
                               std::make_unique<FloatMatrix>(*in.rows), in.pq_m);
  const FloatMatrix& scored = store->matrix();
  const FloatMatrix geometry = store->DecodedCopy();
  const size_t n = geometry.rows();

  const lsh::ProjectionBank bank(p.l * p.k, geometry.cols(), p.seed);
  std::vector<FloatMatrix> spaces;
  {
    const FloatMatrix all = bank.ProjectDataset(geometry);
    for (size_t i = 0; i < p.l; ++i) {
      FloatMatrix space(n, p.k);
      for (size_t row = 0; row < n; ++row) {
        std::copy_n(all.row(row) + i * p.k, p.k, space.mutable_row(row));
      }
      spaces.push_back(std::move(space));
    }
  }
  std::vector<rtree::RStarTree> trees;
  trees.reserve(p.l);
  for (size_t i = 0; i < p.l; ++i) {
    trees.emplace_back(&spaces[i], p.rtree_options);
    if (!trees.back().BulkLoadAll().ok()) {
      out.mismatch = "replay bulk load failed";
      return out;
    }
  }
  out.height = static_cast<double>(trees[0].ComputeStats().height);
  const double r0 =
      p.r0 > 0.0 ? p.r0
                 : std::max(1e-6, EstimateNnDistance(geometry, p.seed ^ 0x5EEDULL) /
                                      (p.c * p.c));

  // Exact replay of the query path (radius ladder of L query-centric
  // windows, epoch-stamped dedup, batched verification with the same
  // budget and certification bound), recording what each layer was given.
  std::vector<WindowTrace> windows;
  std::vector<QueryTrace> traces(nq);
  std::vector<uint32_t> stamp(n, 0);
  std::vector<float> proj(p.l * p.k);
  QueryStats replay_total;
  QueryStats real_total;
  for (size_t q = 0; q < nq; ++q) {
    const float* query = in.queries->row(q);
    const auto epoch = static_cast<uint32_t>(q + 1);
    TopKHeap heap(in.k);
    QueryStats st;
    CandidateVerifier verifier(query, &scored, &heap, &st);
    verifier.set_budget(2 * p.t * p.l + in.k);
    double r = r0;
    for (size_t round = 0; round < 256; ++round) {
      ++st.rounds;
      bank.ProjectAll(query, proj.data());
      verifier.set_dist_bound(p.early_stop_slack * p.c * r);
      bool done = false;
      for (size_t i = 0; i < p.l && !done; ++i) {
        WindowTrace w{i, rtree::Rect::Window(proj.data() + i * p.k, p.k, p.w0 * r), 0};
        ++st.window_queries;
        rtree::RStarTree::WindowCursor cursor(&trees[i], w.rect);
        uint32_t id = 0;
        while (cursor.Next(&id)) {
          ++w.consumed;
          ++st.points_accessed;
          if (stamp[id] == epoch) continue;
          stamp[id] = epoch;
          traces[q].verified.push_back(id);
          if (verifier.Offer(id)) {
            done = true;
            break;
          }
        }
        windows.push_back(std::move(w));
        if (!done && verifier.Flush()) done = true;
      }
      if (!done) done = verifier.verified() + verifier.filtered() >= scored.live_rows();
      if (done) break;
      r *= p.c;
    }
    traces[q].rounds = st.rounds;
    // Offered-but-unverified ids (the tail of the batch that tripped the
    // exit) are not verification work.
    traces[q].verified.resize(st.candidates_verified);
    const QueryStats& real = in.real_stats[q];
    if (st.points_accessed == real.points_accessed &&
        st.candidates_verified == real.candidates_verified &&
        st.rounds == real.rounds && st.window_queries == real.window_queries) {
      ++out.exact_stats;
    }
    std::vector<Neighbor> got = heap.TakeSorted();
    if (got.size() == in.real_neighbors[q].size() &&
        std::equal(got.begin(), got.end(), in.real_neighbors[q].begin(),
                   [](const Neighbor& a, const Neighbor& b) { return a.id == b.id; })) {
      ++out.exact_neighbors;
    }
    replay_total.points_accessed += st.points_accessed;
    replay_total.candidates_verified += st.candidates_verified;
    replay_total.window_queries += st.window_queries;
    real_total.points_accessed += real.points_accessed;
    real_total.candidates_verified += real.candidates_verified;
    real_total.window_queries += real.window_queries;
  }
  out.ids_per_window = static_cast<double>(replay_total.points_accessed) /
                       static_cast<double>(std::max<size_t>(1, replay_total.window_queries));
  out.real_ids_per_window = static_cast<double>(real_total.points_accessed) /
                            static_cast<double>(std::max<size_t>(1, real_total.window_queries));
  out.candidates_per_query =
      static_cast<double>(replay_total.candidates_verified) / static_cast<double>(nq);
  out.real_candidates_per_query =
      static_cast<double>(real_total.candidates_verified) / static_cast<double>(nq);
  if (RelativeGap(out.ids_per_window, out.real_ids_per_window) > kReplayTolerance ||
      RelativeGap(out.candidates_per_query, out.real_candidates_per_query) >
          kReplayTolerance) {
    out.mismatch = "replay ids/window " + std::to_string(out.ids_per_window) +
                   " vs index " + std::to_string(out.real_ids_per_window) +
                   ", candidates/query " + std::to_string(out.candidates_per_query) +
                   " vs index " + std::to_string(out.real_candidates_per_query);
  }

  // Timed passes, one layer at a time, over exactly the recorded work.
  float sink = 0.f;
  size_t projections = 0;
  auto t0 = Clock::now();
  for (size_t q = 0; q < nq; ++q) {
    for (size_t round = 0; round < traces[q].rounds; ++round) {
      bank.ProjectAll(in.queries->row(q), proj.data());
      sink += proj[0];
      ++projections;
    }
  }
  out.project_us = 1e3 * MsBetween(t0, Clock::now()) /
                   static_cast<double>(std::max<size_t>(1, projections));

  uint32_t id_sink = 0;
  t0 = Clock::now();
  for (const WindowTrace& w : windows) {
    rtree::RStarTree::WindowCursor cursor(&trees[w.tree], w.rect);
    uint32_t id = 0;
    for (size_t c = 0; c < w.consumed && cursor.Next(&id); ++c) id_sink ^= id;
  }
  out.window_us = 1e3 * MsBetween(t0, Clock::now()) /
                  static_cast<double>(std::max<size_t>(1, windows.size()));

  size_t candidates = 0;
  t0 = Clock::now();
  for (size_t q = 0; q < nq; ++q) {
    TopKHeap heap(in.k);
    VerifyCandidates(in.queries->row(q), scored, traces[q].verified.data(),
                     traces[q].verified.size(), VerifyOptions(), &heap, nullptr);
    sink += heap.Threshold();
    candidates += traces[q].verified.size();
  }
  out.verify_ns_per_candidate = 1e6 * MsBetween(t0, Clock::now()) /
                                static_cast<double>(std::max<size_t>(1, candidates));

  std::vector<float> prep;
  std::vector<float> scores;
  double prepare_ms = 0;
  double score_ms = 0;
  for (size_t q = 0; q < nq; ++q) {
    const std::vector<uint32_t>& ids = traces[q].verified;
    scores.resize(ids.size());
    t0 = Clock::now();
    store->PrepareQuery(in.queries->row(q), &prep);
    const auto t1 = Clock::now();
    store->ScoreBatch(prep.data(), 0, ids.data(), ids.size(), scores.data());
    const auto t2 = Clock::now();
    prepare_ms += MsBetween(t0, t1);
    score_ms += MsBetween(t1, t2);
    if (!scores.empty()) sink += scores[0];
  }
  out.prepare_us = 1e3 * prepare_ms / static_cast<double>(nq);
  out.score_ns_per_candidate =
      1e6 * score_ms / static_cast<double>(std::max<size_t>(1, candidates));

  // Insert cost: bulk load all but the last rows of space 0, then insert
  // those rows one at a time, as the index's Insert does per space.
  const size_t inserts = std::min<size_t>(1000, n / 10);
  rtree::RStarTree grown(&spaces[0], p.rtree_options);
  std::vector<uint32_t> base(n - inserts);
  for (size_t i = 0; i < base.size(); ++i) base[i] = static_cast<uint32_t>(i);
  if (!grown.BulkLoad(base).ok()) {
    out.mismatch = "replay insert-tree bulk load failed";
    return out;
  }
  t0 = Clock::now();
  for (size_t i = n - inserts; i < n; ++i) {
    if (!grown.Insert(static_cast<uint32_t>(i)).ok()) {
      out.mismatch = "replay R*-tree insert failed";
      return out;
    }
  }
  out.insert_us = 1e3 * MsBetween(t0, Clock::now()) /
                  static_cast<double>(std::max<size_t>(1, inserts));
  // Keep the timed loops observable.
  if (sink == 1.2345f && id_sink == 7) std::printf("#\n");
  return out;
}

Result<WalTiming> ReplayWal(const std::string& path, uint32_t dim,
                            size_t appends, size_t syncs) {
  // sync_every far above the append count: only the explicit Sync() calls
  // below reach the disk.
  auto made = durability::WalWriter::Create(path, dim, 1u << 30);
  if (!made.ok()) return made.status();
  durability::WalWriter& wal = *made.value();
  std::vector<float> vec(dim);
  for (size_t j = 0; j < dim; ++j) vec[j] = static_cast<float>(j);
  WalTiming out;
  uint64_t lsn = 0;
  auto t0 = Clock::now();
  for (size_t i = 0; i < appends; ++i) {
    Status s = wal.Append(++lsn, durability::WalOp::kUpsert,
                          static_cast<uint32_t>(i), vec.data());
    if (!s.ok()) return s;
  }
  out.append_us = 1e3 * MsBetween(t0, Clock::now()) / static_cast<double>(appends);
  double sync_ms = 0;
  for (size_t i = 0; i < syncs; ++i) {
    Status s = wal.Append(++lsn, durability::WalOp::kDelete,
                          static_cast<uint32_t>(i), nullptr);
    if (!s.ok()) return s;
    t0 = Clock::now();
    s = wal.Sync();
    sync_ms += MsBetween(t0, Clock::now());
    if (!s.ok()) return s;
  }
  out.sync_us = 1e3 * sync_ms / static_cast<double>(syncs);
  made.value().reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return out;
}

}  // namespace dblsh::perfbench
