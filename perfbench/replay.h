// Layer replays: the benchmark re-runs the work of one DB-LSH query through
// each layer's public functions (projection bank, R*-tree window cursor,
// candidate verification, vector-store scoring) and times each layer on
// its own, and times WAL appends and syncs on a scratch segment. Nothing
// inside the library is instrumented; the replay's work counters are
// checked against the real index's QueryStats so the layer split describes
// the same work the index did.
#ifndef DBLSH_PERFBENCH_REPLAY_H_
#define DBLSH_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/db_lsh.h"
#include "core/query.h"
#include "dataset/float_matrix.h"
#include "dataset/vector_store.h"
#include "util/status.h"

namespace dblsh::perfbench {

/// One built DB-LSH index to replay: the fp32 rows it was built from (its
/// local ids), its storage backend and effective parameters, and what the
/// real index reported for each query at index-level k.
struct ReplayInput {
  const FloatMatrix* rows = nullptr;
  StorageKind storage = StorageKind::kFp32;
  size_t pq_m = 16;
  DbLshParams params;
  const FloatMatrix* queries = nullptr;
  size_t k = 10;
  std::vector<QueryStats> real_stats;
  std::vector<std::vector<Neighbor>> real_neighbors;
};

struct ReplayResult {
  double project_us = 0;          ///< one ProjectionBank::ProjectAll call
  double window_us = 0;           ///< one window traversal, as the query ran it
  double ids_per_window = 0;      ///< ids the traversal yielded per window
  double real_ids_per_window = 0; ///< the index's points_accessed / windows
  double candidates_per_query = 0;       ///< replay candidates verified
  double real_candidates_per_query = 0;  ///< the index's candidates_verified
  double verify_ns_per_candidate = 0;    ///< VerifyCandidates over the ids
  double prepare_us = 0;          ///< VectorStore::PrepareQuery per query
  double score_ns_per_candidate = 0;     ///< VectorStore::ScoreBatch
  double insert_us = 0;           ///< RStarTree::Insert of one projected row
  double height = 0;              ///< R*-tree height after bulk load
  size_t exact_stats = 0;         ///< queries whose counters match exactly
  size_t exact_neighbors = 0;     ///< queries whose answers match exactly
  /// Empty when the replay agrees with the index within kReplayTolerance.
  std::string mismatch;
};

/// Largest relative gap allowed between the replay's mean ids per window
/// (and mean candidates per query) and the real index's.
inline constexpr double kReplayTolerance = 0.01;

ReplayResult ReplayIndexLayers(const ReplayInput& input);

struct WalTiming {
  double append_us = 0;  ///< WalWriter::Append without a sync
  double sync_us = 0;    ///< WalWriter::Sync after one append
};

/// Appends `appends` dim-`dim` upsert records to a fresh segment at
/// `path`, then times `syncs` append+Sync pairs; removes the segment.
Result<WalTiming> ReplayWal(const std::string& path, uint32_t dim,
                            size_t appends, size_t syncs);

}  // namespace dblsh::perfbench

#endif  // DBLSH_PERFBENCH_REPLAY_H_
