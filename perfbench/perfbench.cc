// Benchmark program (run it through run.py, which builds it):
//
//   search_fp32  in-process Collection (DB-LSH, one shard, fp32 rows) over
//                the SIFT10M stand-in; closed loop of 3 reader threads.
//   search_pq    the same data, queries and loop under storage=pq,m=16
//                (runnable by hand; not listed in BENCHMARK.json).
//   serve_mixed  loopback serve::Server over a durable, 4-shard fp32
//                collection of 20k x 32 clustered rows: an open-loop read
//                stream with a paced writer beside it, saturated reads, a
//                quiescent recall probe, then Shutdown and a timed reopen.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (timed calls into each layer's public functions, the
// layer replays, server and durability counters) and the tracing
// overhead. Every answer is checked; a failed check makes the last-line
// JSON report "correct": false and the exit code 1. Scratch files live
// under --workdir, which is removed on exit.
#include <malloc.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/collection.h"
#include "core/db_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "harness.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/server.h"
#include "simd/simd.h"
#include "util/perfmon.h"
#include "util/random.h"

namespace dblsh::perfbench {
namespace {

constexpr size_t kQueries = 1000;    // held out with SplitQueries
constexpr size_t kK = 10;
constexpr size_t kReaders = 3;       // load threads on a 4-CPU host
constexpr size_t kSetupRuns = 3;     // setup_s is their median
constexpr size_t kServeSetupRuns = 9;  // cheap, so more of them
constexpr size_t kReopenRuns = 3;    // serve_mixed reopen time is their median
constexpr size_t kWriteLag = 16;     // deletes trail inserts by this many ids
constexpr double kServeReadRate = 1000.0;  // about a fifth of the saturated rate
constexpr double kServeWriteShare = 0.05;
constexpr size_t kPipelineWindow = 64;     // saturated in-flight requests
constexpr size_t kServeShards = 4;
constexpr const char* kIndex = "DB-LSH";
constexpr const char* kServed = "main";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
}

// ------------------------------------------------------------ host drift --

/// A fixed scalar loop (integer hash + float accumulate, no memory
/// traffic): its wall time before and after a run shows how fast this
/// host's CPU was, independent of the code under test.
volatile double g_calibration_sink = 0;  // keeps the loop's result observable

double CalibrationMs() {
  const auto t0 = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xFFFF) * 1e-6;
  }
  g_calibration_sink = acc;
  return MsBetween(t0, Clock::now());
}

/// Dependent loads around one random cycle through 64 MiB, the size of the
/// search workloads' rows: ns per load shows how much of the host's shared
/// last-level cache and memory bandwidth other tenants were taking, which
/// moves the memory-bound search figures and which the scalar loop cannot
/// see.
double MemoryProbeNs() {
  constexpr size_t kSlots = size_t{1} << 24;
  constexpr size_t kHops = size_t{1} << 21;
  std::vector<uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  Rng rng(0x3E3A);
  for (size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: a single cycle
    std::swap(next[i], next[rng.UniformInt(i)]);
  }
  uint32_t at = 0;
  const auto t0 = Clock::now();
  for (size_t h = 0; h < kHops; ++h) at = next[at];
  const double ns = 1e6 * MsBetween(t0, Clock::now()) / static_cast<double>(kHops);
  g_calibration_sink = at;
  return ns;
}

/// Cumulative CPU steal ticks of the host (/proc/stat), 0 when absent.
double StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) : 0;
}

double RssMb() {
  malloc_trim(0);
  return static_cast<double>(perfmon::SampleMemory().resident_bytes) / 1e6;
}

// ------------------------------------------------------------------ data --

struct Dataset {
  FloatMatrix rows;     // indexed rows, ids 0..n-1
  FloatMatrix queries;  // held-out queries
  FloatMatrix fresh;    // vectors for the write stream
};

/// `count` new vectors from the data's distribution: random rows plus
/// Gaussian noise of the generator's cluster spread.
FloatMatrix FreshVectors(const FloatMatrix& rows, size_t count, double stddev,
                         uint64_t seed) {
  Rng rng(seed ^ 0xF2E5ULL);
  FloatMatrix out(count, rows.cols());
  for (size_t i = 0; i < count; ++i) {
    const float* base = rows.row(rng.UniformInt(rows.rows()));
    for (size_t j = 0; j < rows.cols(); ++j) {
      out.mutable_row(i)[j] = base[j] + static_cast<float>(rng.Gaussian() * stddev);
    }
  }
  return out;
}

Dataset MakeSiftStandIn(uint64_t seed, size_t fresh) {
  DatasetProfile profile{};
  for (const DatasetProfile& p : PaperDatasetProfiles()) {
    if (p.name == "SIFT10M") profile = p;
  }
  Dataset ds;
  SplitQueries(GenerateProfile(profile, seed), kQueries, seed ^ 0x51EDULL,
               &ds.rows, &ds.queries);
  ds.fresh = FreshVectors(ds.rows, fresh, profile.cluster_stddev, seed);
  return ds;
}

Dataset MakeServeData(uint64_t seed, size_t fresh) {
  ClusteredSpec spec;
  spec.n = 20000;
  spec.dim = 32;
  spec.seed = seed;
  Dataset ds;
  SplitQueries(GenerateClustered(spec), kQueries, seed ^ 0x51EDULL, &ds.rows,
               &ds.queries);
  ds.fresh = FreshVectors(ds.rows, fresh, spec.cluster_stddev, seed);
  return ds;
}

/// Exact top-k ids of every query over `rows` (tombstones skipped), on a
/// few threads.
std::vector<std::vector<uint32_t>> GroundTruth(const FloatMatrix& rows,
                                               const FloatMatrix& queries) {
  std::vector<std::vector<uint32_t>> truth(queries.rows());
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kReaders; ++t) {
    workers.emplace_back([&, t] {
      for (size_t q = t; q < queries.rows(); q += kReaders) {
        for (const Neighbor& n : ExactKnn(rows, queries.row(q), kK)) {
          truth[q].push_back(n.id);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return truth;
}

// ---------------------------------------------------------- write stream --

/// The write mix: alternate an upsert of the next fresh vector with a
/// delete of the oldest id this stream inserted (once kWriteLag are
/// outstanding). A single writer issues it in order, so the final state
/// is a function of the seed.
class WriteStream {
 public:
  explicit WriteStream(const FloatMatrix* fresh) : fresh_(fresh) {}

  /// True when op `i` deletes; the id is NextDelete().
  bool IsDelete(size_t i) const { return i % 2 == 1 && inserted_.size() > kWriteLag; }
  uint32_t NextDelete() const { return inserted_.front(); }
  const float* NextVector() const { return fresh_->row(next_fresh_); }

  void Inserted(uint32_t id) {
    inserted_.push_back(id);
    ++next_fresh_;
  }
  void Deleted() { inserted_.pop_front(); }
  void Skipped() { ++next_fresh_; }

 private:
  const FloatMatrix* fresh_;
  std::deque<uint32_t> inserted_;
  size_t next_fresh_ = 0;
};

/// The benchmark's own record of every acknowledged write: the expected
/// live set and each live id's vector.
class Ledger {
 public:
  explicit Ledger(const FloatMatrix& seed_rows) : dim_(seed_rows.cols()) {
    for (size_t i = 0; i < seed_rows.rows(); ++i) {
      rows_.emplace_back(seed_rows.row(i), seed_rows.row(i) + dim_);
      live_.push_back(1);
    }
  }
  void Put(uint32_t id, const float* vec) {
    if (id >= rows_.size()) {
      rows_.resize(id + 1);
      live_.resize(id + 1, 0);
    }
    rows_[id].assign(vec, vec + dim_);
    live_[id] = 1;
  }
  void Kill(uint32_t id) {
    if (id < live_.size()) live_[id] = 0;
  }
  bool Live(uint32_t id) const { return id < live_.size() && live_[id]; }
  const float* Row(uint32_t id) const { return Live(id) ? rows_[id].data() : nullptr; }
  size_t size() const { return live_.size(); }
  size_t LiveCount() const {
    return static_cast<size_t>(std::count(live_.begin(), live_.end(), 1));
  }
  /// Dense matrix of the live rows plus their ids (ground-truth input).
  FloatMatrix LiveMatrix(std::vector<uint32_t>* ids) const {
    FloatMatrix m;
    for (uint32_t id = 0; id < live_.size(); ++id) {
      if (!live_[id]) continue;
      m.AppendRow(rows_[id].data(), dim_);
      ids->push_back(id);
    }
    return m;
  }

 private:
  size_t dim_;
  std::vector<std::vector<float>> rows_;
  std::vector<uint8_t> live_;
};

// ------------------------------------------------------- search workloads --

/// One timed call into a layer, kept in memory by the traced runs.
struct Span {
  Clock::time_point start;
  Clock::time_point end;
};

struct LoopResult {
  double qps = 0;
  std::vector<LatencySample> latency;
  size_t spans = 0;
};

/// Closed loop: kReaders threads each call Collection::Search back to back
/// for `seconds`, cycling through the queries from different offsets.
/// With `traced`, every call also leaves a span in its thread's buffer.
LoopResult ClosedLoop(const Collection& coll, const FloatMatrix& queries,
                      double seconds, bool traced, bool check_distances,
                      const std::function<IdInfo(uint32_t)>& lookup, Report* report) {
  QueryRequest request;
  request.k = kK;
  std::vector<std::vector<LatencySample>> latency(kReaders);
  std::vector<std::vector<Span>> spans(kReaders);
  std::vector<uint64_t> attempted(kReaders, 0), failed(kReaders, 0);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      latency[t].reserve(1 << 16);
      if (traced) spans[t].reserve(1 << 16);
      size_t i = t * queries.rows() / kReaders;
      while (true) {
        const size_t q = i++ % queries.rows();
        const auto t0 = Clock::now();
        if (t0 >= end) break;
        auto got = coll.Search(queries.row(q), request);
        const auto t1 = Clock::now();
        if (traced) spans[t].push_back({t0, t1});
        ++attempted[t];
        if (!got.ok()) {
          ++failed[t];
          report->Check(false, "search: " + got.status().ToString());
          continue;
        }
        latency[t].push_back({MsBetween(start, t1) / 1e3, MsBetween(t0, t1)});
        const std::string why = CheckAnswer(got.value().neighbors, kK, queries.row(q),
                                            queries.cols(), lookup, check_distances);
        if (!why.empty()) report->Check(false, "search answer: " + why);
      }
    });
  }
  for (auto& th : threads) th.join();
  LoopResult out;
  for (size_t t = 0; t < kReaders; ++t) {
    out.latency.insert(out.latency.end(), latency[t].begin(), latency[t].end());
    out.spans += spans[t].size();
    report->search.attempted += attempted[t];
    report->search.failed += failed[t];
  }
  out.qps = WindowedRate(out.latency);
  return out;
}

/// Times one setup: `make` builds the serving object from the handed-over
/// rows. Returns seconds.
template <typename Make>
double TimeSetup(Make&& make) {
  const auto t0 = Clock::now();
  make();
  return MsBetween(t0, Clock::now()) / 1e3;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

void SetNotExercised(Report* report, const std::vector<std::pair<const char*, const char*>>& m) {
  for (const auto& [name, unit] : m) report->Set(name, 0.0, unit);
}

int SimdTier() {
  const std::string name = simd::Active().name;
  return name == "avx512" ? 2 : name == "avx2" ? 1 : 0;
}

/// Index-level calls of one query: times Collection::Search and every
/// shard's DB-LSH Search for the same query (alternating which goes first
/// so neither always finds the other's cache lines), and keeps the
/// collection's answer and each shard index's stats.
struct LayerSample {
  double collection_ms = 0;
  double slowest_shard_ms = 0;
  double shard_ms_sum = 0;
  QueryResponse response;
  std::vector<QueryResponse> shard_responses;
};

LayerSample SampleLayers(const Collection& coll, const float* query, size_t index_k,
                         bool collection_first, Report* report) {
  LayerSample s;
  QueryRequest request;
  request.k = kK;
  QueryRequest local;
  local.k = index_k;
  auto run_collection = [&] {
    const auto t0 = Clock::now();
    auto got = coll.Search(query, request);
    s.collection_ms = MsBetween(t0, Clock::now());
    report->search.Record(got.ok());
    if (report->Check(got.ok(), "layer search: " + got.status().ToString())) {
      s.response = std::move(got.value());
    }
  };
  auto run_shards = [&] {
    for (size_t shard = 0; shard < coll.shards(); ++shard) {
      const AnnIndex* index = coll.GetIndex(kIndex, shard);
      const auto t0 = Clock::now();
      s.shard_responses.push_back(index->Search(query, local));
      const double ms = MsBetween(t0, Clock::now());
      s.slowest_shard_ms = std::max(s.slowest_shard_ms, ms);
      s.shard_ms_sum += ms;
    }
  };
  if (collection_first) {
    run_collection();
    run_shards();
  } else {
    run_shards();
    run_collection();
  }
  return s;
}

void ReportReplay(const ReplayResult& r, Report* report) {
  report->Check(r.mismatch.empty(), "layer replay disagrees with the index: " + r.mismatch);
  std::printf("replay: %zu queries with identical counters, %zu with identical answers; "
              "ids/window %.3f (index %.3f), candidates/query %.3f (index %.3f), "
              "tolerance %.0f%%\n",
              r.exact_stats, r.exact_neighbors, r.ids_per_window, r.real_ids_per_window,
              r.candidates_per_query, r.real_candidates_per_query, 100 * kReplayTolerance);
  report->Set("lsh.project_us", r.project_us, "us");
  report->Set("rtree.window_us", r.window_us, "us");
  report->Set("rtree.ids_per_window", r.ids_per_window, "count");
  report->Set("rtree.insert_us", r.insert_us, "us");
  report->Set("rtree.height", r.height, "count");
  report->Set("verify.ns_per_candidate", r.verify_ns_per_candidate, "ns");
  report->Set("store.prepare_us", r.prepare_us, "us");
  report->Set("store.score_ns_per_candidate", r.score_ns_per_candidate, "ns");
}

void ReportQueryStats(const std::vector<QueryStats>& stats, Report* report) {
  double accessed = 0, verified = 0, rounds = 0, windows = 0;
  for (const QueryStats& s : stats) {
    accessed += static_cast<double>(s.points_accessed);
    verified += static_cast<double>(s.candidates_verified);
    rounds += static_cast<double>(s.rounds);
    windows += static_cast<double>(s.window_queries);
  }
  const auto n = static_cast<double>(stats.size());
  report->Set("dblsh.points_accessed", accessed / n, "count");
  report->Set("dblsh.candidates_verified", verified / n, "count");
  report->Set("dblsh.rounds", rounds / n, "count");
  report->Set("dblsh.window_queries", windows / n, "count");
  report->Set("dblsh.verify_yield", verified / std::max(1.0, accessed), "ratio");
}

/// Latencies a user sees but that this host cannot hold steady enough to
/// gate (hypervisor steal, neighbours' memory traffic and shared-disk fsync
/// move them by more than any bound): reported per layer, unbounded.
void ReportTails(const std::vector<LatencySample>& queries, const std::vector<double>& upsert_ms,
                 const std::vector<double>& delete_ms, Report* report) {
  std::vector<double> write_ms = upsert_ms;
  write_ms.insert(write_ms.end(), delete_ms.begin(), delete_ms.end());
  report->Set("loadgen.query_p50_ms", WindowedPercentile(queries, 50), "ms");
  report->Set("loadgen.query_p99_ms", WindowedPercentile(queries, 99), "ms");
  report->Set("loadgen.upsert_p50_ms", Percentile(upsert_ms, 50), "ms");
  report->Set("loadgen.delete_p50_ms", Percentile(delete_ms, 50), "ms");
  report->Set("loadgen.write_p99_ms", Percentile(write_ms, 99), "ms");
}

/// Runs the write stream in-process against `coll`, timing each op.
void InProcessWrites(Collection* coll, const FloatMatrix& fresh, size_t ops,
                     std::vector<double>* upsert_ms, std::vector<double>* delete_ms,
                     Report* report) {
  WriteStream stream(&fresh);
  for (size_t i = 0; i < ops; ++i) {
    const auto t0 = Clock::now();
    if (stream.IsDelete(i)) {
      const Status s = coll->Delete(stream.NextDelete());
      delete_ms->push_back(MsBetween(t0, Clock::now()));
      report->remove.Record(s.ok());
      report->Check(s.ok(), "delete: " + s.ToString());
      stream.Deleted();
    } else {
      auto got = coll->Upsert(stream.NextVector(), fresh.cols());
      upsert_ms->push_back(MsBetween(t0, Clock::now()));
      report->upsert.Record(got.ok());
      if (report->Check(got.ok(), "upsert: " + got.status().ToString())) {
        stream.Inserted(got.value());
      } else {
        stream.Skipped();
      }
    }
  }
}

int RunSearch(const Args& args, bool pq, Report* report) {
  const std::string spec = pq ? "collection,storage=pq,m=16: DB-LSH" : "collection: DB-LSH";
  // Writes run in the traced run only. search_pq stays below the default
  // rebuild_threshold (256), so its write stream never triggers an inline
  // rebuild + quantizer retrain.
  const size_t write_ops = pq ? 250 : 1000;
  const Dataset ds = MakeSiftStandIn(args.seed, args.trace ? write_ops : 0);
  const size_t dim = ds.rows.cols();
  std::vector<std::vector<uint32_t>> truth;
  if (!args.trace) truth = GroundTruth(ds.rows, ds.queries);

  std::unique_ptr<Collection> coll;
  std::vector<double> setups;
  for (size_t run = 0; run < (args.trace ? 1 : kSetupRuns); ++run) {
    coll.reset();
    malloc_trim(0);
    auto rows = std::make_unique<FloatMatrix>(ds.rows);
    Result<std::unique_ptr<Collection>> made = Status::Internal("not built");
    setups.push_back(TimeSetup([&] { made = Collection::FromSpec(spec, std::move(rows)); }));
    if (!report->Check(made.ok(), "FromSpec: " + made.status().ToString())) return 1;
    coll = std::move(made.value());
  }
  const double rss = RssMb();
  const CollectionStorageInfo storage = coll->Storage();
  const size_t index_k = kK * std::max<size_t>(1, storage.rerank);
  const auto* index = dynamic_cast<const DbLsh*>(coll->GetIndex(kIndex));
  if (!report->Check(index != nullptr, "no DB-LSH index in the collection")) return 1;

  auto lookup = [&](uint32_t id) {
    return id < ds.rows.rows() ? IdInfo{true, ds.rows.row(id)} : IdInfo{};
  };
  auto row_of = [&](uint32_t id) { return ds.rows.row(id); };

  // Reference pass: warms the caches, scores quality, checks every answer.
  QueryRequest request;
  request.k = kK;
  QualityScore quality;
  std::vector<QueryStats> stats;
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = coll->Search(ds.queries.row(q), request);
    report->search.Record(got.ok());
    if (!report->Check(got.ok(), "search: " + got.status().ToString())) continue;
    const std::string why = CheckAnswer(got.value().neighbors, kK, ds.queries.row(q), dim,
                                        lookup, !pq);
    report->Check(why.empty(), "search answer: " + why);
    stats.push_back(got.value().stats);
    if (!args.trace) quality.Add(got.value().neighbors, truth[q], ds.queries.row(q), dim, row_of);
  }

  const LoopResult loop = ClosedLoop(*coll, ds.queries, args.seconds, false, !pq, lookup, report);
  std::printf("closed loop: %zu readers, %zu queries, %.1f q/s\n", kReaders,
              loop.latency.size(), loop.qps);

  if (!args.trace) {
    report->Set("setup_s", Median(setups), "s");
    report->Set("rss_mb", rss, "MB");
    report->Set("qps", loop.qps, "1/s");
    report->Note("query_p50_ms", WindowedPercentile(loop.latency, 50));
    report->Set("recall_at_10", quality.recall(), "ratio");
    report->Set("overall_ratio", quality.ratio(), "ratio");
    report->Note("query_p99_ms", WindowedPercentile(loop.latency, 99));
    return 0;
  }

  // Traced run: the same loop again with spans, then the layer passes.
  const LoopResult traced = ClosedLoop(*coll, ds.queries, args.seconds, true, !pq, lookup, report);
  std::printf("traced loop: %zu spans, %.1f q/s\n", traced.spans, traced.qps);
  report->Set("trace.qps_delta", traced.qps - loop.qps, "1/s");
  report->Set("loadgen.achieved_qps", loop.qps, "1/s");

  ReplayInput replay;
  replay.rows = &ds.rows;
  replay.storage = pq ? StorageKind::kPq : StorageKind::kFp32;
  replay.pq_m = 16;
  replay.params = index->params();
  replay.queries = &ds.queries;
  replay.k = index_k;
  std::vector<double> coll_ms, shard_ms, fanout_ms;
  for (size_t q = 0; q < kQueries; ++q) {
    LayerSample s = SampleLayers(*coll, ds.queries.row(q), index_k, q % 2 == 0, report);
    coll_ms.push_back(s.collection_ms);
    shard_ms.push_back(s.shard_ms_sum);
    fanout_ms.push_back(s.collection_ms - s.slowest_shard_ms);
    replay.real_stats.push_back(s.shard_responses[0].stats);
    replay.real_neighbors.push_back(std::move(s.shard_responses[0].neighbors));
  }
  report->Set("collection.search_ms", Mean(coll_ms), "ms");
  report->Set("collection.fanout_self_ms", Mean(fanout_ms), "ms");
  report->Set("dblsh.search_ms", Mean(shard_ms), "ms");
  ReportQueryStats(stats, report);
  ReportReplay(ReplayIndexLayers(replay), report);

  std::vector<double> upsert_ms, delete_ms;
  InProcessWrites(coll.get(), ds.fresh, write_ops, &upsert_ms, &delete_ms, report);
  report->Set("collection.upsert_ms", Mean(upsert_ms), "ms");
  report->Set("collection.delete_ms", Mean(delete_ms), "ms");
  ReportTails(loop.latency, upsert_ms, delete_ms, report);
  report->Set("store.bytes_per_vector", static_cast<double>(storage.bytes_per_vector), "B");
  report->Set("store.resident_mb", static_cast<double>(storage.resident_bytes) / 1e6, "MB");
  report->Set("simd.tier", SimdTier(), "level");
  // Layers this workload does not run through: no server, no durability,
  // no offered rate (closed loop).
  SetNotExercised(report, {{"serve.rtt_ms", "ms"},
                           {"serve.self_ms", "ms"},
                           {"serve.write_rtt_ms", "ms"},
                           {"serve.mean_batch", "count"},
                           {"serve.shed", "count"},
                           {"serve.deadline_rejected", "count"},
                           {"wal.append_us", "us"},
                           {"wal.sync_us", "us"},
                           {"durability.wal_appends", "count"},
                           {"durability.replayed_records", "count"},
                           {"durability.recovery_ms", "ms"},
                           {"collection.checkpoint_ms", "ms"},
                           {"durability.reopen_s", "s"},
                           {"loadgen.offered_qps", "1/s"},
                           {"loadgen.late_p99_ms", "ms"}});
  return 0;
}

// ------------------------------------------------------ serve_mixed -----

struct PipelineResult {
  double qps = 0;
  std::vector<LatencySample> latency;  // from due time (open loop) or send time
  std::vector<double> late_ms;     // send time minus due time (open loop)
  size_t spans = 0;
};

/// Pipelined reads on one connection: a sender thread and this thread as
/// receiver. Open loop (`rate` > 0): request i is due at start + i / rate,
/// `count` requests, latency counted from the due time. Saturated (`rate`
/// == 0): keeps kPipelineWindow requests in flight for `seconds`.
PipelineResult PipelinedReads(uint16_t port, const FloatMatrix& queries, double rate,
                              size_t count, double seconds, bool traced,
                              const std::function<IdInfo(uint32_t)>& lookup, Report* report) {
  PipelineResult out;
  auto connected = serve::Client::Connect("127.0.0.1", port);
  if (!report->Check(connected.ok(), "connect: " + connected.status().ToString())) return out;
  serve::Client& client = *connected.value();
  const size_t dim = queries.cols();
  QueryRequest request;
  request.k = kK;

  struct Pending {
    Clock::time_point due;
    size_t query;
  };
  std::mutex mutex;  // guards `pending`; held across a send and its insert
  std::unordered_map<uint64_t, Pending> pending;
  // Flow state between sender and receiver, guarded by flow_mutex.
  std::mutex flow_mutex;
  std::condition_variable flow_cv;
  size_t sent = 0;
  size_t received = 0;
  bool sender_done = false;
  bool dead = false;  // the connection failed; nothing more will arrive
  std::vector<Span> send_spans, recv_spans;
  if (traced) {
    send_spans.reserve(1 << 16);
    recv_spans.reserve(1 << 16);
  }
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0.0));

  std::thread sender([&] {
    for (size_t i = 0; rate > 0 ? i < count : true; ++i) {
      Clock::time_point due;
      if (rate > 0) {
        due = start + period * static_cast<long>(i);
        std::this_thread::sleep_until(due);
        out.late_ms.push_back(MsBetween(due, Clock::now()));
        std::lock_guard flow(flow_mutex);
        if (dead) break;
      } else {
        std::unique_lock flow(flow_mutex);
        flow_cv.wait(flow, [&] { return dead || sent - received < kPipelineWindow; });
        due = Clock::now();
        if (dead || due >= end) break;
      }
      const size_t q = i % queries.rows();
      {
        std::lock_guard lock(mutex);
        const auto t0 = Clock::now();
        auto id = client.SendSearch(kServed, queries.row(q), dim, request);
        if (traced) send_spans.push_back({t0, Clock::now()});
        if (!id.ok()) {
          report->search.Record(false);
          report->Check(false, "send: " + id.status().ToString());
          break;
        }
        pending[id.value()] = {due, q};
      }
      {
        std::lock_guard flow(flow_mutex);
        ++sent;
      }
      flow_cv.notify_all();
    }
    {
      std::lock_guard flow(flow_mutex);
      sender_done = true;
    }
    flow_cv.notify_all();
  });

  while (true) {
    {
      std::unique_lock flow(flow_mutex);
      flow_cv.wait(flow, [&] { return received < sent || sender_done; });
      if (received == sent) break;  // sender done, all answered
    }
    const auto t0 = Clock::now();
    auto got = client.ReceiveSearchReply();
    const auto t1 = Clock::now();
    if (traced) recv_spans.push_back({t0, t1});
    if (!got.ok()) {
      // The connection is gone: every request still outstanding failed.
      std::lock_guard flow(flow_mutex);
      for (size_t i = received; i < sent; ++i) report->search.Record(false);
      report->Check(false, "receive: " + got.status().ToString());
      dead = true;
      flow_cv.notify_all();
      break;
    }
    Pending p{start, 0};
    bool known = false;
    {
      std::lock_guard lock(mutex);
      auto it = pending.find(got.value().request_id);
      known = it != pending.end();
      if (known) {
        p = it->second;
        pending.erase(it);
      }
    }
    {
      std::lock_guard flow(flow_mutex);
      ++received;
    }
    flow_cv.notify_all();
    const Status& status = got.value().status;
    report->search.Record(known && status.ok());
    if (!known) {
      report->Check(false, "reply to an unknown request id");
      continue;
    }
    if (!status.ok()) {
      report->Check(false, "search: " + status.ToString());
      continue;
    }
    out.latency.push_back({MsBetween(start, t1) / 1e3, MsBetween(p.due, t1)});
    const std::string why = CheckAnswer(got.value().reply.response.neighbors, kK,
                                        queries.row(p.query), dim, lookup, true);
    if (!why.empty()) report->Check(false, "search answer: " + why);
  }
  sender.join();
  out.qps = WindowedRate(out.latency);
  out.spans = send_spans.size() + recv_spans.size();
  return out;
}

/// The paced writer beside the open-loop reads: `count` ops from the
/// write stream, op i due at start + i / rate, latency from the due time.
/// Every acknowledged write lands in the ledger.
void PacedWrites(uint16_t port, const FloatMatrix& fresh, double rate, size_t count,
                 Clock::time_point start, Ledger* ledger, std::vector<double>* upsert_ms,
                 std::vector<double>* delete_ms, Report* report) {
  auto connected = serve::Client::Connect("127.0.0.1", port);
  if (!report->Check(connected.ok(), "connect: " + connected.status().ToString())) return;
  serve::Client& client = *connected.value();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  WriteStream stream(&fresh);
  for (size_t i = 0; i < count; ++i) {
    const auto due = start + period * static_cast<long>(i);
    std::this_thread::sleep_until(due);
    if (stream.IsDelete(i)) {
      const uint32_t id = stream.NextDelete();
      const Status s = client.Delete(kServed, id);
      delete_ms->push_back(MsBetween(due, Clock::now()));
      report->remove.Record(s.ok());
      if (report->Check(s.ok(), "delete: " + s.ToString())) ledger->Kill(id);
      stream.Deleted();
    } else {
      const float* vec = stream.NextVector();
      auto got = client.Upsert(kServed, vec, fresh.cols());
      upsert_ms->push_back(MsBetween(due, Clock::now()));
      report->upsert.Record(got.ok());
      if (report->Check(got.ok(), "upsert: " + got.status().ToString())) {
        ledger->Put(got.value(), vec);
        stream.Inserted(got.value());
      } else {
        stream.Skipped();
      }
    }
  }
}

std::string ServeSpec(const std::string& dir) {
  return "collection,shards=" + std::to_string(kServeShards) + ",durability=" + dir +
         ",wal_sync=1: DB-LSH";
}

int RunServe(const Args& args, Report* report) {
  // Phase split of --seconds: 75% open loop with the writer, 25% saturated.
  const double open_seconds = 0.75 * args.seconds;
  const double saturated_seconds = 0.25 * args.seconds;
  const auto reads = static_cast<size_t>(kServeReadRate * open_seconds);
  const double write_rate = kServeWriteShare * kServeReadRate;
  const auto writes = static_cast<size_t>(write_rate * open_seconds);
  constexpr size_t kQuiescentWrites = 50;  // per op type, traced run only
  const Dataset ds = MakeServeData(args.seed, writes + 2 * kQuiescentWrites);
  const size_t dim = ds.rows.cols();
  const std::string dir = args.workdir + "/serve";

  std::unique_ptr<Collection> coll;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setups;
  const size_t setup_runs = args.trace ? 1 : kServeSetupRuns;
  for (size_t run = 0; run < setup_runs; ++run) {
    server.reset();
    coll.reset();
    malloc_trim(0);
    // Each setup gets a fresh directory (the last one is kept), and earlier
    // writes are flushed first so its fsyncs pay only for its own bytes.
    const std::string setup_dir =
        run + 1 < setup_runs ? dir + "-setup-" + std::to_string(run) : dir;
    ::sync();
    auto rows = std::make_unique<FloatMatrix>(ds.rows);
    Status status = Status::OK();
    setups.push_back(TimeSetup([&] {
      auto made = Collection::FromSpec(ServeSpec(setup_dir), std::move(rows));
      if (!made.ok()) {
        status = made.status();
        return;
      }
      coll = std::move(made.value());
      auto started = serve::Server::Start({{kServed, coll.get()}});
      if (!started.ok()) {
        status = started.status();
        return;
      }
      server = std::move(started.value());
    }));
    if (!report->Check(status.ok(), "setup: " + status.ToString())) return 1;
  }
  const double rss = RssMb();
  const uint16_t port = server->port();
  Ledger ledger(ds.rows);

  if (args.trace) {
    // Layer replay on shard 0 before any write: its rows are the global
    // ids g with g % shards == 0, in order.
    FloatMatrix shard_rows;
    for (size_t g = 0; g < ds.rows.rows(); g += kServeShards) shard_rows.AppendRow(ds.rows.row(g), dim);
    const auto* index = dynamic_cast<const DbLsh*>(coll->GetIndex(kIndex, 0));
    if (!report->Check(index != nullptr, "no DB-LSH index on shard 0")) return 1;
    ReplayInput replay;
    replay.rows = &shard_rows;
    replay.params = index->params();
    replay.queries = &ds.queries;
    replay.k = kK;
    QueryRequest request;
    request.k = kK;
    for (size_t q = 0; q < kQueries; ++q) {
      QueryResponse r = index->Search(ds.queries.row(q), request);
      replay.real_stats.push_back(r.stats);
      replay.real_neighbors.push_back(std::move(r.neighbors));
    }
    ReportReplay(ReplayIndexLayers(replay), report);
    auto wal = ReplayWal(args.workdir + "/replay.wal", static_cast<uint32_t>(dim), 2000, 100);
    if (report->Check(wal.ok(), "WAL replay: " + wal.status().ToString())) {
      report->Set("wal.append_us", wal.value().append_us, "us");
      report->Set("wal.sync_us", wal.value().sync_us, "us");
    }
  }

  // (a) Open-loop reads at a fixed rate with the paced writer beside them.
  // Ids the writer may have assigned are valid in answers; distances are
  // checked only for seed rows, whose vectors never change.
  const size_t seed_rows = ds.rows.rows();
  auto concurrent_lookup = [&](uint32_t id) {
    if (id < seed_rows) return IdInfo{true, ds.rows.row(id)};
    return IdInfo{id < seed_rows + ds.fresh.rows(), nullptr};
  };
  ::sync();
  std::vector<double> upsert_ms, delete_ms;
  const auto open_start = Clock::now() + std::chrono::milliseconds(20);
  std::thread writer([&] {
    PacedWrites(port, ds.fresh, write_rate, writes, open_start, &ledger, &upsert_ms, &delete_ms,
                report);
  });
  std::this_thread::sleep_until(open_start);
  const PipelineResult open = PipelinedReads(port, ds.queries, kServeReadRate, reads, 0,
                                             false, concurrent_lookup, report);
  writer.join();
  std::printf("open loop: offered %.0f q/s, achieved %.1f q/s, %zu writes\n", kServeReadRate,
              open.qps, upsert_ms.size() + delete_ms.size());

  // (b) Saturated pipelined reads (no writer).
  const PipelineResult saturated = PipelinedReads(port, ds.queries, 0, 0, saturated_seconds,
                                                  false, concurrent_lookup, report);
  std::printf("saturated: %.1f q/s\n", saturated.qps);

  // (c) Quiescent probe against exact ground truth over the ledger.
  auto probe = serve::Client::Connect("127.0.0.1", port);
  if (!report->Check(probe.ok(), "connect: " + probe.status().ToString())) return 1;
  auto ledger_lookup = [&](uint32_t id) { return IdInfo{ledger.Live(id), ledger.Row(id)}; };
  auto row_of = [&](uint32_t id) { return ledger.Row(id); };
  QueryRequest request;
  request.k = kK;
  QualityScore quality;
  if (!args.trace) {
    std::vector<uint32_t> live_ids;
    const FloatMatrix live = ledger.LiveMatrix(&live_ids);
    std::vector<std::vector<uint32_t>> truth = GroundTruth(live, ds.queries);
    for (auto& ids : truth) {
      for (uint32_t& id : ids) id = live_ids[id];
    }
    for (size_t q = 0; q < kQueries; ++q) {
      auto got = probe.value()->Search(kServed, ds.queries.row(q), dim, request);
      report->search.Record(got.ok());
      if (!report->Check(got.ok(), "probe search: " + got.status().ToString())) continue;
      const auto& nn = got.value().response.neighbors;
      const std::string why = CheckAnswer(nn, kK, ds.queries.row(q), dim, ledger_lookup, true);
      report->Check(why.empty(), "probe answer: " + why);
      if (why.empty()) quality.Add(nn, truth[q], ds.queries.row(q), dim, row_of);
    }
  } else {
    const PipelineResult traced = PipelinedReads(port, ds.queries, 0, 0, saturated_seconds,
                                                 true, concurrent_lookup, report);
    std::printf("traced saturated: %zu spans, %.1f q/s\n", traced.spans, traced.qps);
    report->Set("trace.qps_delta", traced.qps - saturated.qps, "1/s");
    auto remote = probe.value()->Stats();
    if (report->Check(remote.ok(), "stats: " + remote.status().ToString())) {
      const serve::ServerStats& s = remote.value().server;
      report->Set("serve.mean_batch", s.mean_batch_size, "count");
      report->Set("serve.shed", static_cast<double>(s.shed_overload), "count");
      report->Set("serve.deadline_rejected", static_cast<double>(s.rejected_deadline), "count");
    }
    // Unloaded round trips next to direct collection and shard calls for
    // the same queries.
    std::vector<double> rtt_ms, coll_ms, shard_ms, fanout_ms;
    std::vector<QueryStats> stats;
    for (size_t q = 0; q < kQueries; ++q) {
      const auto t0 = Clock::now();
      auto got = probe.value()->Search(kServed, ds.queries.row(q), dim, request);
      rtt_ms.push_back(MsBetween(t0, Clock::now()));
      report->search.Record(got.ok());
      if (report->Check(got.ok(), "probe search: " + got.status().ToString())) {
        const std::string why = CheckAnswer(got.value().response.neighbors, kK,
                                            ds.queries.row(q), dim, ledger_lookup, true);
        report->Check(why.empty(), "probe answer: " + why);
      }
      LayerSample s = SampleLayers(*coll, ds.queries.row(q), kK, q % 2 == 0, report);
      coll_ms.push_back(s.collection_ms);
      shard_ms.push_back(s.shard_ms_sum / static_cast<double>(coll->shards()));
      fanout_ms.push_back(s.collection_ms - s.slowest_shard_ms);
      stats.push_back(s.response.stats);
    }
    report->Set("serve.rtt_ms", Mean(rtt_ms), "ms");
    report->Set("serve.self_ms", Mean(rtt_ms) - Mean(coll_ms), "ms");
    report->Set("collection.search_ms", Mean(coll_ms), "ms");
    report->Set("collection.fanout_self_ms", Mean(fanout_ms), "ms");
    report->Set("dblsh.search_ms", Mean(shard_ms), "ms");
    ReportQueryStats(stats, report);

    // Unloaded writes: over the wire, then straight into the collection.
    std::vector<double> wire_ms, direct_upsert_ms, direct_delete_ms;
    for (size_t i = 0; i < 2 * kQuiescentWrites; ++i) {
      const float* vec = ds.fresh.row(writes + i);  // past the writer's vectors
      const bool wire = i < kQuiescentWrites;
      const auto t0 = Clock::now();
      auto got = wire ? probe.value()->Upsert(kServed, vec, dim) : coll->Upsert(vec, dim);
      (wire ? wire_ms : direct_upsert_ms).push_back(MsBetween(t0, Clock::now()));
      report->upsert.Record(got.ok());
      if (!report->Check(got.ok(), "upsert: " + got.status().ToString())) continue;
      ledger.Put(got.value(), vec);
      const uint32_t victim = got.value();
      const auto t1 = Clock::now();
      const Status s = wire ? probe.value()->Delete(kServed, victim) : coll->Delete(victim);
      (wire ? wire_ms : direct_delete_ms).push_back(MsBetween(t1, Clock::now()));
      report->remove.Record(s.ok());
      if (report->Check(s.ok(), "delete: " + s.ToString())) ledger.Kill(victim);
    }
    report->Set("serve.write_rtt_ms", Mean(wire_ms), "ms");
    report->Set("collection.upsert_ms", Mean(direct_upsert_ms), "ms");
    report->Set("collection.delete_ms", Mean(direct_delete_ms), "ms");
    const CollectionStorageInfo storage = coll->Storage();
    report->Set("store.bytes_per_vector", static_cast<double>(storage.bytes_per_vector), "B");
    report->Set("store.resident_mb", static_cast<double>(storage.resident_bytes) / 1e6, "MB");
    report->Set("simd.tier", SimdTier(), "level");
  }
  const double wal_appends = static_cast<double>(coll->Durability().wal_appends);
  probe.value().reset();

  // (d) Shutdown, then timed reopens of the directory. The shut-down state
  // is copied first so every reopen recovers the same bytes (an open ends
  // with a checkpoint, which would leave the next one nothing to replay).
  // Each recovered collection must hold exactly the ledger's rows.
  server->Shutdown();
  server.reset();
  coll.reset();
  std::vector<std::string> dirs = {dir};
  for (size_t run = 1; run < kReopenRuns; ++run) {
    dirs.push_back(dir + "-" + std::to_string(run));
    std::error_code ec;
    std::filesystem::copy(dir, dirs.back(), std::filesystem::copy_options::recursive, ec);
    if (!report->Check(!ec, "copy durable state: " + ec.message())) return 1;
  }
  ::sync();
  std::vector<double> reopens;
  std::unique_ptr<Collection> back;
  for (const std::string& d : dirs) {
    back.reset();
    const auto t0 = Clock::now();
    auto reopened = Collection::Open(ServeSpec(d));
    reopens.push_back(MsBetween(t0, Clock::now()) / 1e3);
    if (!report->Check(reopened.ok(), "reopen: " + reopened.status().ToString())) return 1;
    back = std::move(reopened.value());
    report->Check(back->size() == ledger.LiveCount(),
                  "reopened live rows " + std::to_string(back->size()) + ", ledger " +
                      std::to_string(ledger.LiveCount()));
    const FloatMatrix snapshot = back->Snapshot();
    size_t mismatched = 0;
    for (uint32_t id = 0; id < ledger.size(); ++id) {
      const bool live = id < snapshot.rows() && !snapshot.IsDeleted(id);
      if (live != ledger.Live(id) ||
          (live && !std::equal(snapshot.row(id), snapshot.row(id) + dim, ledger.Row(id)))) {
        ++mismatched;
      }
    }
    report->Check(mismatched == 0,
                  std::to_string(mismatched) +
                      " ids differ between the reopened collection and the ledger");
  }

  if (!args.trace) {
    report->Set("setup_s", Median(setups), "s");
    report->Set("rss_mb", rss, "MB");
    report->Set("qps", saturated.qps, "1/s");
    report->Note("query_p50_ms", WindowedPercentile(open.latency, 50));
    report->Set("recall_at_10", quality.recall(), "ratio");
    report->Set("overall_ratio", quality.ratio(), "ratio");
    report->Note("query_p99_ms", WindowedPercentile(open.latency, 99));
    report->Note("upsert_p50_ms", Percentile(upsert_ms, 50));
    report->Note("delete_p50_ms", Percentile(delete_ms, 50));
    std::vector<double> write_ms = upsert_ms;
    write_ms.insert(write_ms.end(), delete_ms.begin(), delete_ms.end());
    report->Note("write_p99_ms", Percentile(write_ms, 99));
    report->Note("reopen_s", Median(reopens));
    return 0;
  }
  const CollectionDurabilityInfo durable = back->Durability();
  report->Set("durability.wal_appends", wal_appends, "count");
  report->Set("durability.replayed_records", static_cast<double>(durable.replayed_records),
              "count");
  report->Set("durability.recovery_ms", durable.recovery_ms, "ms");
  const auto c0 = Clock::now();
  const Status checkpoint = back->Checkpoint();
  report->Set("collection.checkpoint_ms", MsBetween(c0, Clock::now()), "ms");
  report->Check(checkpoint.ok(), "checkpoint: " + checkpoint.ToString());
  report->Set("loadgen.offered_qps", kServeReadRate, "1/s");
  report->Set("loadgen.achieved_qps", open.qps, "1/s");
  report->Set("loadgen.late_p99_ms", Percentile(open.late_ms, 99), "ms");
  report->Set("durability.reopen_s", Median(reopens), "s");
  ReportTails(open.latency, upsert_ms, delete_ms, report);
  return 0;
}

}  // namespace
}  // namespace dblsh::perfbench

int main(int argc, char** argv) {
  using namespace dblsh::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload search_fp32|search_pq|serve_mixed --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  if (args.workload != "search_fp32" && args.workload != "search_pq" &&
      args.workload != "serve_mixed") {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const double steal_before = StealTicks();
  const double calib_before = CalibrationMs();
  const double memory_before = MemoryProbeNs();
  Report report;
  const int rc = args.workload == "serve_mixed"
                     ? RunServe(args, &report)
                     : RunSearch(args, args.workload == "search_pq", &report);
  const double calib_after = CalibrationMs();
  const double memory_after = MemoryProbeNs();
  const double steal = StealTicks() - steal_before;
  std::filesystem::remove_all(args.workdir, ec);
  if (args.trace) {
    report.Set("host.calib_before_ms", calib_before, "ms");
    report.Set("host.calib_after_ms", calib_after, "ms");
    report.Set("host.steal_ticks", steal, "count");
    report.Set("host.memory_before_ns", memory_before, "ns");
    report.Set("host.memory_after_ns", memory_after, "ns");
  }
  report.Note("host.calib_before_ms", calib_before);
  report.Note("host.calib_after_ms", calib_after);
  report.Note("host.steal_ticks", steal);
  report.Note("host.memory_before_ns", memory_before);
  report.Note("host.memory_after_ns", memory_after);
  report.Print();
  return rc == 0 && report.correct() ? 0 : 1;
}
