// Shared plumbing of the benchmark program: the metric/ops report, latency
// statistics, exact-distance helpers and the output checks every workload
// applies to the answers it receives.
#ifndef DBLSH_PERFBENCH_HARNESS_H_
#define DBLSH_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/top_k_heap.h"

namespace dblsh::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated percentile (numpy's default); 0 for no samples.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// One latency sample and when it completed, in seconds from the start of
/// its measurement phase.
struct LatencySample {
  double at_s;
  double ms;
};

/// Splits samples into one-second windows by completion time, dropping
/// windows with fewer than half the mean sample count: the ragged last one,
/// and any second the host stalled the run.
inline std::vector<std::vector<double>> OneSecondWindows(
    const std::vector<LatencySample>& samples) {
  std::vector<std::vector<double>> windows;
  for (const LatencySample& s : samples) {
    const auto w = static_cast<size_t>(std::max(0.0, s.at_s));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.ms);
  }
  const double mean_count = static_cast<double>(samples.size()) /
                            static_cast<double>(std::max<size_t>(1, windows.size()));
  std::erase_if(windows, [&](const std::vector<double>& w) {
    return static_cast<double>(w.size()) < 0.5 * mean_count;
  });
  return windows;
}

/// Completions per second, as the mean over the middle half of the
/// one-second windows ranked by their count: the rate the system sustained
/// through most of the run, which a host hiccup in a few windows does not
/// move.
inline double WindowedRate(const std::vector<LatencySample>& samples) {
  std::vector<double> counts;
  for (const auto& w : OneSecondWindows(samples)) counts.push_back(static_cast<double>(w.size()));
  if (counts.empty()) return 0.0;
  std::sort(counts.begin(), counts.end());
  const size_t lo = counts.size() / 4;
  const size_t hi = counts.size() - counts.size() / 4;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += counts[i];
  return sum / static_cast<double>(hi - lo);
}

/// Median over one-second windows of each window's p-th percentile. A host
/// hiccup (another tenant taking the CPUs or the disk for a fraction of a
/// second) moves one window's tail, not the reported figure.
inline double WindowedPercentile(const std::vector<LatencySample>& samples, double p) {
  std::vector<double> per_window;
  for (const auto& w : OneSecondWindows(samples)) per_window.push_back(Percentile(w, p));
  return Percentile(per_window, 50.0);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Exact L2 distance, accumulated in double from the original fp32 rows:
/// the reference every reported distance and every quality score uses.
inline double ExactL2(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// Attempted/failed counters of one operation type. Shed, deadline, typed
/// and connection errors all count as failed.
struct OpCount {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void Record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Everything a run reports: metrics by name, per-op-type failure
/// accounting, and the output checks (any failed check makes the run
/// incorrect and its exit code nonzero).
class Report {
 public:
  OpCount search;
  OpCount upsert;
  OpCount remove;

  void Set(const std::string& name, double value, const std::string& unit) {
    std::lock_guard lock(mutex_);
    metrics_[name] = {value, unit};
  }

  /// A value printed with the results but not a metric of this mode (host
  /// drift sentinel, tail percentiles too host-bound to gate).
  void Note(const std::string& name, double value) {
    std::lock_guard lock(mutex_);
    notes_[name] = value;
  }

  /// Records a check; the first few failures are printed with `what`.
  bool Check(bool ok, const std::string& what) {
    if (ok) return true;
    std::lock_guard lock(mutex_);
    if (++check_failures_ <= 10) std::printf("CHECK FAILED: %s\n", what.c_str());
    return false;
  }

  bool correct() const {
    std::lock_guard lock(mutex_);
    return check_failures_ == 0;
  }

  /// Human-readable table followed by the machine-readable last line.
  void Print() const {
    std::lock_guard lock(mutex_);
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-34s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    const OpCount* ops[] = {&search, &upsert, &remove};
    const char* names[] = {"search", "upsert", "delete"};
    for (int i = 0; i < 3; ++i) {
      std::printf("  ops.%-30s attempted=%llu failed=%llu\n", names[i],
                  static_cast<unsigned long long>(ops[i]->attempted.load()),
                  static_cast<unsigned long long>(ops[i]->failed.load()));
    }
    const uint64_t tried = search.attempted + upsert.attempted + remove.attempted;
    const uint64_t bad = search.failed + upsert.failed + remove.failed;
    std::printf("  %-34s %16.6f ratio\n", "error_rate",
                tried == 0 ? 0.0 : static_cast<double>(bad) / static_cast<double>(tried));
    for (const auto& [name, value] : notes_) {
      std::printf("  %-34s %16.6f (not gated)\n", name.c_str(), value);
    }
    std::string json = "{\"correct\": ";
    json += check_failures_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tried);
    json += ", \"failed\": " + std::to_string(bad);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", m.value);
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}, \"info\": {";
    first = true;
    for (const auto& [name, v] : notes_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", v);
      json += (first ? "\"" : ", \"") + name + "\": " + value;
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> notes_;
  size_t check_failures_ = 0;
};

/// What the checks know about an id: whether it may appear in an answer
/// at all, and — when its vector is known for certain — that vector, so
/// the reported distance can be recomputed.
struct IdInfo {
  bool valid = false;
  const float* row = nullptr;
};

/// Checks one k-NN answer: exactly `k` neighbors, ascending by distance,
/// every id valid, and (when `check_distances`, i.e. fp32 storage) every
/// reported distance equal to the exact L2 recomputed from the row.
/// Returns an empty string when the answer passes.
inline std::string CheckAnswer(const std::vector<Neighbor>& nn, size_t k,
                               const float* query, size_t dim,
                               const std::function<IdInfo(uint32_t)>& lookup,
                               bool check_distances) {
  if (nn.size() != k) {
    return "returned " + std::to_string(nn.size()) + " neighbors, want " +
           std::to_string(k);
  }
  for (size_t i = 0; i < nn.size(); ++i) {
    if (i > 0 && nn[i].dist < nn[i - 1].dist) return "neighbors not sorted";
    const IdInfo info = lookup(nn[i].id);
    if (!info.valid) return "id " + std::to_string(nn[i].id) + " is not live";
    if (check_distances && info.row != nullptr) {
      const double exact = ExactL2(query, info.row, dim);
      if (std::fabs(exact - nn[i].dist) > 1e-4 * std::max(1.0, exact)) {
        return "id " + std::to_string(nn[i].id) + " reported distance " +
               std::to_string(nn[i].dist) + ", exact " + std::to_string(exact);
      }
    }
  }
  return "";
}

/// Running recall@k (paper Eq. 12, matched by id) and overall ratio
/// (Eq. 11, from exact distances recomputed from the original rows).
struct QualityScore {
  double recall_sum = 0.0;
  double ratio_sum = 0.0;
  size_t queries = 0;

  /// `truth` holds the exact top-k ids in ascending distance order.
  void Add(const std::vector<Neighbor>& returned,
           const std::vector<uint32_t>& truth, const float* query, size_t dim,
           const std::function<const float*(uint32_t)>& row_of) {
    size_t hits = 0;
    for (const Neighbor& n : returned) {
      hits += std::count(truth.begin(), truth.end(), n.id) > 0 ? 1 : 0;
    }
    recall_sum += static_cast<double>(hits) / static_cast<double>(truth.size());
    double ratio = 0.0;
    size_t ranks = 0;
    for (size_t i = 0; i < returned.size() && i < truth.size(); ++i) {
      const double best = ExactL2(query, row_of(truth[i]), dim);
      const double got = ExactL2(query, row_of(returned[i].id), dim);
      if (best > 0.0) {
        ratio += got / best;
        ++ranks;
      }
    }
    ratio_sum += ranks > 0 ? ratio / static_cast<double>(ranks) : 1.0;
    ++queries;
  }
  double recall() const { return queries ? recall_sum / queries : 0.0; }
  double ratio() const { return queries ? ratio_sum / queries : 0.0; }
};

}  // namespace dblsh::perfbench

#endif  // DBLSH_PERFBENCH_HARNESS_H_
