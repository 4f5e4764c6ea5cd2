// Tests for the exec::TaskExecutor: future-returning Submit, dynamic
// ParallelFor coverage, nested parallel sections on a
// saturated pool, exception propagation from both entry points, and the
// drain-on-shutdown guarantee for pending tasks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/task_executor.h"

namespace dblsh::exec {
namespace {

TEST(ExecTest, SubmitReturnsFutureValues) {
  TaskExecutor pool(2);
  auto a = pool.Submit([] { return 21 * 2; });
  auto b = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ExecTest, SubmitPropagatesExceptionsThroughFutures) {
  TaskExecutor pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ExecTest, ParallelForCoversEveryIndexExactlyOnce) {
  TaskExecutor pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecTest, ParallelForHonorsMaxParallelismOne) {
  TaskExecutor pool(4);
  // max_parallelism = 1 must run strictly sequentially on the caller.
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(
      64,
      [&](size_t) {
        const int now = concurrent.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        concurrent.fetch_sub(1);
      },
      /*max_parallelism=*/1);
  EXPECT_EQ(peak.load(), 1);
}

TEST(ExecTest, NestedParallelForCompletesOnSaturatedPool) {
  // Outer loop width far beyond the pool: every worker runs outer
  // iterations that each open an inner ParallelFor. The caller-helps wait
  // loop must execute queued inner helpers, so this terminates even on a
  // 2-thread (or 1-thread) pool.
  TaskExecutor pool(2);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::atomic<size_t> total{0};
  pool.ParallelFor(kOuter, [&](size_t) {
    pool.ParallelFor(kInner, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ExecTest, ParallelForRethrowsFirstExceptionAndStopsEarly) {
  TaskExecutor pool(4);
  std::atomic<size_t> ran{0};
  constexpr size_t kN = 100000;
  try {
    pool.ParallelFor(kN, [&](size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 17) throw std::runtime_error("iteration 17 failed");
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "iteration 17 failed");
  }
  // Remaining iterations are abandoned after the failure is flagged; with
  // a huge n, nowhere near the full range should have run.
  EXPECT_LT(ran.load(), kN);
}

TEST(ExecTest, DestructorDrainsPendingTasks) {
  std::vector<std::future<int>> futures;
  std::atomic<int> executed{0};
  {
    TaskExecutor pool(1);  // single worker: tasks genuinely queue up
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.Submit([i, &executed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        executed.fetch_add(1);
        return i;
      }));
    }
    // Destructor runs with most of the queue still pending.
  }
  EXPECT_EQ(executed.load(), 16);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[i].get(), i);
  }
}

TEST(ExecTest, RunOnePendingTaskHelpsFromOutsideThePool) {
  TaskExecutor pool(1);
  // Park the only worker so the queue backs up. Wait until the worker has
  // actually dequeued the gate — otherwise this thread's help loop below
  // could steal the gate itself and spin inside it forever.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto gate = pool.Submit([&] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::atomic<int> ran{0};
  pool.Schedule([&] { ran.fetch_add(1); });
  // This thread (not a pool worker) lends a hand and runs the queued task.
  while (!pool.RunOnePendingTask()) {
  }
  EXPECT_EQ(ran.load(), 1);
  release.store(true);
  gate.get();
  EXPECT_FALSE(pool.RunOnePendingTask());  // queue is empty again
}

TEST(ExecTest, DefaultPoolIsSharedAndResizable) {
  TaskExecutor& a = TaskExecutor::Default();
  TaskExecutor& b = TaskExecutor::Default();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  TaskExecutor::SetDefaultThreads(2);
  EXPECT_EQ(TaskExecutor::Default().num_threads(), 2u);
  // Restore the hardware-sized default for the rest of the suite.
  TaskExecutor::SetDefaultThreads(0);
  EXPECT_EQ(TaskExecutor::Default().num_threads(), HardwareConcurrency());
}

}  // namespace
}  // namespace dblsh::exec
