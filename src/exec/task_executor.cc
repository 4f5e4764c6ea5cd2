#include "exec/task_executor.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace dblsh::exec {

namespace {

/// Identifies the pool (and worker slot) the current thread belongs to, so
/// Submit-from-a-worker lands in that worker's own deque and TakeTask knows
/// which queue to prefer.
struct WorkerIdentity {
  TaskExecutor* pool = nullptr;
  size_t index = 0;
};

thread_local WorkerIdentity tls_worker;

constexpr size_t kNotAWorker = static_cast<size_t>(-1);

}  // namespace

size_t HardwareConcurrency() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

TaskExecutor::TaskExecutor(size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareConcurrency();
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskExecutor::~TaskExecutor() {
  {
    std::lock_guard lock(wake_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void TaskExecutor::Schedule(std::function<void()> task) {
  const size_t home = tls_worker.pool == this
                          ? tls_worker.index
                          : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                                queues_.size();
  {
    std::lock_guard queue_lock(queues_[home]->mutex);
    queues_[home]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard lock(wake_mutex_);
    ++pending_;
  }
  wake_cv_.notify_one();
}

std::function<void()> TaskExecutor::TakeTask(size_t home) {
  std::function<void()> task;
  if (home != kNotAWorker) {
    Queue& own = *queues_[home];
    std::lock_guard lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  for (size_t i = 0; task == nullptr && i < queues_.size(); ++i) {
    if (i == home) continue;
    Queue& victim = *queues_[i];
    std::lock_guard lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
    }
  }
  if (task != nullptr) {
    std::lock_guard lock(wake_mutex_);
    --pending_;
  }
  return task;
}

bool TaskExecutor::RunOnePendingTask() {
  const size_t home =
      tls_worker.pool == this ? tls_worker.index : kNotAWorker;
  std::function<void()> task = TakeTask(home);
  if (task == nullptr) return false;
  task();
  return true;
}

void TaskExecutor::WorkerLoop(size_t self) {
  tls_worker = {this, self};
  for (;;) {
    std::function<void()> task = TakeTask(self);
    if (task != nullptr) {
      task();
      continue;
    }
    std::unique_lock lock(wake_mutex_);
    wake_cv_.wait(lock, [&] { return pending_ > 0 || stopping_; });
    if (pending_ == 0 && stopping_) return;  // drained: safe to exit
  }
}

namespace {

/// Heap-allocated state of one parallel loop, shared by the caller and its
/// helper tasks. Keeping it on the heap (not the caller's stack) is what
/// makes a saturated pool safe: a helper that only gets dequeued after the
/// loop already finished sees an exhausted counter, touches nothing but
/// this state, and exits — the caller never has to wait for helpers that
/// never started, so it cannot deadlock against its own queued work.
struct LoopState {
  explicit LoopState(size_t total) : n(total) {}
  const size_t n;
  std::atomic<size_t> next{0};    ///< iteration hand-out counter
  std::atomic<size_t> active{0};  ///< helpers currently inside Drain
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;  ///< first exception, guarded by error_mutex
  const std::function<void(size_t)>* body = nullptr;  ///< the caller's
};

/// Pulls iterations off `st` until the range (or an error) exhausts it.
/// The order of checks matters for lifetime safety: `body` — which lives
/// on the caller's stack, as may its captures — is only dereferenced after
/// this thread has claimed a live iteration, which cannot happen once the
/// caller's exit condition (failed or next >= n, both monotone) held.
void Drain(LoopState& st) {
  if (st.failed.load(std::memory_order_acquire)) return;
  size_t i = st.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= st.n) return;
  for (;;) {
    try {
      (*st.body)(i);
    } catch (...) {
      {
        std::lock_guard lock(st.error_mutex);
        if (st.error == nullptr) st.error = std::current_exception();
      }
      st.failed.store(true, std::memory_order_release);
      return;
    }
    if (st.failed.load(std::memory_order_acquire)) return;
    i = st.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st.n) return;
  }
}

}  // namespace

void TaskExecutor::ParallelFor(size_t n,
                               const std::function<void(size_t)>& body,
                               size_t max_parallelism) {
  if (n == 0) return;
  if (max_parallelism == 0) max_parallelism = num_threads() + 1;
  if (max_parallelism <= 1 || n == 1) {
    // Sequential fast path on the caller; exceptions propagate directly.
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto st = std::make_shared<LoopState>(n);
  st->body = &body;
  const size_t helpers = std::min({max_parallelism - 1, num_threads(), n - 1});
  for (size_t h = 0; h < helpers; ++h) {
    Schedule([this, st]() {
      st->active.fetch_add(1, std::memory_order_acq_rel);
      Drain(*st);
      st->active.fetch_sub(1, std::memory_order_acq_rel);
      {
        std::lock_guard lock(wake_mutex_);  // fence vs. the caller's wait
      }
      wake_cv_.notify_all();
    });
  }

  Drain(*st);  // the caller always participates

  // Wait until the work is exhausted and no helper is mid-iteration.
  // Helpers still queued are irrelevant (they will no-op), so this join
  // only waits on threads that are actively making progress — which is why
  // ParallelFor may be called while holding locks, as long as the loop
  // *body* does not acquire a lock the caller holds.
  auto finished = [&] {
    return (st->failed.load(std::memory_order_acquire) ||
            st->next.load(std::memory_order_acquire) >= n) &&
           st->active.load(std::memory_order_acquire) == 0;
  };
  while (!finished()) {
    std::unique_lock lock(wake_mutex_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1),
                      [&] { return st->active.load() == 0; });
  }

  // Move the exception out of the shared state before rethrowing: a
  // still-queued late helper releases its LoopState reference on a worker
  // thread, and if that released the *exception object's* last reference
  // too, its deletion would race the catch block reading the exception on
  // this thread (the eh refcount lives in uninstrumented libstdc++, so
  // nothing orders it). Swapped out, the exception lives and dies here.
  std::exception_ptr error;
  {
    std::lock_guard lock(st->error_mutex);
    error = std::move(st->error);
    st->error = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

namespace {

std::mutex g_default_mutex;
std::unique_ptr<TaskExecutor>& DefaultSlot() {
  static std::unique_ptr<TaskExecutor> slot;
  return slot;
}

}  // namespace

TaskExecutor& TaskExecutor::Default() {
  std::lock_guard lock(g_default_mutex);
  std::unique_ptr<TaskExecutor>& slot = DefaultSlot();
  if (slot == nullptr) slot = std::make_unique<TaskExecutor>();
  return *slot;
}

void TaskExecutor::SetDefaultThreads(size_t num_threads) {
  std::lock_guard lock(g_default_mutex);
  std::unique_ptr<TaskExecutor>& slot = DefaultSlot();
  slot.reset();  // drain the old pool first, then build the new one
  slot = std::make_unique<TaskExecutor>(num_threads);
}

}  // namespace dblsh::exec
