// Work-queue thread pool with help-while-waiting blocking helpers.
//
// Used by the shared-memory variant of the fusion pipeline (the paper's §4
// remark about multiprocessor operation) and by FusionService, which runs
// many concurrent jobs — each internally parallel — on ONE shared pool.
//
// That sharing is what shapes the design: the blocking helpers
// (parallel_for / parallel_tasks) do not sleep on a condition variable
// while their tasks run. A caller *helps*: it pops and executes queued
// tasks until its own task group completes, and only sleeps when the queue
// is empty (its remaining tasks are then in flight on other threads, each
// of which helps in the same way). This makes nested parallelism — a task
// that itself calls parallel_for on the same pool — deadlock-free even on
// a 1-thread pool: the caller occupies no worker slot while blocked,
// because it IS a worker while blocked.
//
// The flip side of helping: a blocked caller may execute arbitrary
// UNRELATED queued tasks on its own stack. Do not hold a non-reentrant
// lock across parallel_for/parallel_tasks — a helped task that takes the
// same lock self-deadlocks, even though the old park-on-CV pool would
// have been fine.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/metrics.h"
#include "support/check.h"

namespace rif::core {

class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }

  /// Cumulative seconds the pool's execution threads have spent PARKED
  /// (waiting for work, either in the worker loop or while blocked inside
  /// a nested parallel_* call with an empty queue) since construction.
  /// Parks in progress are included pro-rata at read time, so deltas over
  /// an interval are exact even when a park spans the interval boundary.
  /// Monotone; busy time over an interval is
  ///   threads * wall_interval - (idle_end - idle_start).
  /// External callers blocked in parallel_* are not execution threads and
  /// do not count. Feeds FusionService's host_pool.* utilisation gauges.
  [[nodiscard]] double idle_seconds() const;

  /// Run fn(chunk_begin, chunk_end) over [0, n) split into one contiguous
  /// chunk per thread; blocks until every chunk completes, executing queued
  /// tasks while it waits. Rethrows the first worker exception. Safe to
  /// call from inside a pool task (nested parallelism).
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Run fn(i) for i in [0, count) as `count` independent tasks; blocks,
  /// helping execute queued tasks while waiting. Safe to call from inside a
  /// pool task (nested parallelism) and concurrently from many threads.
  void parallel_tasks(int count, const std::function<void(int)>& fn);

  /// Queue fn() as one task and return at once, without helping: whichever
  /// thread drains the queue next runs it (a worker, or a caller helping
  /// inside parallel_*). The future carries fn's result or its exception.
  /// fn may call parallel_* on this pool (nested parallelism).
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F&>> submit(F fn) {
    // std::function needs a copyable target, so the move-only task sits
    // behind a shared pointer.
    auto task =
        std::make_shared<std::packaged_task<std::invoke_result_t<F&>()>>(
            std::move(fn));
    auto result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Wire the pool into a metrics registry. Creates, under `prefix`:
  ///   <prefix>tasks_executed  counter — every task run to completion
  ///   <prefix>helped_tasks    counter — the subset executed by a BLOCKED
  ///                           caller inside parallel_* (the
  ///                           help-while-waiting steals)
  ///   <prefix>parks           counter — times a thread went to sleep for
  ///                           lack of work
  ///   <prefix>idle_seconds    gauge (sum) — completed park time
  /// Publication is synchronized with the pool mutex (workers read the
  /// series pointers under it), so binding is safe at any point; activity
  /// before the bind is simply not counted. The registry must outlive the
  /// pool.
  void bind_metrics(runtime::MetricsRegistry& registry,
                    const std::string& prefix);

 private:
  /// Completion state of one parallel_tasks call, guarded by the pool
  /// mutex. Lives on the caller's stack: the caller cannot return before
  /// remaining hits zero, which is also the last touch by any task.
  struct TaskGroup {
    int remaining = 0;
    std::exception_ptr first_error;
    std::condition_variable done;
  };

  void worker_loop();
  /// Append one task that never throws and wake a parked thread.
  void enqueue(std::function<void()> task);
  /// Pop and run the front task. `lock` is held on entry and exit,
  /// released around the task body. `helping` marks execution by a
  /// blocked parallel_* caller rather than the worker loop.
  void run_one(std::unique_lock<std::mutex>& lock, bool helping = false);

  std::vector<std::thread> threads_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;

  // Idle bookkeeping (guarded by mutex_, which every park holds at entry
  // and exit): completed parks accumulate into idle_nanos_; in-progress
  // parks are reconstructed at read time from their count and the sum of
  // their start stamps (see idle_seconds()).
  std::int64_t idle_nanos_ = 0;
  int parked_threads_ = 0;
  std::int64_t park_start_sum_nanos_ = 0;

  // Optional metrics series (bind_metrics); null = unwired. Updates are
  // single relaxed atomic ops, cheap enough for the task path.
  runtime::Counter* tasks_metric_ = nullptr;
  runtime::Counter* helped_metric_ = nullptr;
  runtime::Counter* parks_metric_ = nullptr;
  runtime::Gauge* idle_metric_ = nullptr;
};

}  // namespace rif::core
