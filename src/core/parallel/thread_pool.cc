#include "core/parallel/thread_pool.h"

#include <chrono>
#include <utility>

namespace rif::core {

namespace {

/// The pool (if any) whose worker_loop owns this thread. Distinguishes a
/// pool's own execution threads from external callers — including workers
/// of a DIFFERENT pool — when attributing idle time in the blocking
/// helpers. (A thread parked inside another pool's helper is attributed
/// to neither pool.)
thread_local const void* t_owner_pool = nullptr;

std::int64_t now_nanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  RIF_CHECK(threads >= 1);
  threads_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_one(std::unique_lock<std::mutex>& lock, bool helping) {
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  // Metric pointer reads stay under the pool mutex (like every other
  // site), so bind_metrics can publish them race-free at any time. Count
  // before running: the task's completion can release its caller, which
  // must then see every task of its group counted.
  if (tasks_metric_ != nullptr) tasks_metric_->add(1);
  if (helping && helped_metric_ != nullptr) helped_metric_->add(1);
  lock.unlock();
  task();  // task wrappers never throw; errors land in their TaskGroup
  lock.lock();
}

void ThreadPool::bind_metrics(runtime::MetricsRegistry& registry,
                              const std::string& prefix) {
  // Series creation first (takes the registry's own lock), then one
  // atomic publish under the pool mutex: workers park — and read these
  // pointers — the moment the constructor returns, so even a bind right
  // after construction races without this.
  runtime::Counter& tasks = registry.counter(prefix + "tasks_executed");
  runtime::Counter& helped = registry.counter(prefix + "helped_tasks");
  runtime::Counter& parks = registry.counter(prefix + "parks");
  runtime::Gauge& idle =
      registry.gauge(prefix + "idle_seconds", runtime::GaugeKind::kSum);
  const std::lock_guard<std::mutex> lock(mutex_);
  tasks_metric_ = &tasks;
  helped_metric_ = &helped;
  parks_metric_ = &parks;
  idle_metric_ = &idle;
}

double ThreadPool::idle_seconds() const {
  std::lock_guard lock(mutex_);
  std::int64_t total = idle_nanos_;
  if (parked_threads_ > 0) {
    total += parked_threads_ * now_nanos() - park_start_sum_nanos_;
  }
  return static_cast<double>(total) * 1e-9;
}

void ThreadPool::worker_loop() {
  t_owner_pool = this;
  std::unique_lock lock(mutex_);
  for (;;) {
    if (!stopping_ && queue_.empty()) {
      const std::int64_t t0 = now_nanos();
      ++parked_threads_;
      park_start_sum_nanos_ += t0;
      if (parks_metric_ != nullptr) parks_metric_->add(1);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      --parked_threads_;
      park_start_sum_nanos_ -= t0;
      const std::int64_t parked = now_nanos() - t0;
      idle_nanos_ += parked;
      if (idle_metric_ != nullptr) {
        idle_metric_->record(static_cast<double>(parked) * 1e-9);
      }
    }
    if (stopping_ && queue_.empty()) return;
    run_one(lock);
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    RIF_CHECK_MSG(!stopping_, "submit on a stopping pool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_tasks(int count, const std::function<void(int)>& fn) {
  RIF_CHECK(count >= 0);
  if (count == 0) return;

  // The group and `fn` are captured by reference: tasks only touch them
  // before decrementing `remaining`, and this frame outlives the decrement
  // to zero (see the wait loop below).
  TaskGroup group;
  group.remaining = count;
  {
    std::lock_guard lock(mutex_);
    RIF_CHECK_MSG(!stopping_, "parallel_tasks on a stopping pool");
    for (int i = 0; i < count; ++i) {
      queue_.push_back([this, &group, &fn, i] {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lk(mutex_);
          if (!group.first_error) group.first_error = std::current_exception();
        }
        std::lock_guard lk(mutex_);
        if (--group.remaining == 0) group.done.notify_all();
      });
    }
  }
  cv_.notify_all();

  // Help-while-waiting: drain the queue (our own tasks or anyone else's —
  // nested groups submitted by our tasks included) instead of parking a
  // thread. Sleeping is safe only when the queue is empty: our unfinished
  // tasks are then running on other threads, each helping the same way, so
  // some thread always makes progress and nesting cannot deadlock.
  std::unique_lock lock(mutex_);
  while (group.remaining > 0) {
    if (!queue_.empty()) {
      run_one(lock, /*helping=*/true);
    } else {
      // The queue clause matters only at wait entry: it closes the race
      // where a task was enqueued between our empty-check and the wait's
      // predicate evaluation. Once parked, nothing notifies this CV until
      // the group completes — a mid-sleep enqueue does not wake us, which
      // is safe because every enqueuer helps drain its own work.
      // A parked execution thread of THIS pool (nested helper out of
      // work) is idle capacity; a parked external caller — including a
      // worker of some other pool — is not.
      const bool own_thread = t_owner_pool == this;
      const std::int64_t t0 = own_thread ? now_nanos() : 0;
      if (own_thread) {
        ++parked_threads_;
        park_start_sum_nanos_ += t0;
        if (parks_metric_ != nullptr) parks_metric_->add(1);
      }
      group.done.wait(lock,
                      [&] { return group.remaining == 0 || !queue_.empty(); });
      if (own_thread) {
        --parked_threads_;
        park_start_sum_nanos_ -= t0;
        const std::int64_t parked = now_nanos() - t0;
        idle_nanos_ += parked;
        if (idle_metric_ != nullptr) {
          idle_metric_->record(static_cast<double>(parked) * 1e-9);
        }
      }
    }
  }
  if (group.first_error) std::rethrow_exception(group.first_error);
}

void ThreadPool::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& fn) {
  RIF_CHECK(n >= 0);
  if (n == 0) return;
  const int chunks = static_cast<int>(
      std::min<std::int64_t>(n, static_cast<std::int64_t>(threads_.size())));
  const std::int64_t base = n / chunks;
  const std::int64_t extra = n % chunks;
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::int64_t pos = 0;
  for (int c = 0; c < chunks; ++c) {
    const std::int64_t len = base + (c < extra ? 1 : 0);
    ranges.emplace_back(pos, pos + len);
    pos += len;
  }
  parallel_tasks(chunks, [&](int c) { fn(ranges[c].first, ranges[c].second); });
}

}  // namespace rif::core
