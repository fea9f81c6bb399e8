#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace hdc::parallel {

namespace {

/// Set for the lifetime of each worker loop; lets wait_idle() detect the
/// self-deadlock case and parallel_for() fall back to inline execution.
thread_local ThreadPool* t_current_pool = nullptr;

/// Registry handles resolved once; all pool instances share these.
struct PoolMetrics {
  obs::Counter& submitted = obs::counter("pool.tasks_submitted");
  obs::Counter& completed = obs::counter("pool.tasks_completed");
  obs::Gauge& queue_depth = obs::gauge("pool.queue_depth");
  obs::Histogram& task_seconds = obs::histogram("pool.task_seconds");

  static PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (obs::trace_enabled()) {
    // Capture the submitter's span context and open a flow arrow, so the
    // worker-side execution parents back to (and is visually linked with)
    // the code that scheduled it.
    const obs::SpanContext context = obs::current_span_context();
    const std::uint64_t flow = obs::flow_begin("pool.submit");
    task = [context, flow, inner = std::move(task)] {
      obs::ContextGuard guard(context);
      obs::flow_end("pool.submit", flow);
      obs::Span span("pool.task");
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    PoolMetrics& metrics = PoolMetrics::get();
    metrics.submitted.increment();
    metrics.queue_depth.add(1);
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  if (t_current_pool == this) {
    throw std::logic_error(
        "ThreadPool::wait_idle() called from inside a worker of the same "
        "pool: this deadlocks once every worker waits. Wait from the "
        "thread that submitted the tasks.");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

ThreadPool* ThreadPool::current() noexcept { return t_current_pool; }

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

std::size_t hardware_threads() noexcept {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (obs::enabled()) {
      PoolMetrics& metrics = PoolMetrics::get();
      metrics.queue_depth.add(-1);
      util::Timer timer;
      task();
      metrics.task_seconds.record(timer.seconds());
      metrics.completed.increment();
    } else {
      task();
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {
constexpr std::size_t kInlineGrain = 256;
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         ThreadPool* pool) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t n = end - begin;
  const std::size_t workers = pool->size();
  // Inline when the range is small, the pool is serial, or we are already on
  // a worker of this pool (a nested wait_idle() would deadlock; the chunk
  // results are identical either way).
  if (n < kInlineGrain || workers <= 1 || ThreadPool::current() == pool) {
    fn(begin, end);
    return;
  }
  const std::size_t chunks = std::min(workers * 4, n);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  // Wait for this call's chunks only: pool->wait_idle() would also wait for
  // every unrelated task on a shared pool (another thread's loop, a serve
  // drain). The last chunk notifies while holding the lock, so `done` is
  // still alive when it does.
  std::mutex done_mutex;
  std::condition_variable done;
  std::size_t pending = chunks;
  std::size_t cursor = begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < rem ? 1 : 0);
    const std::size_t lo = cursor;
    const std::size_t hi = cursor + len;
    cursor = hi;
    pool->submit([&fn, &done_mutex, &done, &pending, lo, hi] {
      fn(lo, hi);
      const std::lock_guard<std::mutex> lock(done_mutex);
      if (--pending == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done.wait(lock, [&pending] { return pending == 0; });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, ThreadPool* pool) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      pool);
}

}  // namespace hdc::parallel
