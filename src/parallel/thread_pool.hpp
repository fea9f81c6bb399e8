// Work-queue thread pool with a deterministic parallel_for wrapper.
//
// Results of all library algorithms are independent of thread count: parallel
// loops partition the index space statically and any per-item randomness is
// derived by hashing (seed, item index) rather than by sharing a generator.
//
// Every pool feeds the process-wide obs registry (pool.tasks_submitted /
// pool.tasks_completed counters, pool.queue_depth gauge, pool.task_seconds
// histogram) when obs::enabled(); the per-instance stats accessors below are
// always live and cost one relaxed atomic each.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hdc::parallel {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  /// Submitting from inside a worker of this pool is allowed (the task is
  /// queued normally) — but see wait_idle() for the blocking hazard.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished.
  ///
  /// Calling this from inside a worker of the *same* pool throws
  /// std::logic_error instead of deadlocking: the waiting worker would
  /// occupy the very slot the queued tasks need (with every worker waiting,
  /// the pool stalls forever). Wait from the thread that submitted the work,
  /// or run a dependent step inside the task that finishes last.
  void wait_idle();

  /// The pool whose worker loop is running on the calling thread, or
  /// nullptr when called from any non-worker thread.
  [[nodiscard]] static ThreadPool* current() noexcept;

  /// Lifetime totals for this pool instance. After wait_idle() returns,
  /// tasks_submitted() == tasks_completed() and queue_depth() == 0.
  [[nodiscard]] std::uint64_t tasks_submitted() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tasks_completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Tasks queued but not yet picked up by a worker.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
};

/// Invoke fn(i) for i in [begin, end). Splits the range into contiguous
/// chunks, one per worker. Blocks until this call's chunks are complete —
/// not until the pool is idle, so other threads' tasks on a shared pool do
/// not hold it up. `fn` must be thread-safe for distinct indices. Grain
/// below which the loop runs inline: 256. Called from inside a worker of
/// `pool` itself, the loop runs inline on the calling thread (same results,
/// no nested wait).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr);

/// Chunked variant: fn(chunk_begin, chunk_end) once per chunk. Useful when
/// per-iteration dispatch overhead matters (e.g. Hamming all-pairs rows).
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         ThreadPool* pool = nullptr);

/// std::thread::hardware_concurrency() clamped to at least 1 — the worker
/// count a default-constructed ThreadPool ends up with.
[[nodiscard]] std::size_t hardware_threads() noexcept;

}  // namespace hdc::parallel
