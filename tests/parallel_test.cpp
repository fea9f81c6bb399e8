#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hdc::parallel {
namespace {

TEST(ThreadPool, HasAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSizeRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(0, kN, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<std::size_t> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ParallelForChunks, ChunksCoverRangeWithoutOverlap) {
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_chunks(0, kN, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, SmallRangeRunsInline) {
  // Below the grain the loop runs on the calling thread; behaviour must be
  // identical (all indices visited once).
  std::vector<int> visits(100, 0);
  parallel_for(0, 100, [&](std::size_t i) { ++visits[i]; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelFor, ResultsMatchSerialReduction) {
  constexpr std::size_t kN = 100000;
  std::vector<double> data(kN);
  for (std::size_t i = 0; i < kN; ++i) data[i] = static_cast<double>(i % 97);
  std::vector<double> squared(kN);
  parallel_for(0, kN, [&](std::size_t i) { squared[i] = data[i] * data[i]; });
  double expected = 0.0;
  double actual = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    expected += data[i] * data[i];
    actual += squared[i];
  }
  EXPECT_DOUBLE_EQ(expected, actual);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, StatsStartAtZero) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.tasks_submitted(), 0u);
  EXPECT_EQ(pool.tasks_completed(), 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, StatsConsistentAfterWaitIdle) {
  ThreadPool pool(3);
  constexpr std::uint64_t kTasks = 500;
  std::atomic<int> counter{0};
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  // After wait_idle() every submitted task has run and the queue is drained.
  EXPECT_EQ(pool.tasks_submitted(), kTasks);
  EXPECT_EQ(pool.tasks_completed(), kTasks);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(counter.load(), static_cast<int>(kTasks));
}

TEST(ThreadPool, StatsAccumulateAcrossBatches) {
  ThreadPool pool(2);
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) pool.submit([] {});
    pool.wait_idle();
  }
  EXPECT_EQ(pool.tasks_submitted(), 30u);
  EXPECT_EQ(pool.tasks_completed(), 30u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, CurrentIdentifiesWorkerThread) {
  ThreadPool pool(2);
  EXPECT_EQ(ThreadPool::current(), nullptr);
  std::atomic<ThreadPool*> seen{nullptr};
  pool.submit([&] { seen.store(ThreadPool::current()); });
  pool.wait_idle();
  EXPECT_EQ(seen.load(), &pool);
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, WaitIdleInsideWorkerThrows) {
  // A worker blocking on its own pool's wait_idle() would occupy the slot
  // the remaining tasks need; the pool refuses instead of deadlocking.
  // Pool tasks must not throw, so the guard is probed inside a catch.
  ThreadPool pool(2);
  std::atomic<bool> threw{false};
  pool.submit([&] {
    try {
      pool.wait_idle();
    } catch (const std::logic_error&) {
      threw.store(true);
    }
  });
  pool.wait_idle();  // from outside a worker: still fine
  EXPECT_TRUE(threw.load());
}

TEST(ThreadPool, WaitIdleOnOtherPoolFromWorkerIsAllowed) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<bool> ok{false};
  outer.submit([&] {
    inner.submit([] {});
    inner.wait_idle();  // different pool: no self-deadlock hazard
    ok.store(true);
  });
  outer.wait_idle();
  EXPECT_TRUE(ok.load());
}

TEST(ParallelFor, InsideWorkerRunsInline) {
  // parallel_for targeting the pool the caller is already a worker of runs
  // the loop inline (it could not wait_idle() on itself). Same results.
  ThreadPool pool(2);
  constexpr std::size_t kN = 4096;  // above the inline grain
  std::vector<std::atomic<int>> visits(kN);
  std::atomic<bool> finished{false};
  pool.submit([&] {
    parallel_for(
        0, kN, [&](std::size_t i) { visits[i].fetch_add(1); }, &pool);
    finished.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(finished.load());
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, DoesNotWaitForUnrelatedTasks) {
  // One worker of a shared 2-worker pool is held by an unrelated task. A
  // parallel_for from another thread must finish on the free worker instead
  // of waiting for the whole pool to go idle.
  ThreadPool pool(2);
  std::latch release(1);
  std::atomic<bool> blocker_running{false};
  pool.submit([&] {
    blocker_running.store(true);
    release.wait();
  });
  while (!blocker_running.load()) std::this_thread::yield();

  constexpr std::size_t kN = 4096;  // above the inline grain
  std::vector<std::atomic<int>> visits(kN);
  std::atomic<bool> loop_done{false};
  std::thread caller([&] {
    parallel_for(0, kN, [&](std::size_t i) { visits[i].fetch_add(1); }, &pool);
    loop_done.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!loop_done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(loop_done.load()) << "parallel_for waited for an unrelated task";
  release.count_down();
  caller.join();
  pool.wait_idle();
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

}  // namespace
}  // namespace hdc::parallel
