// Unit tests for the shared planner thread pool (common/thread_pool.h):
// task execution, work-helping parallel_for (coverage, exceptions, nesting),
// pause/resume, drain-on-destruction, and the env-driven default sizing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "blink/common/thread_pool.h"

namespace blink::common {
namespace {

TEST(ThreadPool, RunsPostedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) pool.post([&] { ran.fetch_add(1); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SubmitReturnsValueAndPropagatesException) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(ok.get(), 42);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("planner exploded"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> seen(kN);
  pool.parallel_for(kN, [&](std::size_t i) { seen[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForUsesMultipleThreads) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.parallel_for(64, [&](std::size_t) {
    // Slow each iteration down so the helpers get a chance to claim some.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  // The calling thread always participates; on a multi-core host helpers
  // join it, but even a single-core box must have run every iteration.
  EXPECT_GE(ids.size(), 1u);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error("iteration 17");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // One worker: the outer loop's helper occupies it, so the inner loops can
  // only finish because each caller claims every iteration its helpers did
  // not start and then waits only for helpers already running.
  ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, ParallelForRespectsMaxWorkersOne) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.parallel_for(
      32,
      [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      },
      /*max_workers=*/1);
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

TEST(ThreadPool, FreeParallelForSerialWhenUnparallel) {
  // max_workers <= 1 (including 0) and n <= 1 both run serially on the
  // calling thread, never touching the shared pool.
  const auto caller = std::this_thread::get_id();
  for (const std::size_t max_workers : {std::size_t{0}, std::size_t{1}}) {
    std::vector<int> order;
    parallel_for(4, max_workers, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  }
}

TEST(ThreadPool, PauseHoldsQueueUntilResume) {
  ThreadPool pool(2);
  pool.pause();
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.post([&] { ran.fetch_add(1); });
  // Workers are held: nothing runs and the queue reports the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(pool.queue_depth(), 8u);
  pool.resume();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.pause();  // guarantee the tasks are still queued at destruction
    for (int i = 0; i < 8; ++i) pool.post([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvVariable) {
  ASSERT_EQ(setenv("BLINK_PLANNER_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  // Garbage and non-positive values fall back to hardware concurrency.
  ASSERT_EQ(setenv("BLINK_PLANNER_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ASSERT_EQ(setenv("BLINK_PLANNER_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ASSERT_EQ(unsetenv("BLINK_PLANNER_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

}  // namespace
}  // namespace blink::common
