/// \file
/// The repo's one thread pool: a fixed set of workers over a bounded-locking
/// task queue, with a work-helping parallel_for for the planner's cold path
/// and pause/resume + drain-on-destruction semantics for the serving layer.
///
/// Sizing: ThreadPool::shared() is the process-wide planner pool, sized by
/// the BLINK_PLANNER_THREADS environment variable when set (a positive
/// integer) and std::thread::hardware_concurrency() otherwise — see
/// default_threads(). Engines cap how much of the shared pool they use via
/// EngineOptions::planner_threads; the serving layer instantiates its own
/// pool so planner fan-out and request workers never starve each other.
///
/// parallel_for never deadlocks under nesting: the calling thread claims
/// iterations itself until none are left, then waits only for the helper
/// tasks a worker has already started; helpers still queued at that point
/// are retired unrun. A parallel_for issued from inside a pool task (a
/// bake-off inside a batched compile, say) therefore always makes progress
/// even when every worker is busy. The caller never runs unrelated queued
/// tasks while it waits: one that runs inside a lock the caller holds (a
/// tree-set slot's std::call_once, say) and picks up a sibling task needing
/// the same lock would deadlock on itself.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace blink::common {

/// A fixed-size worker pool over a FIFO task queue. Thread-safe throughout:
/// any thread may post(), submit(), or run parallel_for() concurrently.
class ThreadPool {
 public:
  /// Starts \p threads workers (0 means default_threads()).
  explicit ThreadPool(std::size_t threads = 0);
  /// Drains every queued task (resuming a paused pool), then joins.
  ~ThreadPool();

  /// Not copyable: the workers and queue are identity.
  ThreadPool(const ThreadPool&) = delete;
  /// Not copyable: the workers and queue are identity.
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The default worker count: BLINK_PLANNER_THREADS when set to a positive
  /// integer, otherwise std::thread::hardware_concurrency() (at least 1).
  static std::size_t default_threads();

  /// The process-wide planner pool, created on first use with
  /// default_threads() workers. Engines share it for cold-path fan-out.
  static ThreadPool& shared();

  /// Number of worker threads.
  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues \p task for a worker (fire-and-forget). Tasks posted to a
  /// stopped pool run inline on the calling thread.
  void post(std::function<void()> task);

  /// Enqueues \p fn and returns a future for its result; exceptions thrown
  /// by \p fn surface at future.get().
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  /// Runs body(0) .. body(n-1), the calling thread participating alongside
  /// up to min(num_threads(), max_workers - 1) helper tasks (max_workers ==
  /// 0 means no cap beyond the pool size). Blocks until every iteration
  /// finished; the caller claims iterations until none are left and then
  /// waits only for helpers already running, so nested calls cannot
  /// deadlock. The first exception any iteration
  /// throws is rethrown here after remaining claims are cancelled; which
  /// iterations ran to completion in that case is unspecified.
  template <class F>
  void parallel_for(std::size_t n, F&& body, std::size_t max_workers = 0);

  /// Holds the workers after their current task: queued tasks stay queued.
  /// A parallel_for issued meanwhile runs every iteration on its caller.
  void pause();
  /// Releases pause().
  void resume();

  /// Tasks waiting in the queue right now.
  std::size_t queue_depth() const;

 private:
  struct ForState {
    std::atomic<std::size_t> next{0};
    std::size_t n = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t running = 0;  // helper tasks started and not yet finished
    bool closed = false;      // the caller stopped waiting for new helpers
    std::exception_ptr error;
  };

  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  bool paused_ = false;
  std::vector<std::thread> workers_;
};

template <class F>
void ThreadPool::parallel_for(std::size_t n, F&& body,
                              std::size_t max_workers) {
  if (n == 0) return;
  std::size_t width = num_threads() + 1;
  if (max_workers != 0) width = std::min(width, max_workers);
  width = std::min(width, n);

  auto state = std::make_shared<ForState>();
  state->n = n;
  F& fn = body;  // the caller outlives every claim loop below
  auto claim_loop = [state, &fn] {
    for (;;) {
      const std::size_t i =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) break;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
        // Cancel the remaining iterations; in-flight ones finish.
        state->next.store(state->n, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t helpers = width - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    post([state, claim_loop] {
      {
        const std::lock_guard<std::mutex> lock(state->mu);
        if (state->closed) return;  // the caller already finished the loop
        ++state->running;
      }
      claim_loop();
      const std::lock_guard<std::mutex> lock(state->mu);
      if (--state->running == 0) state->cv.notify_all();
    });
  }

  claim_loop();

  // Every iteration is claimed: close the call to helpers not yet started
  // and wait for the running ones to finish their claimed iterations.
  std::unique_lock<std::mutex> lock(state->mu);
  state->closed = true;
  state->cv.wait(lock, [&] { return state->running == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

/// Convenience: body(0) .. body(n-1) across the shared() pool, capped at
/// \p max_workers total participants; max_workers <= 1 (or n <= 1) runs
/// serially on the calling thread without touching the pool.
template <class F>
void parallel_for(std::size_t n, std::size_t max_workers, F&& body) {
  if (n <= 1 || max_workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool::shared().parallel_for(n, std::forward<F>(body), max_workers);
}

}  // namespace blink::common
