#include "blink/common/thread_pool.h"

#include <cstdlib>
#include <string>

namespace blink::common {

std::size_t ThreadPool::default_threads() {
  if (const char* env = std::getenv("BLINK_PLANNER_THREADS")) {
    try {
      const long v = std::stol(env);
      if (v >= 1) return static_cast<std::size_t>(std::min(v, 256L));
    } catch (const std::exception&) {
      // Fall through to the hardware default on a malformed value.
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_threads());
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    paused_ = false;  // a paused pool still drains on shutdown
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      queue_.push_back(std::move(task));
      task = nullptr;
    }
  }
  if (task) {
    task();  // stopped pool: run inline rather than drop the work
    return;
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || (!queue_.empty() && !paused_); });
      if (queue_.empty()) {
        if (stop_) return;  // drained
        continue;
      }
      if (paused_ && !stop_) continue;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::pause() {
  const std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void ThreadPool::resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

std::size_t ThreadPool::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace blink::common
