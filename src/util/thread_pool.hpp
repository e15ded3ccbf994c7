// Fixed-size worker pool.
//
// Used by experiment campaigns (exp::Campaign) to run replications and by
// bench drivers to run parameter sweeps; the parallel simulation engine
// (core/parallel) runs its windows on its own persistent helpers instead.
// Tasks are fire-and-forget; `wait_idle` provides a quiescence barrier.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lsds::util {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Safe from any thread, including worker threads.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and all workers are idle.
  /// Must not be called from a worker thread (it would deadlock on itself).
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;   // signalled when work arrives or stopping
  std::condition_variable cv_idle_;   // signalled when a worker finishes a task
  std::deque<std::function<void()>> queue_;
  unsigned active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lsds::util
