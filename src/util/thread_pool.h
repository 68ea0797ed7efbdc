// A small fixed-size thread pool: one FIFO queue of tasks behind one
// mutex, drained by a fixed set of workers.
//
// This is the bagcd server's shared query pool: search and witness work
// (a cyclic GLOBAL's first solve, KWISE, WITNESS) is handed to it one
// task at a time by the sessions, which block on the task's result.
// Tasks run in submission order as workers free up.
#pragma once

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bagc {

/// \brief Fixed pool of worker threads serving one FIFO task queue.
///
/// Thread-safe: Submit may be called from any thread, including from a
/// task. The destructor runs every task submitted before the queue
/// drains (tasks submitted by running tasks included), then joins the
/// workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; at least one.
  explicit ThreadPool(size_t num_threads);

  /// Runs every queued task, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; it will run on some worker thread.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;               // guards tasks_ and stop_
  std::condition_variable cv_;  // signaled on Submit and stop
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bagc
