// A small fixed-size work-stealing thread pool. Each worker owns a deque:
// it pops its own work LIFO from the back and steals FIFO from the front
// of a sibling when drained. Submissions round-robin across the deques.
//
// This is the execution substrate for the ConsistencyEngine's sharded
// seal: many short independent tasks, submitted in one burst,
// with the submitter blocking on WaitIdle() until every task has retired —
// tasks may reference the submitter's stack, so the pool guarantees no
// task is left in flight once WaitIdle() returns.
#pragma once

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bagc {

/// \brief Fixed pool of worker threads with per-worker stealing deques.
///
/// Thread-safe: Submit and WaitIdle may be called from any thread (though
/// WaitIdle only waits for tasks submitted before it was entered; the
/// ConsistencyEngine serializes its bursts). The destructor drains all
/// remaining tasks, then joins the workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; at least one.
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; it will run on some worker thread.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running (not merely
  /// been dequeued). After this returns, no task is touching caller state.
  void WaitIdle();

 private:
  struct WorkQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  // Pops from worker `self`'s back, else steals from a sibling's front.
  // Called only after a task has been reserved via queued_, so some queue
  // is guaranteed non-empty.
  std::function<void()> Take(size_t self);
  void WorkerLoop(size_t self);

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards queued_, in_flight_, stop_
  std::condition_variable work_cv_;  // signaled on Submit and stop
  std::condition_variable idle_cv_;  // signaled when the pool drains
  size_t queued_ = 0;     // tasks enqueued, not yet dequeued
  size_t in_flight_ = 0;  // tasks dequeued, not yet finished
  bool stop_ = false;
  size_t next_queue_ = 0;  // round-robin submission cursor
};

}  // namespace bagc
