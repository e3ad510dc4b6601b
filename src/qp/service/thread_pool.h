#ifndef QP_SERVICE_THREAD_POOL_H_
#define QP_SERVICE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qp {

/// A fixed-size thread pool over one FIFO queue: tasks start in
/// submission order, so under a backlog the oldest request runs first
/// and is the last to see its budget run out. One mutex guards the
/// queue and one condition variable parks idle workers, which is plenty
/// for the coarse-grained tasks (whole personalization requests) this
/// pool runs.
///
/// Tasks must not throw (the library reports failures through Status);
/// a throwing task terminates, like an exception escaping std::thread.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Shutdown, if not already shut down.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops the pool: runs every task already queued, then joins the
  /// workers. Idempotent; later calls (and the destructor) wait for the
  /// first one's join. After Shutdown begins, Submit safely returns false
  /// instead of enqueueing.
  void Shutdown();

  /// Enqueues `task` at the back of the queue and returns true. Once
  /// Shutdown has begun, returns false and the task is NOT enqueued
  /// (never UB, never silently dropped-but-true): the caller decides how
  /// to surface the rejection.
  bool Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// Tasks currently queued (not yet running); stale as soon as it
  /// returns.
  size_t ApproxQueueDepth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  /// Signals workers (a task arrived, or shutdown began) and Shutdown
  /// callers waiting for the first one's join.
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  bool joined_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qp

#endif  // QP_SERVICE_THREAD_POOL_H_
