#ifndef QP_SERVICE_THREAD_POOL_H_
#define QP_SERVICE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qp {

/// A fixed-size work-stealing thread pool. Each worker owns a deque: it
/// pushes and pops its own work LIFO (cache-friendly for task trees) and
/// steals FIFO from the other workers when its deque drains — the
/// standard Chase-Lev discipline, here with per-deque mutexes, which is
/// plenty for the coarse-grained tasks (whole personalization requests)
/// this pool runs.
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

  /// Enqueues `task` and returns true. Called from a worker thread, the
  /// task goes to that worker's own deque (stealable by the rest); from
  /// outside the pool, deques are fed round-robin. Once Shutdown has
  /// begun, returns false and the task is NOT enqueued (never UB, never
  /// silently dropped-but-true): the caller decides how to surface the
  /// rejection.
  bool Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// Tasks currently queued (not yet running). Approximate: reads the
  /// deques without a global lock.
  size_t ApproxQueueDepth() const;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);

  /// Pops own work (back) or steals (front of the next non-empty deque,
  /// scanning from self+1). Returns false when every deque is empty.
  bool TryTake(size_t self, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  /// Wakes idle workers; guards only the sleep/wake handshake.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> joined_{false};
  std::atomic<size_t> next_queue_{0};
  std::atomic<size_t> pending_{0};
};

}  // namespace qp

#endif  // QP_SERVICE_THREAD_POOL_H_
