#include "qp/service/thread_pool.h"

#include "qp/util/fault_hub.h"

namespace qp {
namespace {

/// Identifies the pool (and worker slot) the current thread belongs to,
/// so Submit from inside a task lands on the submitter's own deque.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerIdentity current_worker;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  // First caller wins; everyone else (including the destructor after an
  // explicit Shutdown) just waits for the join to have happened.
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    while (!joined_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return;
  }
  {
    // Pair with the workers' wait so no notify is lost between their
    // predicate check and sleep.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  joined_.store(true, std::memory_order_release);
}

bool ThreadPool::Submit(std::function<void()> task) {
  // Chaos site: a refused submission. Callers already handle `false`
  // (the service sheds the request), so an injected refusal exercises
  // exactly the shutdown-race path.
  if (!QP_FAULT_POINT("pool.submit").ok()) return false;
  size_t target;
  if (current_worker.pool == this) {
    target = current_worker.index;
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  // Count before publishing the task: a worker that pops it decrements
  // strictly after this increment, so pending_ never underflows.
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    // Checked after pending_ counts the task: the workers exit only once
    // stopping_ is set and pending_ is zero, so either this push runs
    // before they leave or this check sees stopping_ — a task can never
    // be left behind unrun.
    if (stopping_.load(std::memory_order_acquire)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
  return true;
}

size_t ThreadPool::ApproxQueueDepth() const {
  return pending_.load(std::memory_order_acquire);
}

bool ThreadPool::TryTake(size_t self, std::function<void()>* task) {
  {
    // Own deque: LIFO.
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // Steal: FIFO from the next non-empty victim.
  for (size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  current_worker = {this, self};
  std::function<void()> task;
  for (;;) {
    if (TryTake(self, &task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace qp
