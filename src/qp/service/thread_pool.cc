#include "qp/service/thread_pool.h"

#include "qp/util/fault_hub.h"

namespace qp {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    // An earlier or concurrent call owns the join; wait for it.
    cv_.wait(lock, [this] { return joined_; });
    return;
  }
  stopping_ = true;
  lock.unlock();
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  lock.lock();
  joined_ = true;
  cv_.notify_all();
}

bool ThreadPool::Submit(std::function<void()> task) {
  // Chaos site: a refused submission. Callers already handle `false`
  // (the service sheds the request), so an injected refusal exercises
  // exactly the shutdown-race path.
  if (!QP_FAULT_POINT("pool.submit").ok()) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Workers exit only once stopping_ is set and the queue is empty, and
    // both are read under this mutex: a task pushed here always runs.
    if (stopping_) return false;
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

size_t ThreadPool::ApproxQueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // Stopping, and every task has run.
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace qp
