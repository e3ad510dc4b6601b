#include "qp/util/clock.h"

#include <algorithm>
#include <thread>

namespace qp {

namespace {

class RealClock : public Clock {
 public:
  int64_t NowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void SleepFor(std::chrono::nanoseconds duration) override {
    if (duration.count() > 0) std::this_thread::sleep_for(duration);
  }

  bool WaitFor(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
               std::chrono::nanoseconds timeout,
               const std::function<bool()>& pred) override {
    return cv.wait_for(lock, timeout, pred);
  }
};

}  // namespace

Clock* Clock::Real() {
  static RealClock* clock = new RealClock();
  return clock;
}

bool FakeClock::WaitFor(std::condition_variable& cv,
                        std::unique_lock<std::mutex>& lock,
                        std::chrono::nanoseconds timeout,
                        const std::function<bool()>& pred) {
  const int64_t deadline = NowNanos() + timeout.count();
  // (De)register without the caller's lock held: Advance() locks
  // waiters_mutex_ and then each waiter's mutex, so taking
  // waiters_mutex_ while holding `lock` would invert that order.
  // Dropping the lock here is safe — cv.wait re-evaluates the predicate
  // under the lock before deciding to park.
  lock.unlock();
  {
    std::lock_guard<std::mutex> guard(waiters_mutex_);
    waiters_.push_back({&cv, lock.mutex()});
  }
  lock.lock();
  // Advance() acquires `lock`'s mutex before notifying, so a
  // notification cannot land between this predicate evaluation and the
  // park: either the waiter is already parked when it arrives, or the
  // predicate re-reads the already-advanced time.
  cv.wait(lock, [&] { return pred() || NowNanos() >= deadline; });
  lock.unlock();
  {
    std::lock_guard<std::mutex> guard(waiters_mutex_);
    auto it = std::find_if(waiters_.begin(), waiters_.end(),
                           [&](const Waiter& waiter) {
                             return waiter.cv == &cv &&
                                    waiter.mutex == lock.mutex();
                           });
    if (it != waiters_.end()) waiters_.erase(it);
  }
  lock.lock();
  return pred();
}

size_t FakeClock::num_waiters() const {
  std::lock_guard<std::mutex> guard(waiters_mutex_);
  return waiters_.size();
}

void FakeClock::Advance(std::chrono::nanoseconds duration) {
  now_ns_.fetch_add(duration.count(), std::memory_order_acq_rel);
  std::lock_guard<std::mutex> guard(waiters_mutex_);
  for (const Waiter& waiter : waiters_) {
    // Serialize with the waiter's evaluate-then-park window (see
    // WaitFor): once this mutex is acquired the waiter is either parked
    // or has not yet read the advanced time.
    { std::lock_guard<std::mutex> sync(*waiter.mutex); }
    waiter.cv->notify_all();
  }
}

}  // namespace qp
