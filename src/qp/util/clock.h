#ifndef QP_UTIL_CLOCK_H_
#define QP_UTIL_CLOCK_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace qp {

/// The time source behind every backoff/cadence decision that must be
/// testable: circuit-breaker reopen windows, scrubber intervals, and
/// migration retry backoff all read time through this seam instead of
/// touching std::chrono directly. Production code uses Clock::Real()
/// (steady_clock); tests inject a FakeClock and advance it explicitly,
/// so a suite that used to sleep-and-poll wall time becomes a
/// deterministic sequence of Advance() calls — immune to sanitizer
/// slowdowns.
///
/// Implementations must be thread-safe: NowNanos is read concurrently
/// by mutators and background threads.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds. Only differences are meaningful.
  virtual int64_t NowNanos() const = 0;

  /// Blocks the caller for `duration` of this clock's time. A FakeClock
  /// returns immediately after advancing itself, so retry loops with
  /// backoff run at full speed under test.
  virtual void SleepFor(std::chrono::nanoseconds duration) = 0;

  /// The condition-variable analogue of SleepFor: waits on `cv` (with
  /// `lock` held, as usual) until `pred()` holds or `timeout` of this
  /// clock's time has passed. Returns pred()'s final value. The real
  /// clock forwards to cv.wait_for; a FakeClock parks the waiter until
  /// either the cv is notified or Advance() pushes time past the
  /// deadline.
  virtual bool WaitFor(std::condition_variable& cv,
                       std::unique_lock<std::mutex>& lock,
                       std::chrono::nanoseconds timeout,
                       const std::function<bool()>& pred) = 0;

  /// The process-wide steady-clock instance (never deleted).
  static Clock* Real();
};

/// Deterministic test clock: time moves only when Advance() is called.
/// Threads blocked in WaitFor() re-evaluate their predicate/deadline on
/// every Advance, so a test drives "5 seconds pass" as one call instead
/// of sleeping.
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_ns = 0) : now_ns_(start_ns) {}

  int64_t NowNanos() const override {
    return now_ns_.load(std::memory_order_acquire);
  }

  void SleepFor(std::chrono::nanoseconds duration) override {
    Advance(duration);
  }

  bool WaitFor(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
               std::chrono::nanoseconds timeout,
               const std::function<bool()>& pred) override;

  /// Moves time forward and wakes every thread parked in WaitFor so it
  /// can re-check its deadline.
  void Advance(std::chrono::nanoseconds duration);

  /// Threads currently inside WaitFor. A waiter registers after reading
  /// its deadline, so a test that advances once this count covers it
  /// knows the advance lands after the deadline was computed.
  size_t num_waiters() const;

 private:
  /// A parked WaitFor call. The waiter's mutex is recorded alongside its
  /// cv because Advance() must acquire it before notifying: notifying
  /// without it can land between the waiter's predicate evaluation and
  /// its park, and that wakeup is lost forever.
  struct Waiter {
    std::condition_variable* cv;
    std::mutex* mutex;
  };

  std::atomic<int64_t> now_ns_;
  mutable std::mutex waiters_mutex_;
  std::vector<Waiter> waiters_;
};

}  // namespace qp

#endif  // QP_UTIL_CLOCK_H_
