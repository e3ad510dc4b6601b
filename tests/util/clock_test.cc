// FakeClock semantics: time moves only under Advance, SleepFor returns
// immediately, and WaitFor never loses the wakeup that Advance sends —
// a notify racing the waiter's evaluate-then-park window must still
// land (the regression here hung deterministic suites).

#include "qp/util/clock.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "gtest/gtest.h"

namespace qp {
namespace {

TEST(FakeClockTest, TimeMovesOnlyUnderAdvance) {
  FakeClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100);
  clock.Advance(std::chrono::nanoseconds(50));
  EXPECT_EQ(clock.NowNanos(), 150);
  // SleepFor is an Advance: the caller never blocks on wall time.
  clock.SleepFor(std::chrono::nanoseconds(25));
  EXPECT_EQ(clock.NowNanos(), 175);
}

TEST(FakeClockTest, WaitForReturnsWhenPredicateAlreadyHolds) {
  FakeClock clock;
  std::condition_variable cv;
  std::mutex mutex;
  std::unique_lock<std::mutex> lock(mutex);
  EXPECT_TRUE(clock.WaitFor(cv, lock, std::chrono::seconds(1),
                            [] { return true; }));
  EXPECT_TRUE(lock.owns_lock());
}

TEST(FakeClockTest, WaitForWakesOnExternalNotification) {
  FakeClock clock;
  std::condition_variable cv;
  std::mutex mutex;
  bool ready = false;
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(clock.WaitFor(cv, lock, std::chrono::hours(1),
                              [&] { return ready; }));
  });
  {
    std::lock_guard<std::mutex> lock(mutex);
    ready = true;
  }
  cv.notify_all();
  waiter.join();
  EXPECT_EQ(clock.NowNanos(), 0);
}

TEST(FakeClockTest, AdvanceNeverLosesTheDeadlineWakeup) {
  // The lost-wakeup shape: the waiter evaluates its deadline (not yet
  // reached) and is about to park when Advance pushes time past it. A
  // notify that does not serialize with the waiter's mutex can land in
  // that window and vanish, parking the waiter forever. Many iterations
  // widen the window; a hang here is the failure (ctest timeout).
  FakeClock clock;
  std::condition_variable cv;
  std::mutex mutex;
  for (int i = 0; i < 500; ++i) {
    std::thread waiter([&] {
      std::unique_lock<std::mutex> lock(mutex);
      EXPECT_FALSE(clock.WaitFor(cv, lock, std::chrono::nanoseconds(10),
                                 [] { return false; }));
      EXPECT_TRUE(lock.owns_lock());
    });
    // Advance only once the waiter is registered: its deadline is read
    // before that, so the single advance below is sure to pass it. An
    // advance that ran before the deadline read would leave the deadline
    // beyond the only advance, and the waiter would rightly park forever.
    while (clock.num_waiters() == 0) std::this_thread::yield();
    // One shot past the deadline: the waiter must observe it no matter
    // where between evaluation and park it currently is.
    clock.Advance(std::chrono::nanoseconds(20));
    waiter.join();
  }
}

TEST(FakeClockTest, AdvanceWakesMultipleWaiters) {
  FakeClock clock;
  std::condition_variable cv_a, cv_b;
  std::mutex mutex_a, mutex_b;
  std::atomic<int> done{0};
  std::thread a([&] {
    std::unique_lock<std::mutex> lock(mutex_a);
    EXPECT_FALSE(clock.WaitFor(cv_a, lock, std::chrono::nanoseconds(5),
                               [] { return false; }));
    done.fetch_add(1, std::memory_order_acq_rel);
  });
  std::thread b([&] {
    std::unique_lock<std::mutex> lock(mutex_b);
    EXPECT_FALSE(clock.WaitFor(cv_b, lock, std::chrono::nanoseconds(5),
                               [] { return false; }));
    done.fetch_add(1, std::memory_order_acq_rel);
  });
  // Advance until both waiters' deadlines pass: each must unpark
  // regardless of registration order relative to the advances.
  while (done.load(std::memory_order_acquire) < 2) {
    clock.Advance(std::chrono::nanoseconds(10));
    std::this_thread::yield();
  }
  a.join();
  b.join();
}

}  // namespace
}  // namespace qp
