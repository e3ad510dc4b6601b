// Stress tests for the FIFO thread pool: correctness of every submitted
// task across N threads x M batches, submission order kept under a
// backlog, submissions from worker threads, and teardown with work still
// queued.

#include <atomic>
#include <future>
#include <mutex>
#include <vector>

#include "gtest/gtest.h"
#include "qp/service/thread_pool.h"

namespace qp {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);

  constexpr int kTasks = 1000;
  std::atomic<int> done{0};
  std::vector<std::promise<int>> results(kTasks);
  std::vector<std::future<int>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) futures.push_back(results[i].get_future());

  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([i, &done, &results] {
      // Count before publishing: once every future is ready, every task
      // has counted.
      done.fetch_add(1);
      results[i].set_value(i * i);
    });
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::promise<int> p;
  auto f = p.get_future();
  pool.Submit([&p] { p.set_value(7); });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolTest, StressManyBatchesDeterministicResults) {
  // N threads x M batches of tasks computing a pure function; every batch
  // must produce exactly the serial answer no matter how work is stolen.
  constexpr size_t kThreads = 8;
  constexpr int kBatches = 20;
  constexpr int kTasksPerBatch = 64;
  ThreadPool pool(kThreads);

  auto f = [](int batch, int i) { return batch * 1000003 + i * i; };

  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<std::promise<int>> results(kTasksPerBatch);
    std::vector<std::future<int>> futures;
    for (auto& r : results) futures.push_back(r.get_future());
    for (int i = 0; i < kTasksPerBatch; ++i) {
      pool.Submit([&, i] { results[i].set_value(f(batch, i)); });
    }
    for (int i = 0; i < kTasksPerBatch; ++i) {
      EXPECT_EQ(futures[i].get(), f(batch, i)) << "batch " << batch;
    }
  }
}

TEST(ThreadPoolTest, SubmitFromWorkerThreadIsStealable) {
  // A task fans out subtasks from inside the pool; with one producer
  // worker, the children land on its own deque and must be stolen (or
  // drained) by the others for the count to converge.
  ThreadPool pool(4);
  constexpr int kChildren = 200;
  std::atomic<int> done{0};
  std::promise<void> all_done;
  auto all_done_future = all_done.get_future();

  pool.Submit([&] {
    for (int i = 0; i < kChildren; ++i) {
      pool.Submit([&] {
        if (done.fetch_add(1) + 1 == kChildren) all_done.set_value();
      });
    }
  });
  all_done_future.wait();
  EXPECT_EQ(done.load(), kChildren);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  constexpr int kTasks = 300;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // Destructor runs with most tasks still queued.
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, QueueDepthReflectsBacklog) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> started;
  pool.Submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();  // Worker is now blocked inside the task.
  for (int i = 0; i < 5; ++i) {
    pool.Submit([gate] { gate.wait(); });
  }
  EXPECT_EQ(pool.ApproxQueueDepth(), 5u);
  release.set_value();
}

TEST(ThreadPoolTest, QueuedTasksStartInSubmissionOrder) {
  // With its one worker blocked, six tasks queue up; they must start
  // oldest first, so under a backlog the oldest request is the first to
  // run, not the last.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> started;
  pool.Submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  std::mutex order_mutex;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    pool.Submit([i, &order, &order_mutex] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    });
  }
  release.set_value();
  pool.Shutdown();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, ExplicitShutdownDrainsAndRejectsLateSubmits) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(pool.Submit([&done] { done.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(done.load(), kTasks);

  // After shutdown, Submit is a documented failure, not UB: it returns
  // false and the task never runs.
  std::atomic<bool> ran{false};
  EXPECT_FALSE(pool.Submit([&ran] { ran.store(true); }));
  EXPECT_FALSE(ran.load());

  // Idempotent: a second shutdown (and the destructor after it) no-op.
  pool.Shutdown();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, ConcurrentShutdownsAreSafe) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // Two racing shutdowns: the loser must block until the winner's join
    // completes, so both return with every task run and the pool stopped.
    std::thread a([&pool] { pool.Shutdown(); });
    std::thread b([&pool] { pool.Shutdown(); });
    a.join();
    b.join();
    EXPECT_FALSE(pool.Submit([] {}));
    EXPECT_EQ(done.load(), 20);
  }
}

TEST(ThreadPoolTest, SubmitRacingShutdownNeverLosesATask) {
  // A submitter hammering the pool while another thread shuts it down:
  // every Submit that returned true must have its task run, and
  // every false return must leave the task unrun. Accounting both sides
  // proves no task is silently dropped-but-acknowledged.
  for (int round = 0; round < 10; ++round) {
    auto pool = std::make_unique<ThreadPool>(2);
    std::atomic<int> ran{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> go{false};

    std::thread submitter([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 500; ++i) {
        if (pool->Submit([&ran] { ran.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
    std::thread stopper([&] {
      while (!go.load()) std::this_thread::yield();
      pool->Shutdown();
    });
    go.store(true);
    submitter.join();
    stopper.join();
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
  }
}

}  // namespace
}  // namespace qp
