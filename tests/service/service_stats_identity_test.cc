// The ServiceStats accounting identity under concurrency: `requests ==
// full + degraded + shed + deadline_exceeded + errors` holds exactly at
// quiescence, and a reader racing the workers may see the disposition
// sum lag behind `requests` but never overshoot it (requests are counted
// at admission, dispositions at resolution; stats() reads dispositions
// first and the counters are seq_cst). Run under ThreadSanitizer by
// tests/ci.sh via the "obs" label.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/paper_example.h"
#include "qp/service/service.h"
#include "qp/storage/fault_injection.h"

namespace qp {
namespace {

TEST(ServiceStatsIdentityTest, DispositionSumNeverOvershootsRequests) {
  QP_ASSERT_OK_AND_ASSIGN(Database db, BuildPaperDatabase());
  ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 6;     // Force sheds.
  options.degrade_queue_depth = 2; // Force K step-downs.
  options.cache_capacity = 0;      // Every request pays full cost.
  PersonalizationService service(&db, options);
  QP_ASSERT_OK(service.profiles().Put("julie", JulieProfile()));

  constexpr size_t kBatch = 24;
  constexpr int kRounds = 6;

  // A mixed batch: mostly runnable requests, plus expired deadlines
  // (deadline_exceeded) and an unknown user (errors), so every
  // disposition counter moves while the reader races.
  std::vector<PersonalizationRequest> batch;
  for (size_t i = 0; i < kBatch; ++i) {
    PersonalizationRequest request;
    // Indexes 0-5 admit unconditionally (the enqueue loop can have at
    // most i requests queued when request i arrives, and the bound is
    // 6), so an error user at 3 and an expired deadline at 5 guarantee
    // both counters move every round.
    request.user_id = i % 8 == 3 ? "nobody" : "julie";
    request.query = TonightQuery();
    request.options.criterion = InterestCriterion::TopCount(4);
    if (i % 6 == 5) request.deadline_ms = 1e-6;  // Expired on arrival.
    batch.push_back(std::move(request));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ServiceStats stats = service.stats();
      uint64_t dispositions = stats.full + stats.degraded + stats.shed +
                              stats.deadline_exceeded + stats.errors;
      // The one inequality a concurrent reader may rely on.
      ASSERT_LE(dispositions, stats.requests);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    std::vector<PersonalizationResponse> responses =
        service.PersonalizeBatchAndWait(batch);
    ASSERT_EQ(responses.size(), kBatch);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u) << "reader never observed the counters";

  // Quiescent: the identity is exact and matches what was submitted.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kRounds * kBatch);
  EXPECT_EQ(stats.full + stats.degraded + stats.shed +
                stats.deadline_exceeded + stats.errors,
            stats.requests);
  EXPECT_GT(stats.errors, 0u);
  EXPECT_GT(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kRounds));
}

// The identity — and the breaker's own accounting — must survive full
// open -> half-open -> closed cycles happening concurrently with served
// traffic. Readers race the transitions; the invariants they may rely
// on at any instant: the disposition sum never overshoots requests,
// trips never lag recoveries (every recovery follows a trip), and once
// quiescent-and-healed the breaker gauge is down with trips a true
// cumulative counter.
TEST(ServiceStatsIdentityTest, IdentityHoldsWhileBreakerCycles) {
  QP_ASSERT_OK_AND_ASSIGN(Database db, BuildPaperDatabase());
  storage::FaultInjectingFileSystem fs;
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.storage.dir = "db";
  options.storage.fs = &fs;
  options.storage.compact_threshold_bytes = 0;
  options.storage.breaker_threshold = 2;
  options.storage.breaker_backoff = std::chrono::milliseconds(1);
  options.storage.breaker_backoff_max = std::chrono::milliseconds(10);
  QP_ASSERT_OK_AND_ASSIGN(auto service,
                          PersonalizationService::OpenDurable(&db, options));
  QP_ASSERT_OK(service->profiles().Put("julie", JulieProfile()));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ServiceStats stats = service->stats();
      uint64_t dispositions = stats.full + stats.degraded + stats.shed +
                              stats.deadline_exceeded + stats.errors;
      ASSERT_LE(dispositions, stats.requests);
      ASSERT_GE(stats.storage.breaker_trips, stats.storage.breaker_recoveries);
    }
  });
  std::thread traffic([&] {
    std::vector<PersonalizationRequest> batch(8);
    for (auto& request : batch) {
      request.user_id = "julie";
      request.query = TonightQuery();
      request.options.criterion = InterestCriterion::TopCount(4);
    }
    for (int round = 0; round < 4; ++round) {
      service->PersonalizeBatchAndWait(batch);
    }
  });

  constexpr int kCycles = 3;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Trip: a dead disk fails mutations until the breaker opens.
    fs.SetSyncFailure(true);
    for (int i = 0; i < 64 && !service->stats().storage.breaker_open; ++i) {
      (void)service->profiles().Put("rob", RobProfile());
    }
    ASSERT_TRUE(service->stats().storage.breaker_open);
    // Heal: after the backoff a mutation is admitted as the half-open
    // probe, recovers the store and closes the breaker.
    fs.SetSyncFailure(false);
    bool closed = false;
    for (int i = 0; i < 2000 && !closed; ++i) {
      closed = service->profiles().Put("rob", RobProfile()).ok();
      if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(closed) << "breaker never closed in cycle " << cycle;
  }
  traffic.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.full + stats.degraded + stats.shed +
                stats.deadline_exceeded + stats.errors,
            stats.requests);
  EXPECT_FALSE(stats.storage.breaker_open);
  EXPECT_GE(stats.storage.breaker_recoveries, kCycles);
  EXPECT_GE(stats.storage.breaker_trips, stats.storage.breaker_recoveries);
}

}  // namespace
}  // namespace qp
