// Shard scale-out benchmark: a zipfian closed loop over a sharded,
// tiered cluster holding far more distinct users than the hot budget
// admits, plus a kill/recover pass proving zero acknowledged-mutation
// loss. Reported scalars (BenchReport JSON via $QP_BENCH_JSON):
//   users                — distinct users ingested (>= 1M by default;
//                          $QP_SHARD_USERS overrides for smoke runs)
//   shards, hot_budget_per_shard, hot_budget_total
//   ingest_seconds, ingest_per_s — durable Put throughput at ingest
//   max_hot_resident     — max per-shard residency ever sampled; the
//                          acceptance bar is <= hot_budget_per_shard
//   residency_bounded    — 1 iff the bar held at every sample
//   closed_loop_requests, closed_loop_qps — zipfian personalization
//                          throughput against the tiered cluster
//   tier_hit_rate, tier_cold_loads, tier_evictions
//   reshard_to_shards, reshard_seconds, reshard_partitions_moved,
//   reshard_users_moved  — the mid-run live reshard (grow by two) with
//                          a closed loop racing it
//   reshard_window_requests, reshard_window_p99_ms — request latency
//                          p99 *during* the migration window (the
//                          drain/cutover barrier tax; gated in CI)
//   reshard_acked_loss, reshard_zero_acked_loss — sampled byte-equality
//                          of acknowledged state across the reshard
//                          (reshard_zero_acked_loss must be 1)
//   chaos_kills, chaos_recoveries, acked_loss, zero_acked_loss —
//                          per-shard kill/recover with acknowledged
//                          re-puts in flight; acked_loss counts users
//                          whose recovered bytes diverged (must be 0)
// plus the qp_tier_load_seconds cold-load latency histogram.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/pref/profile_generator.h"
#include "qp/shard/sharded_service.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/util/random.h"

namespace qp {
namespace shard {
namespace {

bench::BenchReport& Report() {
  static auto* report = new bench::BenchReport("shard_scale");
  return *report;
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  long long value = std::atoll(env);
  return value > 0 ? static_cast<size_t>(value) : fallback;
}

constexpr size_t kTemplates = 8;

std::string UserId(size_t index) { return "z" + std::to_string(index); }

/// Every user's profile is a pure function of its index, so the
/// zero-loss check can verify any user without storing a million
/// expected strings.
const UserProfile& TemplateFor(size_t index,
                               const std::vector<UserProfile>& templates) {
  return templates[index % kTemplates];
}

/// Approximate zipfian rank draw (s ~ 1): log-uniform over [0, n).
/// Rank 0 is the hottest user; the tail is touched rarely but is
/// touched — which is exactly what pages cold profiles in.
size_t ZipfRank(Rng* rng, size_t n) {
  double u = rng->NextDouble();
  double rank = std::exp(u * std::log(static_cast<double>(n))) - 1.0;
  size_t index = static_cast<size_t>(rank);
  return index < n ? index : n - 1;
}

void BM_ZipfianClosedLoopAndKillRecover(benchmark::State& state) {
  const size_t kUsers = EnvSize("QP_SHARD_USERS", 1000000);
  const size_t kShards = EnvSize("QP_SHARD_COUNT", 4);
  const size_t kHotBudget = EnvSize("QP_SHARD_HOT", 4096);
  const size_t kRequests = EnvSize("QP_SHARD_REQUESTS", 20000);
  const size_t kBatch = 256;

  // A small database keeps per-request work light: the subject here is
  // residency and routing, not join throughput.
  MovieDbConfig config;
  config.num_movies = 200;
  config.num_actors = 100;
  config.num_directors = 30;
  config.num_theatres = 6;
  config.num_days = 3;
  config.seed = 20040308;
  auto db_or = GenerateMovieDatabase(config);
  if (!db_or.ok()) {
    state.SkipWithError("database generation failed");
    return;
  }
  Database db = std::move(db_or).value();
  auto pools = MovieCandidatePools(db);
  if (!pools.ok()) {
    state.SkipWithError("candidate pools failed");
    return;
  }
  ProfileGenerator generator(&db.schema(), std::move(pools).value());
  std::vector<UserProfile> templates;
  Rng template_rng(97);
  for (size_t t = 0; t < kTemplates; ++t) {
    ProfileGeneratorOptions options;
    options.num_selections = 3;
    auto profile = generator.Generate(options, &template_rng);
    if (!profile.ok()) {
      state.SkipWithError("profile generation failed");
      return;
    }
    templates.push_back(std::move(profile).value());
  }
  WorkloadGenerator workload(&db, 31);
  auto queries_or = workload.RandomQueries(4);
  if (!queries_or.ok()) {
    state.SkipWithError("workload generation failed");
    return;
  }
  std::vector<SelectQuery> queries = std::move(queries_or).value();

  for (auto _ : state) {
    // An in-memory filesystem: a million durable Puts without making
    // this benchmark a disk benchmark. The durability *logic* (WAL
    // append before ack, snapshot + overlay reload) is exactly the
    // production path.
    storage::FaultInjectingFileSystem fs;
    ShardedOptions options;
    options.num_shards = kShards;
    options.dir = "cluster";
    options.service.num_workers = 4;
    options.service.cache_capacity = 4096;
    options.service.storage.fs = &fs;
    options.service.storage.compact_threshold_bytes = 0;  // Explicit only.
    options.service.storage.hot_capacity = kHotBudget;
    auto sharded_or = ShardedPersonalizationService::Open(&db, options);
    if (!sharded_or.ok()) {
      state.SkipWithError("cluster open failed");
      return;
    }
    auto sharded = std::move(sharded_or).value();

    // Phase 1 — ingest: every distinct user becomes durable cluster
    // state; residency stays bounded the whole way.
    size_t max_resident = 0;
    auto sample_residency = [&] {
      ShardedStats stats = sharded->stats();
      for (const ShardRow& row : stats.shards) {
        if (row.alive && row.stats.tier.hot_resident > max_resident) {
          max_resident = row.stats.tier.hot_resident;
        }
      }
    };
    auto ingest_start = std::chrono::steady_clock::now();
    for (size_t u = 0; u < kUsers; ++u) {
      Status put =
          sharded->PutProfile(UserId(u), TemplateFor(u, templates));
      if (!put.ok()) {
        state.SkipWithError("ingest put failed");
        return;
      }
      if (u % 65536 == 0) sample_residency();
    }
    double ingest_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ingest_start)
            .count();

    // Checkpoint each shard: overlay tails become snapshot bodies, so
    // the closed loop's cold loads take the range-read path.
    for (size_t s = 0; s < kShards; ++s) {
      Status checkpointed = sharded->Shard(s)->profiles().Checkpoint();
      if (!checkpointed.ok()) {
        state.SkipWithError("checkpoint failed");
        return;
      }
    }

    // Phase 2 — zipfian closed loop: a hot head that lives in memory, a
    // cold tail that pages in on demand. Selection only (execute=false):
    // the subject is profile residency, not join throughput.
    Rng zipf_rng(0x21bf);
    size_t completed = 0;
    auto loop_start = std::chrono::steady_clock::now();
    while (completed < kRequests) {
      std::vector<PersonalizationRequest> batch;
      size_t n = std::min(kBatch, kRequests - completed);
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        PersonalizationRequest request;
        request.user_id = UserId(ZipfRank(&zipf_rng, kUsers));
        request.query = queries[(completed + i) % queries.size()];
        request.options.criterion = InterestCriterion::TopCount(4);
        request.execute = false;
        batch.push_back(std::move(request));
      }
      std::vector<PersonalizationResponse> responses =
          sharded->PersonalizeBatchAndWait(batch);
      for (const PersonalizationResponse& response : responses) {
        if (!response.status.ok()) {
          state.SkipWithError("closed-loop request failed");
          return;
        }
      }
      completed += n;
      sample_residency();
    }
    double loop_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      loop_start)
            .count();

    // Tier accounting is per-store and resets when a shard recovers, so
    // aggregate it now, before the chaos phase reopens anything.
    uint64_t hot_hits = 0, cold_loads = 0, evictions = 0;
    {
      ShardedStats stats = sharded->stats();
      for (const ShardRow& row : stats.shards) {
        hot_hits += row.stats.tier.hot_hits;
        cold_loads += row.stats.tier.cold_loads;
        evictions += row.stats.tier.evictions;
      }
    }

    // Phase 3 — live reshard under traffic: grow the cluster by two
    // shards while a closed loop keeps personalizing against it. The
    // loop's per-request latency during the migration window measures
    // the drain/cutover barrier tax; a byte-equality sample across the
    // reshard measures acknowledged-state loss (must be zero).
    const size_t kGrownShards = kShards + 2;
    MigrationStats migration_before = sharded->migration_stats();
    std::atomic<bool> reshard_done{false};
    std::vector<double> window_latencies_ms;
    std::thread window_traffic([&] {
      Rng traffic_rng(0x7e5a);
      while (!reshard_done.load(std::memory_order_relaxed)) {
        PersonalizationRequest request;
        request.user_id = UserId(ZipfRank(&traffic_rng, kUsers));
        request.query = queries[window_latencies_ms.size() % queries.size()];
        request.options.criterion = InterestCriterion::TopCount(4);
        request.execute = false;
        auto start = std::chrono::steady_clock::now();
        PersonalizationResponse response = sharded->Personalize(request);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        if (response.status.ok()) window_latencies_ms.push_back(ms);
      }
    });
    auto reshard_start = std::chrono::steady_clock::now();
    Status resharded = sharded->Reshard(kGrownShards);
    double reshard_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      reshard_start)
            .count();
    reshard_done.store(true, std::memory_order_relaxed);
    window_traffic.join();
    if (!resharded.ok()) {
      state.SkipWithError("reshard failed");
      return;
    }
    MigrationStats migration_after = sharded->migration_stats();
    double window_p99_ms = 0.0;
    if (!window_latencies_ms.empty()) {
      std::sort(window_latencies_ms.begin(), window_latencies_ms.end());
      window_p99_ms = window_latencies_ms[static_cast<size_t>(
          0.99 * static_cast<double>(window_latencies_ms.size() - 1))];
    }
    // Sampled byte-equality across the move: ingest acknowledged every
    // profile, so every sampled user must read back template-identical
    // from whichever shard owns it now.
    size_t reshard_loss = 0;
    Rng verify_rng(0xca11);
    for (size_t i = 0; i < 512; ++i) {
      size_t u = static_cast<size_t>(verify_rng.Below(kUsers));
      auto snapshot = sharded->GetProfile(UserId(u));
      if (!snapshot.ok() ||
          snapshot.value().profile->Serialize() !=
              TemplateFor(u, templates).Serialize()) {
        ++reshard_loss;
      }
    }

    // Phase 4 — kill/recover every shard in turn with freshly
    // acknowledged mutations on it: nothing acknowledged may diverge.
    size_t kills = 0, recoveries = 0, acked_loss = 0;
    Rng chaos_rng(0xdead);
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      // Re-put a sample of this shard's users with a *different*
      // template (rotated by one) and require the ack first.
      std::vector<size_t> mutated;
      for (size_t tries = 0; mutated.size() < 64 && tries < 20000;
           ++tries) {
        size_t u = static_cast<size_t>(chaos_rng.Below(kUsers));
        if (sharded->ShardFor(UserId(u)) != s) continue;
        Status put = sharded->PutProfile(
            UserId(u), TemplateFor(u + 1, templates));
        if (!put.ok()) {
          state.SkipWithError("chaos mutation failed");
          return;
        }
        mutated.push_back(u);
      }
      if (!sharded->KillShard(s).ok()) {
        state.SkipWithError("kill failed");
        return;
      }
      ++kills;
      if (!sharded->RecoverShard(s).ok()) {
        state.SkipWithError("recover failed");
        return;
      }
      ++recoveries;
      for (size_t u : mutated) {
        auto snapshot = sharded->GetProfile(UserId(u));
        if (!snapshot.ok() ||
            snapshot.value().profile->Serialize() !=
                TemplateFor(u + 1, templates).Serialize()) {
          ++acked_loss;
        }
      }
    }

    // Final accounting: the post-recovery population proves no user was
    // lost to the kill/recover cycling.
    ShardedStats stats = sharded->stats();
    size_t population = 0;
    for (const ShardRow& row : stats.shards) {
      population += row.stats.tier.hot_resident + row.stats.tier.cold_users;
    }
    double hit_rate =
        hot_hits + cold_loads > 0
            ? static_cast<double>(hot_hits) /
                  static_cast<double>(hot_hits + cold_loads)
            : 0.0;
    const bool bounded = max_resident <= kHotBudget;
    double closed_loop_qps =
        loop_seconds > 0 ? static_cast<double>(completed) / loop_seconds
                         : 0.0;

    state.counters["users"] = static_cast<double>(population);
    state.counters["closed_loop_qps"] = closed_loop_qps;
    state.counters["max_hot_resident"] = static_cast<double>(max_resident);
    state.counters["acked_loss"] = static_cast<double>(acked_loss);

    Report().AddScalar("users", static_cast<double>(population));
    Report().AddScalar("shards", static_cast<double>(kShards));
    Report().AddScalar("hot_budget_per_shard",
                       static_cast<double>(kHotBudget));
    Report().AddScalar("hot_budget_total",
                       static_cast<double>(kHotBudget * kShards));
    Report().AddScalar("ingest_seconds", ingest_seconds);
    Report().AddScalar("ingest_per_s",
                       ingest_seconds > 0
                           ? static_cast<double>(kUsers) / ingest_seconds
                           : 0.0);
    Report().AddScalar("max_hot_resident",
                       static_cast<double>(max_resident));
    Report().AddScalar("residency_bounded", bounded ? 1.0 : 0.0);
    Report().AddScalar("closed_loop_requests",
                       static_cast<double>(completed));
    Report().AddScalar("closed_loop_qps", closed_loop_qps);
    Report().AddScalar("tier_hit_rate", hit_rate);
    Report().AddScalar("tier_cold_loads", static_cast<double>(cold_loads));
    Report().AddScalar("tier_evictions", static_cast<double>(evictions));
    Report().AddScalar("reshard_to_shards",
                       static_cast<double>(kGrownShards));
    Report().AddScalar("reshard_seconds", reshard_seconds);
    Report().AddScalar(
        "reshard_partitions_moved",
        static_cast<double>(migration_after.partitions_migrated -
                            migration_before.partitions_migrated));
    Report().AddScalar("reshard_users_moved",
                       static_cast<double>(migration_after.users_copied -
                                           migration_before.users_copied));
    Report().AddScalar("reshard_window_requests",
                       static_cast<double>(window_latencies_ms.size()));
    Report().AddScalar("reshard_window_p99_ms", window_p99_ms);
    Report().AddScalar("reshard_acked_loss",
                       static_cast<double>(reshard_loss));
    Report().AddScalar("reshard_zero_acked_loss",
                       reshard_loss == 0 ? 1.0 : 0.0);
    Report().AddScalar("chaos_kills", static_cast<double>(kills));
    Report().AddScalar("chaos_recoveries", static_cast<double>(recoveries));
    Report().AddScalar("acked_loss", static_cast<double>(acked_loss));
    Report().AddScalar("zero_acked_loss", acked_loss == 0 ? 1.0 : 0.0);
    Report().AddHistogram(
        "qp_tier_load_seconds",
        bench::MergedHistogram(sharded->metrics()->Snapshot(),
                               "qp_tier_load_seconds"));
  }
}
BENCHMARK(BM_ZipfianClosedLoopAndKillRecover)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace shard
}  // namespace qp

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return qp::shard::Report().Write() ? 0 : 1;
}
