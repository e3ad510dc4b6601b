// ShardedPersonalizationService tests: stable routing that partitions
// users across shard directories, cluster results identical to a single
// unsharded service, per-user cache invalidation staying on the owner
// shard, kill/recover fault containment, router fault sites, the
// per-shard span in request traces, and every shard's counts living in
// its own {shard="<id>"} series.

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/data/workload.h"
#include "qp/obs/metrics.h"
#include "qp/obs/trace.h"
#include "qp/pref/profile_generator.h"
#include "qp/shard/sharded_service.h"
#include "qp/storage/fault_injection.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace shard {
namespace {

class ShardedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieDbConfig config;
    config.num_movies = 200;
    config.num_actors = 100;
    config.num_directors = 30;
    config.num_theatres = 6;
    config.num_days = 3;
    config.seed = 20040308;
    QP_ASSERT_OK_AND_ASSIGN(Database db, GenerateMovieDatabase(config));
    db_ = std::make_unique<Database>(std::move(db));
    QP_ASSERT_OK_AND_ASSIGN(auto pools, MovieCandidatePools(*db_));
    generator_ = std::make_unique<ProfileGenerator>(&db_->schema(),
                                                    std::move(pools));
  }

  ShardedOptions Options(size_t num_shards) {
    ShardedOptions options;
    options.num_shards = num_shards;
    options.dir = "cluster";
    options.service.num_workers = 2;
    options.service.storage.fs = &fs_;
    options.service.storage.compact_threshold_bytes = 0;
    return options;
  }

  std::unique_ptr<ShardedPersonalizationService> MustOpen(
      ShardedOptions options) {
    auto sharded_or =
        ShardedPersonalizationService::Open(db_.get(), std::move(options));
    EXPECT_TRUE(sharded_or.ok()) << sharded_or.status();
    return sharded_or.ok() ? std::move(sharded_or).value() : nullptr;
  }

  UserProfile MakeProfile(uint64_t seed) {
    Rng rng(seed);
    ProfileGeneratorOptions options;
    options.num_selections = 20;
    auto profile = generator_->Generate(options, &rng);
    EXPECT_TRUE(profile.ok()) << profile.status();
    return std::move(profile).value();
  }

  PersonalizationRequest Request(const std::string& user_id,
                                 const SelectQuery& query) {
    PersonalizationRequest request;
    request.user_id = user_id;
    request.query = query;
    request.options.criterion = InterestCriterion::TopCount(4);
    return request;
  }

  /// First user id (user0, user1, ...) that the cluster routes to
  /// `shard`; every shard owns one within a few dozen probes.
  static std::string UserOnShard(const ShardedPersonalizationService& sharded,
                                 size_t shard) {
    for (size_t i = 0; i < 1000; ++i) {
      std::string user_id = "user" + std::to_string(i);
      if (sharded.ShardFor(user_id) == shard) return user_id;
    }
    ADD_FAILURE() << "no user hashed to shard " << shard;
    return "";
  }

  /// Sum of every series named `name`, labeled or not: how the
  /// end-to-end benchmark reads a cluster's counters.
  static double CounterTotal(const obs::MetricsSnapshot& snapshot,
                             const std::string& name) {
    double total = 0.0;
    for (const auto& [series, value] : snapshot.counters) {
      if (series == name) total += static_cast<double>(value);
    }
    for (const auto& sample : snapshot.labeled_counters) {
      if (sample.name == name) total += static_cast<double>(sample.value);
    }
    return total;
  }

  /// The counter `name`{shard="<shard>"}, or -1 when the registry has no
  /// such series.
  static double ShardSeries(const obs::MetricsSnapshot& snapshot,
                            const std::string& name, size_t shard) {
    const obs::MetricLabels labels = {{"shard", std::to_string(shard)}};
    for (const auto& sample : snapshot.labeled_counters) {
      if (sample.name == name && sample.labels == labels) {
        return static_cast<double>(sample.value);
      }
    }
    return -1.0;
  }

  /// Every shard row's `field` equals that shard's labeled series of
  /// `name`, and the rows sum to the series' cluster-wide total. Call at
  /// quiescence.
  static void ExpectRowsMatchSeries(
      const ShardedPersonalizationService& sharded, const std::string& name,
      const std::function<uint64_t(const ServiceStats&)>& field) {
    const ShardedStats stats = sharded.stats();
    const obs::MetricsSnapshot snapshot = sharded.metrics()->Snapshot();
    double sum = 0.0;
    for (const ShardRow& row : stats.shards) {
      ASSERT_TRUE(row.alive);
      const double value = static_cast<double>(field(row.stats));
      EXPECT_EQ(value, ShardSeries(snapshot, name, row.shard_id))
          << name << " on shard " << row.shard_id;
      sum += value;
    }
    EXPECT_EQ(sum, CounterTotal(snapshot, name)) << name;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> generator_;
  storage::FaultInjectingFileSystem fs_;
};

TEST_F(ShardedServiceTest, RoutingPartitionsUsersAcrossShardDirectories) {
  constexpr size_t kShards = 3;
  constexpr size_t kUsers = 24;
  auto sharded = MustOpen(Options(kShards));
  ASSERT_NE(sharded, nullptr);

  std::vector<size_t> expected_sizes(kShards, 0);
  for (size_t u = 0; u < kUsers; ++u) {
    std::string user_id = "user" + std::to_string(u);
    // The assignment is a pure function of the id: stable across calls.
    EXPECT_EQ(sharded->ShardFor(user_id), sharded->ShardFor(user_id));
    ASSERT_LT(sharded->ShardFor(user_id), kShards);
    QP_ASSERT_OK(sharded->PutProfile(user_id, MakeProfile(u + 1)));
    ++expected_sizes[sharded->ShardFor(user_id)];
  }

  // Each shard's store holds exactly the users that hash to it —
  // nothing more, nothing less.
  size_t total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    auto service = sharded->Shard(s);
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->profiles().size(), expected_sizes[s]) << "shard " << s;
    EXPECT_TRUE(service->profiles().durable());
    total += service->profiles().size();
  }
  EXPECT_EQ(total, kUsers);

  // With 24 users over 3 shards, every shard should own someone.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(expected_sizes[s], 0u) << "shard " << s;
  }

  // Reads route back to the owner.
  for (size_t u = 0; u < kUsers; ++u) {
    auto snapshot = sharded->GetProfile("user" + std::to_string(u));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  }
}

TEST_F(ShardedServiceTest, ClusterMatchesSingleServiceResults) {
  constexpr size_t kUsers = 6;
  auto sharded = MustOpen(Options(3));
  ASSERT_NE(sharded, nullptr);

  WorkloadGenerator workload(db_.get(), 7);
  QP_ASSERT_OK_AND_ASSIGN(std::vector<SelectQuery> queries,
                          workload.RandomQueries(3));

  // One unsharded service with the same profiles is the ground truth.
  PersonalizationService single(db_.get(), ServiceOptions{.num_workers = 2});
  std::vector<PersonalizationRequest> requests;
  for (size_t u = 0; u < kUsers; ++u) {
    std::string user_id = "user" + std::to_string(u);
    UserProfile profile = MakeProfile(u + 1);
    QP_ASSERT_OK(single.profiles().Put(user_id, profile));
    QP_ASSERT_OK(sharded->PutProfile(user_id, std::move(profile)));
    for (const SelectQuery& query : queries) {
      requests.push_back(Request(user_id, query));
    }
  }

  std::vector<PersonalizationResponse> expected =
      single.PersonalizeBatchAndWait(requests);
  std::vector<PersonalizationResponse> actual =
      sharded->PersonalizeBatchAndWait(requests);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i].status.ok())
        << "request " << i << ": " << actual[i].status;
    EXPECT_EQ(actual[i].results.DebugString(1000),
              expected[i].results.DebugString(1000))
        << "request " << i;
  }

  // Singles agree too (and hit the per-shard selection caches).
  for (const PersonalizationRequest& request : requests) {
    PersonalizationResponse response = sharded->Personalize(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_TRUE(response.cache_hit);
  }
}

TEST_F(ShardedServiceTest, MutationInvalidatesOnlyThatUsersSelections) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  // Two users on the SAME shard: the sharpest version of the property —
  // invalidation must discriminate by user even within one cache.
  std::string user_a = UserOnShard(*sharded, 0);
  std::string user_b = UserOnShard(*sharded, 0);
  for (size_t i = 0; user_b == user_a && i < 1000; ++i) {
    std::string candidate = "user" + std::to_string(1000 + i);
    if (sharded->ShardFor(candidate) == 0) user_b = candidate;
  }
  ASSERT_NE(user_a, user_b);
  QP_ASSERT_OK(sharded->PutProfile(user_a, MakeProfile(1)));
  QP_ASSERT_OK(sharded->PutProfile(user_b, MakeProfile(2)));

  WorkloadGenerator workload(db_.get(), 11);
  QP_ASSERT_OK_AND_ASSIGN(std::vector<SelectQuery> queries,
                          workload.RandomQueries(1));
  PersonalizationRequest request_a = Request(user_a, queries[0]);
  PersonalizationRequest request_b = Request(user_b, queries[0]);
  request_a.execute = false;
  request_b.execute = false;

  // Warm both users' selections.
  QP_ASSERT_OK(sharded->Personalize(request_a).status);
  QP_ASSERT_OK(sharded->Personalize(request_b).status);
  EXPECT_TRUE(sharded->Personalize(request_a).cache_hit);
  EXPECT_TRUE(sharded->Personalize(request_b).cache_hit);

  // Mutating A drops A's entries — and ONLY A's.
  QP_ASSERT_OK(sharded->UpsertProfile(
      user_a, {MakeProfile(3).preferences().front()}));
  EXPECT_GE(sharded->stats().shards[0].stats.cache_user_invalidations, 1u);
  PersonalizationResponse after_a = sharded->Personalize(request_a);
  QP_ASSERT_OK(after_a.status);
  EXPECT_FALSE(after_a.cache_hit);
  PersonalizationResponse after_b = sharded->Personalize(request_b);
  QP_ASSERT_OK(after_b.status);
  EXPECT_TRUE(after_b.cache_hit);
}

TEST_F(ShardedServiceTest, KillShardShedsOnlyItsUsersAndRecoverHeals) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  std::string on_dead = UserOnShard(*sharded, 0);
  std::string on_alive = UserOnShard(*sharded, 1);
  UserProfile dead_profile = MakeProfile(1);
  QP_ASSERT_OK(sharded->PutProfile(on_dead, dead_profile));
  QP_ASSERT_OK(sharded->PutProfile(on_alive, MakeProfile(2)));

  WorkloadGenerator workload(db_.get(), 5);
  QP_ASSERT_OK_AND_ASSIGN(std::vector<SelectQuery> queries,
                          workload.RandomQueries(1));

  QP_ASSERT_OK(sharded->KillShard(0));
  EXPECT_FALSE(sharded->IsShardAlive(0));
  EXPECT_TRUE(sharded->IsShardAlive(1));
  EXPECT_EQ(sharded->alive_shards(), 1u);
  EXPECT_EQ(sharded->Shard(0), nullptr);
  QP_ASSERT_OK(sharded->KillShard(0));  // Idempotent.

  // Dead shard's user: shed, not an error in another shard's lap.
  PersonalizationResponse shed =
      sharded->Personalize(Request(on_dead, queries[0]));
  EXPECT_FALSE(shed.status.ok());
  EXPECT_EQ(shed.disposition, RequestDisposition::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  Status blocked = sharded->PutProfile(on_dead, MakeProfile(3));
  EXPECT_EQ(blocked.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(sharded->GetProfile(on_dead).ok());

  // The survivor serves at full fidelity.
  PersonalizationResponse served =
      sharded->Personalize(Request(on_alive, queries[0]));
  QP_ASSERT_OK(served.status);
  EXPECT_EQ(served.disposition, RequestDisposition::kFull);

  // Batches shed per-request, order preserved.
  std::vector<PersonalizationResponse> responses =
      sharded->PersonalizeBatchAndWait(
          {Request(on_dead, queries[0]), Request(on_alive, queries[0])});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].disposition, RequestDisposition::kShed);
  QP_ASSERT_OK(responses[1].status);

  // Stats rows reflect liveness.
  ShardedStats stats = sharded->stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_FALSE(stats.shards[0].alive);
  EXPECT_TRUE(stats.shards[1].alive);
  EXPECT_EQ(stats.router.shard_kills, 1u);
  EXPECT_GE(stats.router.shed, 3u);

  // Recovery replays shard 0's WAL: the acknowledged profile is intact.
  QP_ASSERT_OK(sharded->RecoverShard(0));
  EXPECT_TRUE(sharded->IsShardAlive(0));
  QP_ASSERT_OK(sharded->RecoverShard(0));  // Idempotent.
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot snapshot,
                          sharded->GetProfile(on_dead));
  EXPECT_TRUE(storage::ProfilesEqual(*snapshot.profile, dead_profile));
  PersonalizationResponse healed =
      sharded->Personalize(Request(on_dead, queries[0]));
  QP_ASSERT_OK(healed.status);
  EXPECT_EQ(sharded->stats().router.shard_recoveries, 1u);
}

TEST_F(ShardedServiceTest, KillFencesAWriteInFlightBeforeRecoverReopens) {
  // An upsert sleeps inside shard 0's WAL append, holding the old
  // instance, while the shard is killed and recovered. Unfenced, the old
  // writer appends after the recovery replayed the same log: the write
  // is acknowledged but missing from the recovered shard, and the
  // recovered writer's next record repeats its sequence number.
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  const std::string user = UserOnShard(*sharded, 0);
  QP_ASSERT_OK(sharded->PutProfile(user, MakeProfile(1)));
  const AtomicPreference held = AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("held"), 0.41);
  const AtomicPreference after = AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("after"), 0.43);
  auto has = [](const ProfileSnapshot& snapshot, const AtomicPreference& p) {
    for (const AtomicPreference& q : snapshot.profile->preferences()) {
      if (storage::PreferencesEqual(p, q)) return true;
    }
    return false;
  };

  Status upserted;
  {
    ScopedFaultInjection faults(/*seed=*/18);
    FaultRule hold;
    hold.fire_on_nth = 1;
    hold.mode = FaultMode::kDelay;
    hold.delay = std::chrono::milliseconds(50);
    FaultHub::Global()->SetRule("wal.append", hold);
    std::thread writer(
        [&] { upserted = sharded->UpsertProfile(user, {held}); });
    while (FaultHub::Global()->fires("wal.append") == 0) {
      std::this_thread::yield();
    }
    QP_ASSERT_OK(sharded->KillShard(0));
    QP_ASSERT_OK(sharded->RecoverShard(0));
    writer.join();
  }
  if (upserted.ok()) {
    QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot live, sharded->GetProfile(user));
    EXPECT_TRUE(has(live, held)) << "acknowledged upsert lost by recovery";
  } else {
    EXPECT_EQ(upserted.code(), StatusCode::kUnavailable) << upserted;
  }
  QP_ASSERT_OK(sharded->UpsertProfile(user, {after}));

  // A cold reopen replays a gap-free log holding every acknowledged write.
  sharded.reset();
  sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot reopened, sharded->GetProfile(user));
  EXPECT_TRUE(has(reopened, after));
  EXPECT_EQ(has(reopened, held), upserted.ok());
}

TEST_F(ShardedServiceTest, RouteFaultSiteShedsRequestsAndMutations) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  QP_ASSERT_OK(sharded->PutProfile("julie", MakeProfile(1)));
  WorkloadGenerator workload(db_.get(), 3);
  QP_ASSERT_OK_AND_ASSIGN(std::vector<SelectQuery> queries,
                          workload.RandomQueries(1));

  {
    ScopedFaultInjection chaos(7);
    FaultRule rule;
    rule.fire_every = 1;
    FaultHub::Global()->SetRule("shard.route", rule);
    PersonalizationResponse shed =
        sharded->Personalize(Request("julie", queries[0]));
    EXPECT_EQ(shed.disposition, RequestDisposition::kShed);
    EXPECT_EQ(sharded->PutProfile("julie", MakeProfile(2)).code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(sharded->RemoveProfile("julie").code(),
              StatusCode::kUnavailable);
  }
  // Disarmed: everything heals, and the faulted mutations never landed.
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot snapshot,
                          sharded->GetProfile("julie"));
  EXPECT_TRUE(storage::ProfilesEqual(*snapshot.profile, MakeProfile(1)));
  PersonalizationResponse ok =
      sharded->Personalize(Request("julie", queries[0]));
  QP_ASSERT_OK(ok.status);
  EXPECT_GE(sharded->stats().router.shed, 3u);
}

TEST_F(ShardedServiceTest, TracesCarryTheShardSpan) {
  auto sharded = MustOpen(Options(3));
  ASSERT_NE(sharded, nullptr);
  // The router and the shard each deliver their own fragment of the
  // distributed trace; the fragment sink groups them by trace_id.
  obs::FragmentTraceSink sink;
  sharded->set_trace_sink(&sink);
  QP_ASSERT_OK(sharded->PutProfile("julie", MakeProfile(1)));

  WorkloadGenerator workload(db_.get(), 9);
  QP_ASSERT_OK_AND_ASSIGN(std::vector<SelectQuery> queries,
                          workload.RandomQueries(1));
  QP_ASSERT_OK(sharded->Personalize(Request("julie", queries[0])).status);

  auto find_shard_span = [&]() -> const obs::TraceSpan* {
    for (const auto& fragment : sink.Last()) {
      if (const obs::TraceSpan* span = fragment->FindSpan("shard");
          span != nullptr) {
        return span;
      }
    }
    return nullptr;
  };
  const obs::TraceSpan* span = find_shard_span();
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->counter("id"), sharded->ShardFor("julie"));

  // A shard recovered later inherits the sink.
  QP_ASSERT_OK(sharded->KillShard(sharded->ShardFor("julie")));
  QP_ASSERT_OK(sharded->RecoverShard(sharded->ShardFor("julie")));
  QP_ASSERT_OK(sharded->Personalize(Request("julie", queries[0])).status);
  EXPECT_NE(find_shard_span(), nullptr);
}

TEST_F(ShardedServiceTest, TieredShardsBoundResidencyClusterWide) {
  constexpr size_t kUsers = 40;
  constexpr size_t kHotCapacity = 4;
  ShardedOptions options = Options(2);
  options.service.storage.hot_capacity = kHotCapacity;
  auto sharded = MustOpen(std::move(options));
  ASSERT_NE(sharded, nullptr);

  for (size_t u = 0; u < kUsers; ++u) {
    QP_ASSERT_OK(
        sharded->PutProfile("user" + std::to_string(u), MakeProfile(u + 1)));
  }
  ShardedStats stats = sharded->stats();
  size_t population = 0;
  for (const ShardRow& row : stats.shards) {
    ASSERT_TRUE(row.alive);
    EXPECT_TRUE(row.stats.tier.enabled);
    EXPECT_LE(row.stats.tier.hot_resident, kHotCapacity)
        << "shard " << row.shard_id;
    population += row.stats.tier.hot_resident + row.stats.tier.cold_users;
  }
  EXPECT_EQ(population, kUsers);

  // Cold users still personalize — the shard pages them in on demand.
  WorkloadGenerator workload(db_.get(), 13);
  QP_ASSERT_OK_AND_ASSIGN(std::vector<SelectQuery> queries,
                          workload.RandomQueries(1));
  for (size_t u = 0; u < kUsers; ++u) {
    PersonalizationResponse response =
        sharded->Personalize(Request("user" + std::to_string(u), queries[0]));
    ASSERT_TRUE(response.status.ok()) << response.status;
  }
  // Each shard's residency counters are its own labeled series.
  ExpectRowsMatchSeries(*sharded, "qp_tier_hot_hits_total",
                        [](const ServiceStats& s) { return s.tier.hot_hits; });
  ExpectRowsMatchSeries(
      *sharded, "qp_tier_cold_loads_total",
      [](const ServiceStats& s) { return s.tier.cold_loads; });
  ExpectRowsMatchSeries(
      *sharded, "qp_tier_evictions_total",
      [](const ServiceStats& s) { return s.tier.evictions; });
}

TEST_F(ShardedServiceTest, EveryShardCountsUnderItsOwnLabel) {
  // Two shards, each quarantining one profile; then shard 1 repairs its
  // own. Every storage series is per shard, so shard 1's repair cannot
  // overwrite what shard 0 reports.
  ShardedOptions options = Options(2);
  options.service.storage.scrub_auto_repair = false;
  auto sharded = MustOpen(std::move(options));
  ASSERT_NE(sharded, nullptr);

  constexpr size_t kUsers = 8;
  for (size_t u = 0; u < kUsers; ++u) {
    QP_ASSERT_OK(
        sharded->PutProfile("user" + std::to_string(u), MakeProfile(u + 1)));
  }
  WorkloadGenerator workload(db_.get(), 17);
  QP_ASSERT_OK_AND_ASSIGN(std::vector<SelectQuery> queries,
                          workload.RandomQueries(1));
  for (size_t u = 0; u < kUsers; ++u) {
    PersonalizationRequest request =
        Request("user" + std::to_string(u), queries[0]);
    request.execute = false;
    QP_ASSERT_OK(sharded->Personalize(request).status);
    request.execute = true;
    EXPECT_TRUE(sharded->Personalize(request).cache_hit);
  }
  QP_ASSERT_OK(sharded->UpsertProfile(
      "user0", {MakeProfile(kUsers + 1).preferences().front()}));

  UserProfile bogus;
  bogus.AddOrUpdate(AtomicPreference::Selection(
      AttributeRef{"NO_SUCH_TABLE", "attr"}, Value::Str("x"), 0.5));
  const std::string victims[2] = {UserOnShard(*sharded, 0),
                                  UserOnShard(*sharded, 1)};
  for (size_t shard = 0; shard < 2; ++shard) {
    storage::DurableProfileStore& store = sharded->Shard(shard)->profiles();
    store.CorruptInMemoryForTest(victims[shard], bogus);
    QP_ASSERT_OK(store.ScrubOnce());
    ASSERT_TRUE(store.IsQuarantined(victims[shard])) << "shard " << shard;
  }
  QP_ASSERT_OK(sharded->Shard(1)->profiles().RepairUser(victims[1]));
  QP_ASSERT_OK(sharded->Shard(1)->profiles().Checkpoint());

  const std::string text =
      sharded->metrics()->Export(obs::ExportFormat::kPrometheus);
  EXPECT_NE(text.find("qp_storage_quarantined_profiles{shard=\"0\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("qp_storage_quarantined_profiles{shard=\"1\"} 0\n"),
            std::string::npos)
      << text;

  const ShardedStats stats = sharded->stats();
  EXPECT_EQ(stats.shards[0].stats.storage.quarantined_profiles, 1u);
  EXPECT_EQ(stats.shards[1].stats.storage.quarantined_profiles, 0u);
  EXPECT_EQ(stats.shards[1].stats.storage.repairs, 1u);
  EXPECT_EQ(stats.shards[0].stats.storage.repairs, 0u);

  using Field = std::function<uint64_t(const ServiceStats&)>;
  const std::vector<std::pair<std::string, Field>> series = {
      {"qp_storage_scrubs_total",
       [](const ServiceStats& s) { return s.storage.scrubs; }},
      {"qp_storage_scrub_corruptions_total",
       [](const ServiceStats& s) { return s.storage.scrub_corruptions; }},
      {"qp_storage_repairs_total",
       [](const ServiceStats& s) { return s.storage.repairs; }},
      {"qp_storage_checkpoints_total",
       [](const ServiceStats& s) { return s.storage.checkpoints; }},
      {"qp_wal_records_appended_total",
       [](const ServiceStats& s) { return s.storage.records_appended; }},
      {"qp_wal_bytes_appended_total",
       [](const ServiceStats& s) { return s.storage.bytes_appended; }},
      {"qp_wal_fsyncs_total",
       [](const ServiceStats& s) { return s.storage.fsyncs; }},
      {"qp_service_requests_total",
       [](const ServiceStats& s) { return s.requests; }},
      {"qp_service_cache_hits_total",
       [](const ServiceStats& s) { return s.cache_hits; }},
      {"qp_service_cache_misses_total",
       [](const ServiceStats& s) { return s.cache_misses; }},
      {"qp_selection_cache_insertions_total",
       [](const ServiceStats& s) { return s.cache_insertions; }},
      {"qp_selection_cache_user_invalidations_total",
       [](const ServiceStats& s) { return s.cache_user_invalidations; }},
  };
  for (const auto& [name, field] : series) {
    ExpectRowsMatchSeries(*sharded, name, field);
  }
  const obs::MetricsSnapshot snapshot = sharded->metrics()->Snapshot();
  EXPECT_EQ(CounterTotal(snapshot, "qp_service_requests_total"),
            2.0 * kUsers);
  EXPECT_EQ(CounterTotal(snapshot, "qp_storage_scrubs_total"), 2.0);
  EXPECT_EQ(CounterTotal(snapshot, "qp_storage_checkpoints_total"), 1.0);

  // The executor's work is counted per shard too, never under the bare
  // name. Both shards executed requests, so each ran disjuncts.
  EXPECT_GT(ShardSeries(snapshot, "qp_exec_disjuncts_total", 0), 0.0);
  EXPECT_GT(ShardSeries(snapshot, "qp_exec_disjuncts_total", 1), 0.0);
  for (const char* name : {"qp_exec_disjuncts_total", "qp_exec_bindings_total",
                           "qp_exec_raw_rows_total"}) {
    const double shard0 = ShardSeries(snapshot, name, 0);
    const double shard1 = ShardSeries(snapshot, name, 1);
    EXPECT_GE(shard0, 0.0) << name;
    EXPECT_GE(shard1, 0.0) << name;
    EXPECT_EQ(shard0 + shard1, CounterTotal(snapshot, name)) << name;
    for (const auto& [series, value] : snapshot.counters) {
      EXPECT_NE(series, name) << "unlabeled series " << name;
    }
  }
}

TEST_F(ShardedServiceTest, OpenValidatesOptions) {
  ShardedOptions no_dir = Options(2);
  no_dir.dir.clear();
  EXPECT_EQ(ShardedPersonalizationService::Open(db_.get(), no_dir)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ShardedOptions zero = Options(0);
  EXPECT_EQ(
      ShardedPersonalizationService::Open(db_.get(), zero).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace shard
}  // namespace qp
