// Durability-layer benchmarks: what does each fsync policy cost on the
// WAL append path, how much does group commit claw back under concurrent
// writers, and how does recovery time grow with the length of the log
// tail that must be replayed. Reported counters:
//   records_per_s — acknowledged WAL appends per second
//   fsyncs        — fsync(2) calls issued over the measurement
//   mb_per_s      — payload bytes acknowledged per second
//   replayed      — WAL records replayed by one recovery
//   recovery_ms   — wall-clock milliseconds for one Open()
// Run with --benchmark_counters_tabular=true for a readable table.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/obs/metrics.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/record.h"
#include "qp/storage/wal.h"
#include "qp/util/file.h"

namespace qp {
namespace storage {
namespace {

bench::BenchReport& Report() {
  static auto* report = new bench::BenchReport("storage_durability");
  return *report;
}

/// A fresh directory under /tmp, removed (with its contents) on scope
/// exit. The benchmarks run against the real POSIX filesystem so the
/// fsync costs they report are the ones production would pay.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/qp_storage_bench_XXXXXX";
    char* dir = mkdtemp(tmpl);
    if (dir != nullptr) path_ = dir;
  }

  ~TempDir() {
    if (path_.empty()) return;
    FileSystem* fs = DefaultFileSystem();
    if (auto names = fs->ListDir(path_); names.ok()) {
      for (const std::string& name : *names) {
        fs->RemoveFile(JoinPath(path_, name));
      }
    }
    rmdir(path_.c_str());
  }

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A realistic payload: one encoded Put of the paper's Julie profile
/// (23 preferences, a few hundred bytes) — the record a profile update
/// actually writes, not a synthetic blob.
const std::string& SharedPayload() {
  static const std::string* payload = [] {
    auto* encoded = new std::string;
    EncodeMutation(ProfileMutation::Put("julie", JulieProfile()), encoded);
    return encoded;
  }();
  return *payload;
}

FsyncPolicy PolicyFromArg(int64_t arg) {
  return arg == 0 ? FsyncPolicy::kEveryRecord : FsyncPolicy::kNever;
}

/// WAL append throughput: `writers` threads each acknowledge a slice of
/// the per-iteration record budget. Under kEveryRecord the interesting
/// effect is group commit — more concurrent writers amortize one fsync
/// over more records, so records_per_s rises with the writer count while
/// fsyncs stays near-flat.
void BM_WalAppend(benchmark::State& state) {
  const FsyncPolicy policy = PolicyFromArg(state.range(0));
  const size_t writers = static_cast<size_t>(state.range(1));
  const size_t records_per_iter = 256;

  TempDir dir;
  if (!dir.ok()) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  auto file = DefaultFileSystem()->NewWritableFile(
      JoinPath(dir.path(), "bench.log"), /*truncate=*/true);
  if (!file.ok()) {
    state.SkipWithError("cannot create log file");
    return;
  }
  WalOptions options;
  options.fsync = policy;
  obs::MetricsRegistry registry;
  options.metrics = &registry;  // The writer counts its fsyncs here.
  WalWriter writer(std::move(file).value(), /*first_seqno=*/1, options);

  size_t records = 0;
  for (auto _ : state) {
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t t = 0; t < writers; ++t) {
      threads.emplace_back([&] {
        for (size_t i = 0; i < records_per_iter / writers; ++i) {
          if (!writer.Append(SharedPayload(), nullptr).ok()) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    if (failed.load(std::memory_order_relaxed)) {
      state.SkipWithError("append failed");
      return;
    }
    records += (records_per_iter / writers) * writers;
  }

  const double fsyncs =
      static_cast<double>(registry.counter("qp_wal_fsyncs_total")->Value());
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsRate);
  state.counters["mb_per_s"] = benchmark::Counter(
      static_cast<double>(records) * SharedPayload().size() / (1 << 20),
      benchmark::Counter::kIsRate);
  state.counters["fsyncs"] = fsyncs;

  std::string label = std::string(FsyncPolicyName(policy)) + "_w" +
                      std::to_string(writers);
  Report().AddScalar("fsyncs/" + label, fsyncs);
  Report().AddScalar("records/" + label, static_cast<double>(records));
  Report().AddHistogram("qp_wal_sync_seconds/" + label,
                        registry.histogram("qp_wal_sync_seconds")->Snapshot());
}
BENCHMARK(BM_WalAppend)
    ->ArgNames({"policy", "writers"})
    ->Args({0, 1})  // every_record, serial: one fsync per record.
    ->Args({0, 4})  // every_record, group commit across 4 writers.
    ->Args({0, 8})
    ->Args({1, 1})  // never: pure write(2) throughput.
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Recovery time as a function of WAL length: a store is seeded with N
/// logged mutations (no checkpoint, so recovery must replay all of
/// them), then each iteration runs a full Open — manifest read, WAL
/// scan + CRC verification, and each record decoded into the tier's
/// overlay. No profile is built: each one pages in on its first Get.
void BM_Recovery(benchmark::State& state) {
  const size_t num_mutations = static_cast<size_t>(state.range(0));

  TempDir dir;
  if (!dir.ok()) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  Schema schema = MovieSchema();
  StorageOptions options;
  options.dir = dir.path();
  options.compact_threshold_bytes = 0;
  options.wal.fsync = FsyncPolicy::kNever;  // Seeding speed; synced below.

  {
    auto store = DurableProfileStore::Open(&schema, options);
    if (!store.ok()) {
      state.SkipWithError("seed open failed");
      return;
    }
    const UserProfile julie = JulieProfile();
    for (size_t i = 0; i < num_mutations; ++i) {
      // Distinct users so replay exercises the store, not one map slot.
      auto status =
          (*store)->Put("user" + std::to_string(i % 1024), julie);
      if (!status.ok()) {
        state.SkipWithError("seed put failed");
        return;
      }
    }
    if (!(*store)->Sync().ok() || !(*store)->Close().ok()) {
      state.SkipWithError("seed close failed");
      return;
    }
  }

  uint64_t replayed = 0;
  double recovery_ms = 0;
  for (auto _ : state) {
    auto store = DurableProfileStore::Open(&schema, options);
    if (!store.ok()) {
      state.SkipWithError("recovery open failed");
      return;
    }
    StorageStats stats = (*store)->storage_stats();
    replayed = stats.records_replayed;
    recovery_ms += static_cast<double>(stats.recovery_millis);
    benchmark::DoNotOptimize((*store)->size());
    (*store)->Close();
  }
  state.counters["replayed"] = static_cast<double>(replayed);
  state.counters["recovery_ms"] =
      state.iterations() > 0 ? recovery_ms / state.iterations() : 0;
  std::string label = "m" + std::to_string(num_mutations);
  Report().AddScalar("replayed/" + label, static_cast<double>(replayed));
  Report().AddScalar(
      "recovery_ms/" + label,
      state.iterations() > 0 ? recovery_ms / state.iterations() : 0);
}
BENCHMARK(BM_Recovery)
    ->ArgNames({"mutations"})
    ->Arg(100)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Recovery after a checkpoint: the same mutation count, but compacted
/// into a snapshot first — recovery verifies and indexes the snapshot
/// (no body decoded) and replays only the post-checkpoint tail. Contrast
/// with BM_Recovery at equal `mutations` to see what checkpointing buys.
void BM_RecoveryAfterCheckpoint(benchmark::State& state) {
  const size_t num_mutations = static_cast<size_t>(state.range(0));

  TempDir dir;
  if (!dir.ok()) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  Schema schema = MovieSchema();
  StorageOptions options;
  options.dir = dir.path();
  options.compact_threshold_bytes = 0;
  options.wal.fsync = FsyncPolicy::kNever;

  {
    auto store = DurableProfileStore::Open(&schema, options);
    if (!store.ok()) {
      state.SkipWithError("seed open failed");
      return;
    }
    const UserProfile julie = JulieProfile();
    for (size_t i = 0; i < num_mutations; ++i) {
      auto status =
          (*store)->Put("user" + std::to_string(i % 1024), julie);
      if (!status.ok()) {
        state.SkipWithError("seed put failed");
        return;
      }
    }
    if (!(*store)->Checkpoint().ok() || !(*store)->Close().ok()) {
      state.SkipWithError("seed checkpoint failed");
      return;
    }
  }

  uint64_t loaded = 0;
  for (auto _ : state) {
    auto store = DurableProfileStore::Open(&schema, options);
    if (!store.ok()) {
      state.SkipWithError("recovery open failed");
      return;
    }
    loaded = store.value()->storage_stats().snapshot_users_loaded;
    benchmark::DoNotOptimize((*store)->size());
    (*store)->Close();
  }
  state.counters["snapshot_users"] = static_cast<double>(loaded);
  Report().AddScalar("snapshot_users/m" + std::to_string(num_mutations),
                     static_cast<double>(loaded));
}
BENCHMARK(BM_RecoveryAfterCheckpoint)
    ->ArgNames({"mutations"})
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace storage
}  // namespace qp

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return qp::storage::Report().Write() ? 0 : 1;
}
