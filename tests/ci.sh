#!/usr/bin/env bash
# The full CI gate, in the order a reviewer wants failures reported:
#
#   1. regular build + the whole ctest suite (tier-1: must stay green);
#   2. the durability/crash-recovery, request-lifecycle, observability,
#      chaos/robustness, executor-engine and shard suites (router
#      swap-under-load + kill/recover chaos) under ThreadSanitizer
#      and AddressSanitizer+UBSan via tests/run_sanitized.sh — the
#      randomized crash-recovery property suite (>= 500 trials), the
#      overload/admission tests, the metrics/trace accounting tests, the
#      seeded chaos trials (QP_CHAOS_TRIALS=100 per sanitizer, >= 200
#      total) and the executor against its brute-force oracle
#      (QP_EXEC_TRIALS=150 per sanitizer — the full 800-trial sweep runs
#      unsanitized in stage 1; every trial prints its seed, so a failure
#      names its exact replay) are only trusted once they have passed
#      under both;
#   3. benchmark snapshots in machine-readable JSON via $QP_BENCH_JSON
#      (build/bench_report.json: one BenchReport object per line —
#      overload disposition fractions, service-throughput latency
#      percentiles, fault-recovery costs: breaker time-to-recover and
#      the steady-state scrub tax, and executor timings — the
#      ablation_exec / fig8 / fig9 reports record per-query, per-K and
#      per-L execution times and their totals), so a regression in
#      shed/degrade/recovery behaviour or the perf trajectory shows up
#      as an artifact diff;
#   4. a regression gate: the fresh bench report is checked against the
#      committed BENCH_baseline.json — a >25% drop in service/shard
#      throughput, an executor total (ablation_exec, fig8, fig9), the
#      breaker's time-to-recover or reshard migration-window p99 above
#      2x its baseline, a scrub tax above 2% or a sampled-tracing tax
#      above 3%, or a violated shard invariant (acked loss — kill/recover
#      or live reshard — unbounded residency), fails the run;
#   5. the end-to-end benchmark (bench/e2e) in smoke mode on each of its
#      workloads: every run checks 512 answers against the serial
#      Personalizer, and write_mix also checks every write after a
#      close/reopen, so a wrong answer fails CI even though the
#      timings of a smoke run mean nothing.
#
# Usage:
#   tests/ci.sh            # everything
#   tests/ci.sh --fast     # skip the sanitizer stage (local iteration)

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Suites that must also pass sanitized: the storage/durability layer and
# the serving layer's pool, batch path and selection cache, the
# request-lifecycle (deadline / cancellation / admission) suites, and the
# observability suites (sharded counters, trace delivery, the stats
# accounting identity under concurrent readers).
# Keep in sync with tests/CMakeLists.txt.
STORAGE_FILTER='crc32c|wal_test|record_fuzz|snapshot_test|durable_store|crash_recovery|profile_store|thread_pool|service_batch|selection_cache_test'
LIFECYCLE_FILTER='deadline_test|selection_deadline|executor_cancel|service_lifecycle|storage_retry'
OBS_FILTER='obs_metrics|obs_trace|service_trace|executor_stats_attribution|service_stats_identity|flight_recorder|slo_test|histogram_percentile|cluster_trace'
CHAOS_FILTER='fault_hub|breaker_recovery|scrubber_test|bitflip_robustness|chaos_property|chaos_blackbox'
EXEC_FILTER='batch_table|exec_differential|vectorized_cancel|key_index_property|compound_exec|executor_edge|executor_test|shared_core'
SHARD_FILTER='tiered_store|sharded_service|shard_chaos|routing_table|reshard_test|reshard_chaos'
# The selector's arena frontier, the id-resolved graphs it walks and the
# integrator that renders its picks back into SQL.
CORE_FILTER='schema_test|personalization_graph_test|preference_path_test|query_graph_test|conflict_test|selection_test|integration_test|semantics_test|selection_cache_property_test'

echo "==== [ci] regular build ===="
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j "$JOBS"

echo "==== [ci] full test suite ===="
(cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS")

if [[ "${1:-}" == "--fast" ]]; then
  echo "==== [ci] PASS (sanitizers skipped) ===="
  exit 0
fi

echo "==== [ci] sanitized storage + lifecycle + obs + chaos + exec + shard + core suites ===="
# 100 seeded chaos trials per sanitizer build (>= 200 total), and 150
# executor-vs-oracle trials per sanitizer build (the unsanitized
# 800-trial sweep already ran in stage 1). A failing or hanging trial
# prints "[chaos] trial N seed=S" / "[diff] trial N seed=S" before it
# runs, so the log always names the seed to replay.
# The shard suite rides along: the router swaps shard pointers under a
# shared_mutex while worker threads personalize, and the kill/recover
# chaos trials (QP_SHARD_CHAOS_TRIALS=25 per sanitizer) race mutators
# against shard death — exactly the code TSan/ASan exist to vet.
# The reshard chaos trials (QP_RESHARD_TRIALS=50 per sanitizer, >= 100
# total) drive the live-migration state machine — copy / WAL tail /
# drain and cutover under one barrier — under armed migrate.* fault
# schedules with shard kills landing mid-migration and a mutator racing
# the barrier.
QP_CHAOS_TRIALS=100 QP_EXEC_TRIALS=150 QP_SHARD_CHAOS_TRIALS=25 \
  QP_RESHARD_TRIALS=50 \
  tests/run_sanitized.sh all \
  -R "$STORAGE_FILTER|$LIFECYCLE_FILTER|$OBS_FILTER|$CHAOS_FILTER|$EXEC_FILTER|$SHARD_FILTER|$CORE_FILTER"

echo "==== [ci] benchmark snapshots (JSON) ===="
REPORT="$ROOT/build/bench_report.json"
rm -f "$REPORT"
QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/overload_shedding" \
  --benchmark_min_time=0.05 >/dev/null
# Throughput + per-phase latency percentiles for one representative
# config; the full sweep is a manual run. The sampled-tracing tax is a
# sub-1% effect under an absolute 3% ceiling, so its benchmark gets a
# longer measurement window than the throughput numbers — at 0.05s the
# median-of-ratios estimate has too few samples to be trustworthy.
QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/service_throughput" \
  --benchmark_filter='PersonalizeBatch/workers:2|TraceNullSinkOverhead' \
  --benchmark_min_time=0.05 >/dev/null
QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/service_throughput" \
  --benchmark_filter='SampledTraceOverhead' \
  --benchmark_min_time=0.5 >/dev/null
# Robustness costs: disarmed fault-point overhead, breaker
# time-to-recover, steady-state scrub tax (acceptance bar: < 2%).
# Executor timings per query shape / K / L, plus their totals, which the
# gate below holds under 2x the baseline. fault_recovery, fig8 and fig9
# gate millisecond-scale timings that one noisy run on a shared host can
# double, so each runs three times and the gate reads the median.
for run in 1 2 3; do
  QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/fault_recovery" \
    --benchmark_min_time=0.05 >/dev/null
  QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/fig8_sq_mq_vs_k" >/dev/null
  QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/fig9_sq_mq_vs_l" >/dev/null
done
QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/ablation_exec" \
  --benchmark_min_time=0.05 >/dev/null
# Sharded scale-out: the zipfian closed loop over 1M distinct users with
# a bounded hot set, a live reshard (grow by two) under traffic with the
# migration-window p99 recorded, plus the kill/recover phase. The report
# carries the acceptance booleans (residency_bounded, zero_acked_loss,
# reshard_zero_acked_loss) that the regression gate below enforces as
# hard invariants.
QP_BENCH_JSON="$REPORT" "$ROOT/build/bench/shard_scale" >/dev/null
echo "wrote $REPORT:"
cat "$REPORT"

echo "==== [ci] bench regression gate (vs BENCH_baseline.json) ===="
# Fails on a >25% drop in service / shard-cluster throughput, on an
# executor total or other guarded latency above 2x its baseline, on a
# tax above its absolute ceiling (each read as the median of the
# report's runs), or on a violated shard invariant. Regenerate
# the baseline (and review the diff) when a deliberate perf change moves
# the floor: copy build/bench_report.json over BENCH_baseline.json.
python3 tests/check_bench_regression.py \
  "$ROOT/BENCH_baseline.json" "$REPORT"

echo "==== [ci] end-to-end benchmark smoke runs (answers checked) ===="
for workload in paper_grid cold_rewrite write_mix; do
  python3 bench/e2e/run.py --workload "$workload" --smoke
done

echo "==== [ci] PASS ===="
