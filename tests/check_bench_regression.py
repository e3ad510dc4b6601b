#!/usr/bin/env python3
"""Gate a bench_report.json (JSONL) against the committed baseline.

Usage:
    tests/check_bench_regression.py BENCH_baseline.json build/bench_report.json

Two kinds of checks, mirroring what a reviewer reads the sidecar for:

  1. Ratio guards: higher-is-better metrics (service throughput,
     shard-cluster closed-loop throughput) must not fall more than
     MAX_REGRESSION below the committed baseline. Timings jitter;
     throughputs on the same machine class stay stable well inside 25%.
  2. Ceiling guards: lower-is-better metrics (executor totals over the
     ablation_exec queries and the fig8/fig9 sweeps, breaker recovery
     latency, request p99 inside the live-reshard migration window)
     must not exceed baseline * headroom.
     Absolute latencies jitter more than ratios, so the headroom is
     generous (2x) — the gate catches order-of-magnitude cliffs, not
     noise.
  3. Invariants: booleans the current run must satisfy outright, whatever
     the baseline says — the shard chaos phase and the live reshard lost
     no acknowledged mutation, and the tiered resident set stayed inside
     the hot budget.
  4. Absolute ceilings: design budgets the current run must stay under
     regardless of the baseline (the sampled-tracing tax at a 1% head
     rate must stay below 3%, the scrubber's throughput tax below 2%).

A metric present in the baseline but missing from the current report is
an error (a silently dropped bench is how regressions hide); a metric new
in the current report is noted and ignored (it becomes binding when the
baseline is regenerated).

A report may hold several lines for one bench (tests/ci.sh runs the
noise-prone ones three times); every check reads each scalar's median
over the lines that carry it, so one noisy run cannot trip a ceiling
that the others clear. Invariants are the exception: they must hold on
every line.
"""

import json
import statistics
import sys

MAX_REGRESSION = 0.25

# (bench, scalar) pairs where current >= baseline * (1 - MAX_REGRESSION)
# must hold. All are higher-is-better.
GUARDED = [
    ("service_throughput", "qps/w2_nocache"),
    ("service_throughput", "qps/w2_cache"),
    ("shard_scale", "closed_loop_qps"),
]

# (bench, scalar, headroom) where current <= baseline * headroom must
# hold. All are lower-is-better latencies/taxes.
GUARDED_MAX = [
    ("ablation_exec", "total_ms", 2.0),
    ("fig8_sq_mq_vs_k", "total_sq_exec_ms", 2.0),
    ("fig8_sq_mq_vs_k", "total_mq_exec_ms", 2.0),
    ("fig9_sq_mq_vs_l", "total_sq_exec_ms", 2.0),
    ("fig9_sq_mq_vs_l", "total_mq_exec_ms", 2.0),
    ("fault_recovery", "breaker_recover_ms", 2.0),
    ("shard_scale", "reshard_window_p99_ms", 2.0),
]

# (bench, scalar, required value) the *current* report must satisfy.
INVARIANTS = [
    ("shard_scale", "zero_acked_loss", 1),
    ("shard_scale", "residency_bounded", 1),
    ("shard_scale", "reshard_zero_acked_loss", 1),
    # The SLO gauges must ride in the report, and this bench never sheds
    # or errors (unbounded queue, no deadlines), so availability is
    # exactly 1 — anything else means requests are being dropped.
    ("service_throughput", "slo_availability", 1),
    ("service_throughput", "slo_availability_burn_rate", 0),
]

# (bench, scalar, ceiling) absolute bounds on the *current* report,
# independent of the baseline. Unlike GUARDED_MAX these do not scale
# with history: the sampled-tracing tax at a 1% head rate is a design
# budget (< 3% or always-on tracing is not shippable), not a trajectory,
# and so is the background scrubber's tax on mutation throughput (the
# < 2% acceptance bar; the paired measurement reads within a point of
# zero, where 2x a one-draw baseline would let ~7.6% through).
ABSOLUTE_MAX = [
    ("service_throughput", "sampled_trace_tax_pct", 3.0),
    ("fault_recovery", "scrub_tax_pct", 2.0),
]


def load(path):
    reports = {}
    runs = {}  # (bench, scalar) -> every value the report's lines carry
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                # Merge per-key: a binary run several times with different
                # filters (e.g. service_throughput's overhead bench needs a
                # longer measurement window than its throughput benches)
                # contributes all its scalars to one report, and a binary
                # run repeatedly contributes one value per run to each.
                merged = reports.setdefault(
                    obj["bench"], {"bench": obj["bench"]})
                merged.setdefault("histograms", {}).update(
                    obj.get("histograms", {}))
                for key, value in obj.get("scalars", {}).items():
                    runs.setdefault((obj["bench"], key), []).append(value)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    for (bench, key), values in runs.items():
        reports[bench].setdefault("scalars", {})[key] = \
            statistics.median(values)
        reports[bench].setdefault("runs", {})[key] = values
    return reports


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = load(sys.argv[1])
    current = load(sys.argv[2])
    failures = []

    for bench, key, want in INVARIANTS:
        got = current.get(bench, {}).get("runs", {}).get(key)
        if got is None:
            failures.append(f"{bench}.{key}: missing from current report")
        elif any(value != want for value in got):
            failures.append(f"{bench}.{key}: {got} (must be {want})")
        else:
            print(f"ok   {bench}.{key} = {want}")

    for bench, key in GUARDED:
        base = baseline.get(bench, {}).get("scalars", {}).get(key)
        cur = current.get(bench, {}).get("scalars", {}).get(key)
        if base is None:
            print(f"note {bench}.{key}: not in baseline, skipped")
            continue
        if cur is None:
            failures.append(f"{bench}.{key}: in baseline but missing "
                            f"from current report")
            continue
        floor = base * (1.0 - MAX_REGRESSION)
        verdict = "ok  " if cur >= floor else "FAIL"
        print(f"{verdict} {bench}.{key}: {cur:.4g} vs baseline "
              f"{base:.4g} (floor {floor:.4g})")
        if cur < floor:
            failures.append(f"{bench}.{key}: {cur:.4g} is more than "
                            f"{MAX_REGRESSION:.0%} below baseline "
                            f"{base:.4g}")

    for bench, key, ceiling in ABSOLUTE_MAX:
        cur = current.get(bench, {}).get("scalars", {}).get(key)
        if cur is None:
            failures.append(f"{bench}.{key}: missing from current report")
            continue
        verdict = "ok  " if cur <= ceiling else "FAIL"
        print(f"{verdict} {bench}.{key}: {cur:.4g} "
              f"(absolute ceiling {ceiling:g})")
        if cur > ceiling:
            failures.append(f"{bench}.{key}: {cur:.4g} exceeds the "
                            f"absolute ceiling {ceiling:g}")

    for bench, key, headroom in GUARDED_MAX:
        base = baseline.get(bench, {}).get("scalars", {}).get(key)
        cur = current.get(bench, {}).get("scalars", {}).get(key)
        if base is None:
            print(f"note {bench}.{key}: not in baseline, skipped")
            continue
        if cur is None:
            failures.append(f"{bench}.{key}: in baseline but missing "
                            f"from current report")
            continue
        ceiling = base * headroom
        verdict = "ok  " if cur <= ceiling else "FAIL"
        print(f"{verdict} {bench}.{key}: {cur:.4g} vs baseline "
              f"{base:.4g} (ceiling {ceiling:.4g})")
        if cur > ceiling:
            failures.append(f"{bench}.{key}: {cur:.4g} is more than "
                            f"{headroom:g}x the baseline {base:.4g}")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("\nbench regression gate passed "
          f"({len(GUARDED) + len(GUARDED_MAX) + len(ABSOLUTE_MAX)} guards, "
          f"{len(INVARIANTS)} invariants)")


if __name__ == "__main__":
    main()
