#!/usr/bin/env python3
"""Builds the end-to-end benchmark (qp_e2e) from this checkout and runs it.

    python3 bench/e2e/run.py --workload paper_grid [--seed 1] [--seconds S]
                             [--trace 0|1] [--runs 1] [--smoke]

Workloads: paper_grid, cold_rewrite, write_mix. The build
(bench/e2e/CMakeLists.txt, Release) lands in .bench_build/qp_e2e and the
cluster's files in a fresh directory under .bench_build/tmp, removed
whether the run succeeds or fails. Build output goes to stderr.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

The line before it is the run's report: the machine stamp, sample counts
(read_n, write_n), wall-clock figures and host steal, the reference
kernel's median and the scale it gave the timings, correctness checks
and failed_frac. --runs N repeats
the run on seeds seed..seed+N-1, prints each metric's median and
quartiles, flags any metric whose spread (q3 - q1) / median exceeds its
bound, and reports the medians on the last line. --smoke runs 1% of the
measured time and warm-up, to check the output schema and correctness
quickly. Exits non-zero when the build fails, a run fails, or any answer
is wrong.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "qp_e2e"
SCRATCH = ROOT / ".bench_build" / "tmp"
WORKLOADS = ("paper_grid", "cold_rewrite", "write_mix")
BUILD_TIMEOUT_S = 700  # A cold build plus one run stays under 15 minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_child(command, timeout, stdout):
    """Runs `command` in its own process group and returns (exit code,
    captured stdout). However this returns — normally, on timeout or on
    SIGTERM — the whole group (make and compilers included) is killed and
    reaped first. TMPDIR points into the checkout, so compiler temporaries
    stay there too."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    child = subprocess.Popen(command, stdout=stdout, text=True,
                             start_new_session=True,
                             env=dict(os.environ, TMPDIR=str(SCRATCH)))
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def build():
    """Configures and builds qp_e2e (both no-ops when nothing changed);
    returns the binary's path."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "qp_e2e",
              "-j", jobs]]
    for step in steps:
        code, _ = run_child(step, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            raise RuntimeError("{} exited {}".format(" ".join(step), code))
    return BUILD / "qp_e2e"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fs_type(path):
    """The type of the filesystem holding `path` (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                inside = str(path) == point or str(path).startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def git_stamp():
    if not (ROOT / ".git").exists():
        return {"git_sha": "none", "git_dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, check=True, timeout=30).stdout
        return {"git_sha": sha, "git_dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}


def machine_stamp():
    stamp = {"nproc": len(os.sched_getaffinity(0)),
             "hw_threads": os.cpu_count(),
             "cpu_model": cpu_model(),
             "tmp_fs": fs_type(SCRATCH)}
    stamp.update(git_stamp())
    return stamp


def run_once(binary, args, seed):
    """One qp_e2e run; returns its report (its last line of JSON)."""
    workdir = SCRATCH / "run-{}-{}".format(os.getpid(), seed)
    command = [str(binary), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--dir", str(workdir)]
    if args.trace:
        command.append("--traced")
    if args.smoke:
        command.append("--smoke")
    try:
        code, stdout = run_child(command, RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("qp_e2e exited {} without a report".format(code))
    report = json.loads(lines[-1])
    report["exit_code"] = code
    return report


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as the benchmark gate reads it."""
    median = statistics.median(values)
    if len(values) < 2:
        return values[0], median, values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds through the `finally` blocks that stop qp_e2e.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(ROOT / "BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError, RuntimeError) as error:
        log("run.py: build failed: {}".format(error))
        return 1

    stamp = machine_stamp()
    reports = []
    for i in range(args.runs):
        try:
            report = run_once(binary, args, args.seed + i)
        except (OSError, subprocess.SubprocessError, RuntimeError,
                ValueError) as error:
            log("run.py: run failed: {}".format(error))
            return 1
        line = dict(stamp)
        line.update(report)
        print(json.dumps(line), flush=True)
        reports.append(report)

    values = {}
    for metric in wanted:
        series = [r["metrics"][metric["name"]] for r in reports
                  if r["metrics"].get(metric["name"]) is not None]
        if len(series) < len(reports):
            log("run.py: metric {} missing from {} run(s)".format(
                metric["name"], len(reports) - len(series)))
        if series:
            values[metric["name"]] = series

    if args.runs > 1:
        print("{:<32} {:>14} {:>14} {:>14} {:>8} {:>6}".format(
            "metric", "q1", "median", "q3", "spread", "bound"))
        for metric in wanted:
            series = values.get(metric["name"])
            if not series:
                continue
            q1, median, q3, width = spread(series)
            bound = metric.get("bound")
            flag = " WIDE" if bound is not None and width > bound else ""
            print("{:<32} {:>14.6g} {:>14.6g} {:>14.6g} {:>8.4f} {:>6}{}"
                  .format(metric["name"], q1, median, q3, width,
                          "-" if bound is None else bound, flag))

    attempted = sum(int(r["attempted"]) for r in reports)
    failed = sum(int(r["failed"]) for r in reports)
    correct = failed == 0 and all(r["exit_code"] == 0 for r in reports)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": statistics.median(values[m["name"]]),
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
