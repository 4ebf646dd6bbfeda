#!/usr/bin/env python3
"""Socket-to-verdict benchmark runner.

One run (the benchmark contract; run from the repository root):

    python3 e2e_bench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

builds the harness from this checkout's sources (CMake + Ninja, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints its result
object as the last line of stdout. Exit 0 when a result was printed, 1 when
the build or the run failed (nothing printed).

Steadiness report (k runs per set, seeds --seed, --seed + 1, ...):

    python3 e2e_bench/run.py --report --workload durable --runs 10 [--sets 2]

prints, per metric, the median, the interquartile range as a share of the
median, min and max, and flags every metric whose spread exceeds its bound
in BENCHMARK.json (or a third of it, the target the benchmark is tuned to).
With --sets 2 it repeats the whole set and flags any metric whose second
median is worse than the first by more than its bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("ingest", "durable", "campaign")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "e2e_bench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the harness once; returns (stdout lines, parsed result) or None."""
    run_dir = os.path.join(".bench_run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--dir", run_dir]
    if trace:
        cmd += ["--spans", os.path.join(".bench_run", "spans-%s-seed%d.jsonl" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("e2e_bench: run failed with exit code %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("e2e_bench: last line is not JSON: %r" % lines[-1])
        return None
    if set(result) != RESULT_KEYS:
        log("e2e_bench: result keys %s" % sorted(result))
        return None
    return lines, result


def load_bounds():
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def report(binary, args):
    bounds = load_bounds()
    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.seed + i
            got = run_once(binary, args.workload, seed, args.seconds, args.trace)
            if got is None:
                return 1
            lines, result = got
            diag = json.loads(lines[-2]).get("diagnostics", {}) if len(lines) > 1 else {}
            runs.append((result, diag))
            log("set %d run %d seed %d: correct=%s steal=%.2fs" %
                (s + 1, i + 1, seed, result["correct"], diag.get("host_steal_s", 0.0)))
        sets.append(runs)

    failed = False
    medians = []
    for s, runs in enumerate(sets):
        print("== %s, set %d: %d runs of %gs" % (args.workload, s + 1, len(runs), args.seconds))
        print("%-36s %14s %9s %14s %14s  %s" % ("metric", "median", "iqr/med", "min", "max", "flag"))
        names = list(runs[0][0]["metrics"])
        set_medians = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            med, rel = spread(values)
            set_medians[name] = med
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                if rel > bound:
                    flag, failed = "OVER BOUND %.2f" % bound, True
                elif rel > bound / 3:
                    flag = "over bound/3"
            print("%-36s %14.6g %9.4f %14.6g %14.6g  %s" % (name, med, rel, min(values), max(values), flag))
        steal = [d.get("host_steal_s", 0.0) for _, d in runs]
        print("host steal per run (s): median %.2f, max %.2f; all correct: %s" %
              (statistics.median(steal), max(steal), all(r["correct"] for r, _ in runs)))
        failed |= not all(r["correct"] for r, _ in runs)
        medians.append(set_medians)
    if len(medians) == 2:
        print("== median drift, set 2 against set 1")
        for name, first in medians[0].items():
            spec = bounds.get(name)
            if spec is None:
                continue
            drift = worse_by(first, medians[1][name], spec["better"])
            flag = "WORSE THAN BOUND" if drift > spec["bound"] else ""
            failed |= bool(flag)
            print("%-36s %+9.4f (bound %.2f) %s" % (name, drift, spec["bound"], flag))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("e2e_bench: build failed")
        return 1
    if args.report:
        return report(binary, args)
    got = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    print("\n".join(got[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
