#!/usr/bin/env python3
"""Campaign benchmark: build, run one workload, print one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload case_study --seed 42 --seconds 50 --trace 0

The first run configures and builds the benchmark package (perfbench/
CMakeLists.txt, which compiles the gridlb libraries from src/) in Release
under .bench_build/perfbench; later runs only re-check the build.  The last
line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The exit code is 0 only when the build succeeded and every output check and
determinism check passed.

Other modes:

    python3 perfbench/run.py --selftest
        builds, then feeds every output check corrupted copies of real output
    python3 perfbench/run.py --steadiness 3 --runs-per-set 5 --gap 120
        runs 3 sets of 5 seeds per gated workload (or --workload W), sets
        spread 120 s apart, and prints each metric's median, quartiles and
        set-to-set spread

See perfbench/README.md for the workloads, metrics and noise findings.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["case_study", "adverts_1024", "burst_48"]
# The workloads BENCHMARK.json gates on; adverts_1024 is kept for manual runs.
GATED = ["case_study", "burst_48"]
# Whole runs must end within 180 s; leave room for start-up and exit.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; raises on failure."""
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def run_workload(workload, seed, seconds, trace, workload_seed=None):
    """Runs the benchmark binary once; returns (exit code, result dict or None)."""
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "campaign_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", out_dir]
    if workload_seed is not None:
        cmd += ["--workload-seed", str(workload_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 124, None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 1, None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(args):
    """N sets of runs spread over time; per metric: median, quartiles and
    the set-to-set spread of the set medians."""
    workloads = [args.workload] if args.workload else GATED
    seeds = list(range(1, args.runs_per_set + 1))
    values = {}  # (workload, metric) -> [[set values], ...]
    units = {}
    ok = True
    for s in range(args.steadiness):
        if s > 0:
            time.sleep(args.gap)
        for workload in workloads:
            for seed in seeds:
                code, result = run_workload(workload, seed, args.seconds, args.trace)
                if code != 0 or result is None or not result["correct"]:
                    ok = False
                    log(f"perfbench: {workload} seed {seed} failed (exit {code})")
                    continue
                log(f"perfbench: set {s + 1} {workload} seed {seed}: " +
                    " ".join(f"{name}={metric['value']:.6g}"
                             for name, metric in result["metrics"].items()))
                for name, metric in result["metrics"].items():
                    sets = values.setdefault((workload, name), [])
                    while len(sets) <= s:
                        sets.append([])
                    sets[s].append(metric["value"])
                    units[name] = metric["unit"]
    print(f"{'workload':13} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'iqr/med':>8} {'set-to-set':>10}  unit")
    summary = {}
    for (workload, name), sets in values.items():
        flat = [v for one in sets for v in one]
        q1, med, q3 = quartiles(flat)
        set_medians = [statistics.median(one) for one in sets if one]
        iqr = (q3 - q1) / abs(med) if med else 0.0
        across = ((max(set_medians) - min(set_medians)) / abs(med)
                  if med and len(set_medians) > 1 else 0.0)
        summary.setdefault(workload, {})[name] = {
            "values": flat, "median": med, "q1": q1, "q3": q3, "iqr_share": iqr,
            "set_medians": set_medians, "set_to_set_share": across,
            "unit": units[name]}
        print(f"{workload:13} {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g}"
              f" {100 * iqr:7.2f}% {100 * across:9.2f}%  {units[name]}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42,
                        help="seeds the program's random streams (GA, message "
                             "drops, hashed placement)")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="seeds the generated requests (default 2003, the "
                             "paper's)")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steadiness", type=int, default=0, metavar="SETS")
    parser.add_argument("--runs-per-set", type=int, default=5)
    parser.add_argument("--gap", type=float, default=60.0,
                        help="seconds between steadiness sets")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "checks_selftest")]).returncode
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    code, result = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, args.workload_seed)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code if code != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
