#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload and prints its result.

    python3 perfbench/run.py --workload fuzz|faults|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench
(Release); scratch files go to .bench_build/work and the span file of a
traced run to .bench_build/traces/<workload>-seed<N>.json. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. The exit code is 0
only when every output check passed.
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
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
THREADS = {"fuzz": 4, "faults": 1, "sweep": 4}
# Set-up is timed in this many separate processes besides the measured
# one; setup_s is the median of all of them.
SETUP_PROBES = 19
# Every run ends within this many seconds after the build.
RUN_LIMIT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under", os.path.join(ROOT, "src"))
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD, "-j", "4", "--target",
                 "perfbench", "perfbench_selftest"],
                [os.path.join(BUILD, "perfbench_selftest"), "--gtest_brief=1"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: failed:", " ".join(cmd))
            return False
    return True


def run_child(args, env, deadline):
    """Runs the perfbench binary; returns (wall-clock start, stdout lines)
    or raises RuntimeError."""
    cmd = [os.path.join(BUILD, "perfbench")] + args
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        raise RuntimeError("perfbench timed out: " + " ".join(cmd))
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("perfbench exited %d: %s" % (proc.returncode,
                                                        " ".join(cmd)))
    return start, lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(THREADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if not 0 <= a.seed < 2**32 or not 1 <= a.seconds <= 60:
        p.error("--seed must be in [0, 2^32) and --seconds in [1, 60]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 1
    # A fresh checkout builds first (minutes); the run limit counts from
    # the end of the build.
    deadline = time.monotonic() + RUN_LIMIT_S

    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (a.workload, os.getpid()))
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, MPCP_THREADS=str(THREADS[a.workload]))
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace),
              "--work", work,
              "--trace-file", os.path.join(
                  traces, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        setup = []
        if a.trace == 0:
            for _ in range(SETUP_PROBES):
                t0, lines = run_child(common + ["--setup-probe"], env, deadline)
                setup.append(json.loads(lines[-1])["dispatch_clock_s"] - t0)
        t0, lines = run_child(common, env, deadline)
    except (RuntimeError, ValueError, KeyError) as e:
        log("perfbench:", e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    if a.trace == 0:
        setup.append(result["dispatch_clock_s"] - t0)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print("setup_s %s s (median of %d processes)" % (
            metrics["setup_s"]["value"], len(setup)))

    correct = bool(result["correct"])
    wanted = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        log("perfbench: the metrics printed do not match BENCHMARK.json")
        correct = False
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
