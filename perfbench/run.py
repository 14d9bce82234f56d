#!/usr/bin/env python3
"""StratRec benchmark entry point.

Builds the stratrec library, perfbench_driver and perfbench_selftest from
source (CMake, into .bench_build/perfbench under the checkout root), runs the
self-test, then runs one workload and relays perfbench_driver's output. The
last line of standard output is the result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: http-batch-100k, http-batch-1m-sharded, stream-drift-100k.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The driver's own run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170.0


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(command)}")
        return 1


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
        if code != 0:
            return code
    return run_logged(["cmake", "--build", BUILD, "-j", jobs], 800)


def run_driver(args):
    command = [os.path.join(BUILD, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                               text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log(f"driver exceeded {RUN_TIMEOUT_S:.0f} s")
        return 1
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        valid = False
    if not valid:
        sys.stdout.write(output)
        log("driver printed no result line")
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    return process.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    if build() != 0:
        log("build failed")
        return 2
    log(f"build ready in {time.monotonic() - start:.1f} s")
    if run_logged([os.path.join(BUILD, "perfbench_selftest")], 60) != 0:
        log("self-test failed")
        return 2
    return run_driver(args)


if __name__ == "__main__":
    sys.exit(main())
