#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --workload paced-detect --closed-loop --seed <n>
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The first call configures and builds a
Release tree under $CARGO_TARGET_DIR (default .bench_build); later calls
only re-check it. The benchmark's last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; earlier lines carry the
host fingerprint, run details and, with --trace 1, the span table.
--closed-loop sends a paced workload's input without its schedule, to
measure the saturation throughput its rate is set against.
--selftest builds and runs the test of the oracle and the output checks.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(targets):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # The Makefile appears only when a configure step succeeded.
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j4", "--target"] + targets,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--closed-loop", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            build_dir = build(["e2ebench_checks_test"])
            return subprocess.run(
                [os.path.join(build_dir, "e2ebench_checks_test")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        build_dir = build(["e2ebench"])
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", ".bench_work"]
    if args.closed_loop:
        cmd += ["--closed-loop", "1"]
    # Own session, so a timeout can stop the benchmark together with the
    # engine-hosting process it forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"e2ebench: exit code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(stdout)
        print("e2ebench: no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
