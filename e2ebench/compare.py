#!/usr/bin/env python3
"""Collects and compares sets of end-to-end benchmark runs.

Collect a set (one JSON line per run: workload, seed, result):

    python3 e2ebench/compare.py collect --out base.jsonl --runs 10 \\
        [--workloads fleet-aggregate,unified-mixed] [--first-seed 1]

Compare two sets, e.g. the parent commit (A) and a change (B):

    python3 e2ebench/compare.py diff base.jsonl change.jsonl

For every workload x end-to-end metric of BENCHMARK.json it prints both
medians, both quartile ranges and a verdict, using the metric's `bound`
and `better` direction:

  worse       B's median is worse than A's by more than the bound
  better      B's median is better by more than A's own quartile spread
              and B wins at least 9 of 10 run pairs (seed for seed)
  unchanged   neither, with both spreads within the bound
  unresolved  a spread (quartile distance / median) exceeds the bound and
              the two sets do not separate completely
A run whose result is not correct, or whose failed share differs from
the other set's, is reported on its own line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                cmd = ["python3", os.path.join(ROOT, "e2ebench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']}",
                      file=sys.stderr)
    return 0


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(a, b, bound, lower_is_better):
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    spread_a = (qa3 - qa1) / ma if ma else float("inf")
    spread_b = (qb3 - qb1) / mb if mb else float("inf")
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (mb - ma) / ma if ma else 0.0

    def b_better(x, y):  # x from B, y from A
        return x < y if lower_is_better else x > y

    all_better = all(b_better(x, y) for x in b for y in a)
    all_worse = all(b_better(y, x) for x in b for y in a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if b_better(y, x))
    if max(spread_a, spread_b) > bound and not (all_better or all_worse):
        return "unresolved", spread_a, spread_b
    if worse_by > bound:
        return "worse", spread_a, spread_b
    if -worse_by > spread_a and pairs and wins >= 0.9 * len(pairs):
        return "better", spread_a, spread_b
    return "unchanged", spread_a, spread_b


def diff(args):
    bench = load_benchmark()
    set_a, set_b = read_set(args.a), read_set(args.b)
    print(f"{'workload':16} {'metric':22} {'median A':>12} {'median B':>12} "
          f"{'IQR A':>8} {'IQR B':>8}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        ra, rb = set_a.get(name, []), set_b.get(name, [])
        if not ra or not rb:
            print(f"{name:16} missing runs in {'A' if not ra else 'B'}")
            continue
        for side, recs in (("A", ra), ("B", rb)):
            bad = [r["seed"] for r in recs if not r["result"]["correct"]]
            if bad:
                print(f"{name:16} {side}: incorrect output on seeds {bad}")

        def share(recs):
            return {r["result"]["failed"] / r["result"]["attempted"] for r in recs}

        if share(ra) != share(rb):
            print(f"{name:16} failed share differs: A {sorted(share(ra))} "
                  f"B {sorted(share(rb))}")
        for m in bench["end_to_end"]:
            a = [r["result"]["metrics"][m["name"]]["value"] for r in ra]
            b = [r["result"]["metrics"][m["name"]]["value"] for r in rb]
            v, sa, sb = verdict(a, b, m["bound"], m["better"] == "lower")
            print(f"{name:16} {m['name']:22} {statistics.median(a):12.6g} "
                  f"{statistics.median(b):12.6g} {sa:8.2%} {sb:8.2%}  {v}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = parser.parse_args()
    return collect(args) if args.cmd == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
