#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

For each workload, runs `--runs` pairs, alternating which set goes first,
each run with its own seed (set A uses seeds 1..N, set B uses 101..100+N).
Then, for every end-to-end metric in BENCHMARK.json, prints per set the
median, the first and third quartiles and the spread (Q3 - Q1) / median,
and the set-to-set change of the median in the metric's worse direction,
each against the metric's bound.

Run from the repository root:

    python3 perfbench/compare.py                      # every workload, 10 pairs
    python3 perfbench/compare.py --workloads serve_mix --runs 5

Exits 1 if any run fails or reports `correct: false`, or if a spread or a
set-to-set change exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    argv = cmd + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} "
                         f"failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    ok = True
    for w in workloads:
        sets = ([], [])
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = 1 + i + 100 * s
                vals = run_once(cmd, w, seed, seconds)
                sets[s].append(vals)
                print(f"  {w} set {'AB'[s]} seed {seed}: " +
                      " ".join(f"{m['name']}={vals[m['name']]:.6g}" for m in metrics),
                      flush=True)
        print(f"\n{w}: {args.runs} runs per set, {seconds} s each")
        print(f"  {'metric':<12} {'set':<3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}  {'B vs A (worse)':>14}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = describe([r[name] for r in runs])
                meds.append(med)
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                elif spread > bound / 3:
                    flag = " (spread > bound/3)"
                change = ""
                if s == 1:
                    worse = (meds[0] - med) / meds[0] if m["better"] == "higher" \
                        else (med - meds[0]) / meds[0]
                    change = f"{100 * worse:+.2f}%"
                    if worse > bound:
                        change += " WORSE>BOUND"
                        ok = False
                print(f"  {name:<12} {'AB'[s]:<3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{100 * spread:>7.2f}% {100 * bound:>5.0f}%  {change:>14}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
