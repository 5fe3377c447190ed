#!/usr/bin/env python3
"""Checks that the benchmark repeats: two interleaved sets of runs per workload.

    python3 perfbench/steadiness.py [--runs 10] [--workloads cold-fuse,...]
                                    [--seconds S] [--trace 0|1]

Run it from the repository root. Run i of set A uses seed 1+i and run i of
set B seed 101+i, and the two sets alternate (A1 B1 A2 B2 ...), so the sets
differ in both seeds and machine state. For every metric it prints each
set's median and quartiles (Python's statistics.quantiles, n=4), the spread
(q3 - q1) / median, and how far set B's median moved from set A's, next to
the metric's bound from BENCHMARK.json. A spread above a third of its bound
is flagged; a spread (setup_s excepted) or a median shift above the bound
also makes the script exit 1. The share of failed
operations must match exactly between the sets.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", default=".bench_out/steadiness.json",
                        help="where to write the raw results")
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    report = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 101)):
                sets[name].append(run_once(workload, base + i, args.seconds, args.trace))
        shares = {name: {r["failed"] / r["attempted"] for r in runs} for name, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        print(f"\n== {workload}: {args.runs} runs per set, {args.seconds} s each, "
              f"outputs correct: {correct}, failed share A {sorted(shares['A'])} "
              f"B {sorted(shares['B'])}")
        ok &= correct and len(shares["A"] | shares["B"]) == 1
        print(f"{'metric':32} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'shift':>8} {'bound':>6}")
        report[workload] = {}
        for metric in sets["A"][0]["metrics"]:
            per_set = {name: summary([r["metrics"][metric]["value"] for r in runs])
                       for name, runs in sets.items()}
            unit = sets["A"][0]["metrics"][metric]["unit"]
            spec = bounds.get(metric)
            shift = per_set["B"]["median"] / per_set["A"]["median"] - 1 if per_set["A"]["median"] else 0.0
            if spec and spec["better"] == "higher":
                shift = -shift
            report[workload][metric] = {"unit": unit, "sets": per_set, "shift": shift}
            for name, s in per_set.items():
                flag = ""
                if spec and not args.trace:
                    if metric != "setup_s" and s["spread"] > spec["bound"]:
                        flag = " SPREAD>bound"
                        ok = False
                    elif metric != "setup_s" and s["spread"] > spec["bound"] / 3:
                        flag = " spread>bound/3"
                    if name == "B" and shift > spec["bound"]:
                        flag += " SHIFT>bound"
                        ok = False
                print(f"{metric:32} {name:3} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                      f"{100 * s['spread']:7.2f}% "
                      f"{(f'{100 * shift:7.2f}%' if name == 'B' else ''):>8} "
                      f"{(spec['bound'] if spec else ''):>6}{flag}")
    Path(args.json).parent.mkdir(parents=True, exist_ok=True)
    Path(args.json).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
