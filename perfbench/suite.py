#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --seeds 1 --trace 1

Each (workload, seed) runs as its own process, one after another, with the
workloads and settings of BENCHMARK.json; run.py runs a single workload.
For every metric the table gives the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and, for
end-to-end metrics, the bound from BENCHMARK.json.  It also prints the
error rate of each workload.  ``--json PATH`` writes the summary, which adds
for each metric the highest percentile across runs that has at least ten
runs beyond it (none below 20 runs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(spec, workload, seed, trace, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            "tail": tail(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "seconds": seconds, "trace": args.trace,
               "workloads": {}}
    for workload in names:
        runs = []
        for seed in seeds:
            result = run_one(spec, workload, seed, args.trace, seconds)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = m["unit"]
            if name in bounds:
                stats["bound"] = bounds[name]
            metrics[name] = stats
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }

    print(f"\n{'workload':17s} {'metric':34s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} unit")
    for workload, ws in summary["workloads"].items():
        for name, s in ws["metrics"].items():
            bound = s.get("bound")
            flag = ""
            if bound is not None:
                flag = ("ok" if s["spread"] <= bound / 3 else
                        "WIDE" if s["spread"] <= bound else "OVER")
            print(f"{workload:17s} {name:34s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} "
                  f"{'' if bound is None else bound:>6} {s['unit']} {flag}")
        print(f"{workload:17s} {'error_rate':34s} {ws['error_rate']:12.6g} "
              f"({ws['failed']}/{ws['attempted']})")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
