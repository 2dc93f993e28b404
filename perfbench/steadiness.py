#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10]

Runs every workload of BENCHMARK.json --runs times through
perfbench/run.py for BENCHMARK.json's run_seconds, with seeds 1000,
1001, ..., and prints for each end-to-end metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound. A spread under a third
of the bound is steady; above the bound, two commits cannot be told
apart on that metric.

Every gated time is CPU time over the host gauge's slowdown (NOTES.md,
"Clocks and the host gauge"), which takes out most of the host's
changes in speed but not all. Metrics most likely to be unsteady:
setup_s on train_sparse, which is mostly initialising 1 GB of
embedding rows, so page faults and memory bandwidth shared with other
tenants move it more than they move the gauge; the millisecond-scale
set-ups of serve_open and plan_sweep; and the tails (step p90, serve
p95, pass p90), which rest on fewer samples than the medians.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1000


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        failed = 0
        for i in range(args.runs):
            res = run_once(workload, FIRST_SEED + i, bench["run_seconds"])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.runs} runs, seeds {FIRST_SEED}.."
              f"{FIRST_SEED + args.runs - 1}, failed checks {failed}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds[name]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "UNSTEADY")
            worst = max(worst, spread / bound)
            print(f"  {name:30s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}  "
                  f"bound {bound:.0%}  {verdict}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
    print(f"largest spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
