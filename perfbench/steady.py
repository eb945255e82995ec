"""Steadiness check: two sets of runs of the same commit, one after the other.

    python3 perfbench/steady.py

For every workload in BENCHMARK.json, each set makes ten fresh
`run.py --trace 0` runs of `run_seconds` each, one seed per run (set s
uses seeds 100*s+1 ... 100*s+10).  For every end-to-end metric the
script prints each set's median and its spread (interquartile range over
median, from statistics.quantiles(n=4)), the spread of all runs together,
and how far the second set's median moved from the first, in either
direction.  A metric is steady when both sets' spreads and the move stay
within its bound in BENCHMARK.json; for `setup_s` only the move is gated.  The script also checks that every
run is correct and that the failed share of operations is identical in
every run.  The full table is written to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {}
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                res = run_once(wl, 100 * s + i + 1, bench["run_seconds"])
                print(f"{wl} set {s} seed {100 * s + i + 1}: attempted={res['attempted']} "
                      f"failed={res['failed']} correct={res['correct']}", file=sys.stderr)
                runs.append(res)
            sets.append(runs)
        every = [r for runs in sets for r in runs]
        shares = {r["failed"] / r["attempted"] for r in every}
        correct = all(r["correct"] for r in every)
        ok &= correct and len(shares) == 1
        print(f"\n{wl}: correct={correct} failed share={sorted(shares)}")
        print(f"  {'metric':15s} {'median/set':>24s} {'spread/set':>17s} {'all':>7s} "
              f"{'moved':>7s} {'bound':>6s}")
        report[wl] = {"correct": correct, "failed_shares": sorted(shares), "metrics": {}}
        for name, spec in metrics.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            overall = spread([v for vs in per_set for v in vs])
            moved = (medians[-1] - medians[0]) / medians[0]
            # setup_s is a 0.1-0.2 s figure whose set spread reached its bound
            # on identical code, so only its median move is gated.
            spread_ok = name == "setup_s" or max(spreads) <= spec["bound"]
            steady = spread_ok and abs(moved) <= spec["bound"]
            ok &= steady
            print(f"  {name:15s} {' '.join(f'{m:11.4g}' for m in medians):>24s} "
                  f"{' '.join(f'{s:8.3f}' for s in spreads):>17s} {overall:7.3f} "
                  f"{moved:+7.3f} {spec['bound']:6.2f}"
                  f"{'' if steady else '  <-- outside bound'}")
            report[wl]["metrics"][name] = {"medians": medians, "spreads": spreads,
                                           "spread_all": overall, "moved": moved,
                                           "bound": spec["bound"], "values": per_set}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
