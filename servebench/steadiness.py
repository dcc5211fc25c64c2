#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

    python3 servebench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                     [--first-seed 1] [--seconds N]

Run from the root of a checkout. For each set and each workload it runs
`servebench/run.py --trace 0` once per seed (seeds first-seed ..
first-seed+runs-1, the same seeds in every set; one discarded run before
the first set builds and settles the machine) and collects the
end-to-end metrics. For each metric x workload it then prints each set's
median, its spread (distance between the first and third quartile as
statistics.quantiles(values, n=4) gives them, as a share of the median),
and whether the sets agree: every spread within the metric's bound from
BENCHMARK.json (and, as the target, within a third of it), and no later
set's median worse than the first's by more than the bound. Raw results go to .bench_run/steadiness-<time>.json. Exits 1 when
any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    # values[workload][metric] = [set0 values, set1 values, ...]
    values = {w: {m["name"]: [[] for _ in range(args.sets)]
                  for m in bench["end_to_end"]} for w in workloads}
    failures = []
    walls = []
    # One discarded run first, so neither the build nor a machine still
    # busy with it lands in the first set.
    run_once(workloads[0], seeds[0], args.seconds)
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                result, wall = run_once(w, seed, args.seconds)
                walls.append(wall)
                print("set %d %-14s seed %-4d %5.1f s %s" %
                      (s + 1, w, seed, wall,
                       "ok" if result and result["correct"] else "FAILED"),
                      flush=True)
                if not result or not result["correct"]:
                    failures.append("%s seed %d failed" % (w, seed))
                    continue
                for name, m in result["metrics"].items():
                    values[w][name][s].append(m["value"])

    ok = not failures
    print("\n%-14s %-22s %12s %7s %12s %7s %7s %6s  verdict" %
          ("workload", "metric", "median1", "spread1", "median2", "spread2",
           "change", "bound"))
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = values[w][name]
            if any(len(v) < 4 for v in sets):
                print("%-14s %-22s too few runs" % (w, name))
                ok = False
                continue
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            changes = [sign * (med - meds[0]) / meds[0] for med in meds[1:]]
            worst_change = max(changes) if changes else 0.0
            verdict = []
            if max(spreads) > bound:
                verdict.append("SPREAD>BOUND")
            elif max(spreads) > bound / 3:
                verdict.append("spread>bound/3")
            if worst_change > bound:
                verdict.append("MEDIANS DISAGREE")
            if any(v.startswith(("SPREAD", "MEDIANS")) for v in verdict):
                ok = False
            print("%-14s %-22s %12.5g %7.3f %12s %7s %7s %6.2f  %s" %
                  (w, name, meds[0], spreads[0],
                   "%.5g" % meds[1] if len(meds) > 1 else "-",
                   "%.3f" % spreads[1] if len(spreads) > 1 else "-",
                   "%+.3f" % worst_change if changes else "-", bound,
                   " ".join(verdict) or "ok"))
    print("\nrun wall time: mean %.1f s, max %.1f s over %d runs" %
          (statistics.mean(walls), max(walls), len(walls)))
    for f in failures:
        print("failure: " + f)
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_run",
                       "steadiness-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump({"seeds": seeds, "values": values, "walls": walls}, f)
    print("raw values: %s" % out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
