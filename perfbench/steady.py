#!/usr/bin/env python3
"""Steadiness self-check: repeat one workload and report each metric's spread.

    python3 perfbench/steady.py --workload serve-cloudsc --runs 10
    python3 perfbench/steady.py --workload polybench-ab --runs 10 \\
        --checkout ../parent --checkout .

Runs `perfbench/run.py` in each checkout (default: the current one) with
seeds 1..N (or --seeds). With two checkouts it alternates which one runs
first in each round. For every metric it prints the median, the quartiles
(statistics.quantiles, n=4), the sample count and the spread (quartile
distance over the median), and flags spreads above the metric's bound in
BENCHMARK.json (above a third of it, as a warning). Host steal ticks from
/proc/stat are recorded for each run, so runs on a busy host stand out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def run_once(checkout, workload, seed, seconds, trace):
    before = steal_ticks()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    steal = steal_ticks() - before
    log = os.path.join(checkout, ".bench_run", f"steady-{workload}-{seed}.log")
    with open(log, "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1]), steal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated seeds (default 1..runs)")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--checkout", action="append",
                    help="checkout root to run in (give two to alternate)")
    args = ap.parse_args()

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    checkouts = args.checkout or ["."]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))

    values = {c: {} for c in checkouts}
    for i, seed in enumerate(seeds):
        order = checkouts if i % 2 == 0 else list(reversed(checkouts))
        for c in order:
            result, steal = run_once(c, args.workload, seed, seconds, args.trace)
            ok = (result["correct"], result["attempted"], result["failed"])
            shown = " ".join(f"{n}={m['value']:.4g}" for n, m in
                             list(result["metrics"].items())[:5])
            print(f"{c} seed {seed}: correct/attempted/failed {ok}, "
                  f"steal ticks {steal}, {shown}", flush=True)
            for name, m in result["metrics"].items():
                values[c].setdefault(name, []).append(m["value"])

    flagged = 0
    for c in checkouts:
        print(f"\n{args.workload} in {c} ({len(seeds)} runs)")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'n':>3} {'spread':>7} {'bound':>6}")
        for name, vs in values[c].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "  EXCEEDS BOUND"
                    flagged += 1
                elif spread > bound / 3:
                    flag = "  above a third of the bound"
            print(f"  {name:26} {med:12.5g} {q1:12.5g} {q3:12.5g} {len(vs):3d} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6}{flag}")
    if len(checkouts) == 2:
        a, b = checkouts
        print(f"\nmedian of {b} relative to {a}")
        for name in values[a]:
            ma = statistics.median(values[a][name])
            mb = statistics.median(values[b][name])
            print(f"  {name:26} {(mb - ma) / ma if ma else 0.0:+8.3f}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
