#!/usr/bin/env python3
"""Run one perfbench workload from the root of a daisy checkout.

    python3 perfbench/run.py --workload polybench-ab --seed 1 --seconds 12 --trace 0

Builds the benchmark and daisyd from the checkout's sources (dune, into
$CARGO_TARGET_DIR or .bench_build), then runs the workload. The last line
of stdout is the JSON result; build output goes to stderr. Exits nonzero,
without a result, when the build fails, a check fails or the run times out.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["polybench-ab", "serve-cloudsc", "serve-bigstore"]
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a daisy checkout", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./perfbench/bench.exe", "./bin/daisyd.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    daisyd = os.path.join(build_dir, "default", "bin", "daisyd.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daisyd", daisyd, "--workdir", ".bench_run"]
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
