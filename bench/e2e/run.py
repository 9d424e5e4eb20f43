#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs it on one workload.

Usage, from the repository root:

  python3 bench/e2e/run.py --workload er50k-rsme --seed 7 --seconds 15 --trace 0

Configures bench/e2e (a CMake superbuild of the repository) into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e, builds it, then runs
chameleon_bench_e2e on the workload: untraced runs for --seconds with
--trace 0, traced passes for --seconds plus one untraced run with
--trace 1. Build output goes to stderr; the last line on stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
build fails, and with the benchmark's own code otherwise.
"""
import argparse
import os
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(target, "e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", source, "-B", build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("error: " + " ".join(step) + " failed", file=sys.stderr)
            return 1

    sys.stdout.flush()
    return subprocess.run([
        os.path.join(build, "chameleon_bench_e2e"),
        "--workloads=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=" + args.trace,
        "--reps=1",
        "--out=" + os.path.join(build, "results"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
