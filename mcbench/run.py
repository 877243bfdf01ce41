#!/usr/bin/env python3
"""Build and run the mcsim end-to-end benchmark.

    python3 mcbench/run.py --workload paper_sweep|survey_1m|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the script builds the mcsim library and
the mcbench driver from source (Release, incremental) into .bench_build/ at
the repository root, then runs the driver from the root.  Build output goes
to stderr; the last line of stdout is the driver's JSON result.  Exits
non-zero without a result when the sources are missing, the build fails or
the driver fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mcbench")
BINARY = os.path.join(BUILD, "mcbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("mcbench: no mcsim sources at %s" % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "mcbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("mcbench: build step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_sweep", "survey_1m", "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    run = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    if run.returncode:
        sys.exit("mcbench: driver exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("mcbench: driver printed no result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
