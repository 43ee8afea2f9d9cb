#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build; build output goes to stderr, so the last stdout line is
the benchmark's JSON result. Exits nonzero without a result when the sources
cannot be built.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"
JOBS = "4"


def build(build_dir):
    """Configures (once) and builds the benchmark; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", JOBS,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    if args.self_test:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        trace_out = os.path.join(
            build_dir, "trace-%s-%s.json" % (args.workload, args.seed))
        cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
               "--trace-out", trace_out]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
