#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds
`perfbench` and `cspm_serve` (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build.
Store files go to <build dir>/work. The last line of standard output is
the benchmark's JSON result; build logs go to standard error.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["mine-pokec8k", "churn-pokec8k"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("perfbench: no cspm source tree around %s" % bench_dir,
              file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))

    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: failed: %s" % " ".join(cmd), file=sys.stderr)
            sys.exit(2)

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", bench_dir, "-B", build,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "--target", "perfbench", "cspm_serve",
          "-j", "4"])

    binary = os.path.join(build, "perfbench")
    serve = os.path.join(build, "cspm", "cspm_serve")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-bin", serve, "--work-dir", os.path.join(build, "work")]
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
