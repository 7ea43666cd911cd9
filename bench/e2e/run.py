#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

Run from the repository root:

    python3 bench/e2e/run.py --workload paper --seed 2011 --seconds 18 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build when unset, and is
incremental. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Every argument is passed to e2e_bench unchanged.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "e2e_bench",
              "-j", jobs]]
    for cmd in steps:
        try:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        except OSError as err:
            print(f"run.py: {cmd[0]}: {err}", file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "e2e_bench")
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: e2e_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
