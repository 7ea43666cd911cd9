#!/usr/bin/env python3
"""Runs the end-to-end benchmark repeatedly and records a result set.

    python3 bench/e2e/collect.py --out bench/e2e/results/mine.jsonl \\
        [--repeats 5] [--seeds 2011,702]

Run from the repository root. Every workload runs with --trace 0 and
--trace 1, once per seed, --repeats times over, through run.py with
BENCHMARK.json's run_seconds. The output is JSON lines: first an "env"
record (nproc, kernel, commit, date), then one record per run holding the
run's final JSON object. bench_diff.py compares two such files. Stdlib
only.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, check=True)
        return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", default="2011")
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    env = {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "commit": commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "run_seconds": seconds,
    }
    failures = 0
    with open(args.out, "w") as out:
        out.write(json.dumps({"env": env}) + "\n")
        for repeat in range(args.repeats):
            for workload in (w["name"] for w in bench["workloads"]):
                for trace in ("0", "1"):
                    for seed in args.seeds.split(","):
                        cmd = [sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", workload, "--seed", seed,
                               "--seconds", str(seconds),
                               "--trace", trace]
                        t0 = time.time()
                        proc = subprocess.run(cmd, cwd=ROOT, text=True,
                                              stdout=subprocess.PIPE)
                        wall = time.time() - t0
                        lines = proc.stdout.strip().splitlines()
                        if proc.returncode != 0 or not lines:
                            failures += 1
                            print(f"FAILED {workload} trace={trace} "
                                  f"seed={seed}", file=sys.stderr)
                            continue
                        record = {"workload": workload, "trace": int(trace),
                                  "seed": int(seed), "repeat": repeat,
                                  "wall_s": round(wall, 2),
                                  "result": json.loads(lines[-1])}
                        out.write(json.dumps(record) + "\n")
                        out.flush()
                        print(f"{workload} trace={trace} seed={seed} "
                              f"repeat={repeat} {wall:.1f} s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
