#!/usr/bin/env python3
"""Golden-file tests for the PR 10 static checkers (ctest label: analysis).

Runs bd_affinity_check.py and bd_serde_check.py against seeded-violation and
clean fixture trees under fixtures/, asserting both the exit code and that
every seeded violation is actually reported (a checker that rots into
always-OK fails here, not in review). When clang++ is on PATH the
thread-safety golden pair is compiled with -Wthread-safety -Werror too:
guard_bad.cpp must be rejected, guard_clean.cpp accepted. Without clang++
that pair is skipped (GCC expands the annotations to nothing) — CI's
analysis job always has clang++.

Usage: run_golden.py [--repo-root PATH]
Exit: 0 all golden expectations hold, 1 otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

failures = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}")
    if not ok:
        failures.append(name)
        if detail:
            print(detail)


def run_checker(script, root):
    proc = subprocess.run(
        [sys.executable, script, "--root", root],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--repo-root",
        default=os.path.normpath(os.path.join(HERE, "..", "..")),
    )
    args = ap.parse_args()
    tools = os.path.join(args.repo_root, "tools", "analysis")
    affinity = os.path.join(tools, "bd_affinity_check.py")
    serde = os.path.join(tools, "bd_serde_check.py")

    # --- affinity goldens --------------------------------------------------
    code, out = run_checker(affinity, os.path.join(FIXTURES, "affinity_bad"))
    check("affinity_bad exits 1", code == 1, out)
    check(
        "affinity_bad reports WORKER->NODE via helper",
        "Pool::worker_loop" in out and "Index::insert_subscription" in out,
        out,
    )
    check(
        "affinity_bad reports ANY->NODE",
        "Pool::metrics_scrape" in out and "Index::erase_subscription" in out,
        out,
    )
    code, out = run_checker(affinity, os.path.join(FIXTURES, "affinity_clean"))
    check("affinity_clean exits 0", code == 0, out)

    # --- serde goldens -----------------------------------------------------
    code, out = run_checker(serde, os.path.join(FIXTURES, "serde_bad"))
    check("serde_bad exits 1", code == 1, out)
    check(
        "serde_bad reports Ping width asymmetry",
        "payload:Ping" in out,
        out,
    )
    check(
        "serde_bad reports Report conditional asymmetry",
        "payload:Report" in out,
        out,
    )
    check(
        "serde_bad reports Batch seq element asymmetry",
        "payload:Batch" in out,
        out,
    )
    check(
        "serde_bad reports Block raw-bytes count asymmetry",
        "pair 'block'" in out,
        out,
    )
    check(
        "serde_bad reports orphan write_extra",
        "write_extra" in out,
        out,
    )
    code, out = run_checker(serde, os.path.join(FIXTURES, "serde_clean"))
    check("serde_clean exits 0", code == 0, out)

    # --- whole-tree runs: the real sources must stay clean -----------------
    code, out = run_checker(affinity, args.repo_root)
    check("src/ affinity clean", code == 0, out)
    code, out = run_checker(serde, args.repo_root)
    check("src/ serde clean", code == 0, out)

    # --- thread-safety goldens (Clang only) --------------------------------
    clang = shutil.which("clang++")
    if clang:
        base = [
            clang,
            "-std=c++20",
            f"-I{os.path.join(args.repo_root, 'src')}",
            "-Wthread-safety",
            "-Werror",
            "-fsyntax-only",
        ]
        bad = subprocess.run(
            base + [os.path.join(FIXTURES, "guard_bad.cpp")],
            capture_output=True,
            text=True,
        )
        check(
            "guard_bad rejected by -Wthread-safety",
            bad.returncode != 0 and "thread-safety" in bad.stderr,
            bad.stderr,
        )
        good = subprocess.run(
            base + [os.path.join(FIXTURES, "guard_clean.cpp")],
            capture_output=True,
            text=True,
        )
        check("guard_clean accepted by -Wthread-safety",
              good.returncode == 0, good.stderr)
    else:
        print("[skip] guard goldens: clang++ not on PATH "
              "(CI analysis job runs them)")

    if failures:
        print(f"run_golden: {len(failures)} golden expectation(s) failed")
        return 1
    print("run_golden: all golden expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
