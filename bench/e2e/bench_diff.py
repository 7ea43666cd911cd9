#!/usr/bin/env python3
"""Compares two end-to-end benchmark result sets against BENCHMARK.json.

    python3 bench/e2e/bench_diff.py BASE.jsonl NEW.jsonl [--per-layer]

Each file is what collect.py writes: JSON lines, one record per run. Every
(workload, metric) cell needs at least 3 runs on each side. For each
end-to-end metric the table shows each side's median and quartiles
(statistics.quantiles, n=4), the change of the medians, and the metric's
bound from BENCHMARK.json. A cell is

  REGRESSION  NEW's median is worse than BASE's by more than the bound, and
              either both spreads are within the bound or every NEW run is
              worse than every BASE run
  unresolved  either side's spread (quartile distance / median) exceeds the
              bound, and no side's runs all beat the other's
  better      NEW's median is better by more than the bound (or, with a wide
              spread, every NEW run beats every BASE run)
  same        otherwise

--per-layer adds the traced runs' per-layer metrics (medians only; they
have no bound). Exits 1 on any regression or incorrect run, 2 on unusable
input, 0 otherwise. Stdlib only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_RUNS = 3


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                record = json.loads(line)
                if "result" in record:
                    runs.append(record)
    return runs


def values(runs, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def summary(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def verdict(base, new, better, bound):
    b_med, b_q1, b_q3 = summary(base)
    n_med, n_q1, n_q3 = summary(new)
    change = (n_med - b_med) / b_med if b_med else 0.0
    worse = change if better == "lower" else -change
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (n_q3 - n_q1) / abs(n_med) if n_med else 0.0)
    lower, higher = max(new) < min(base), min(new) > max(base)
    all_better, all_worse = (lower, higher) if better == "lower" else (
        higher, lower)
    if worse > bound and (spread <= bound or all_worse):
        status = "REGRESSION"
    elif spread > bound:
        status = "better" if all_better else "unresolved"
    elif -worse > bound:
        status = "better"
    else:
        status = "same"
    return change, spread, status


def fmt(vals):
    med, q1, q3 = summary(vals)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)

    bad = [r for r in base + new if not r["result"].get("correct")]
    for r in bad:
        print(f"INCORRECT run: {r['workload']} trace={r['trace']} "
              f"seed={r['seed']} failed={r['result'].get('failed')}")

    header = (f"{'workload':9} {'metric':30} {'base median [q1, q3]':>30} "
              f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6} "
              f"{'spread':>7}  status")
    print(header)
    print("-" * len(header))
    regressions = 0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            a = values(base, w["name"], 0, m["name"])
            b = values(new, w["name"], 0, m["name"])
            if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
                print(f"{w['name']:9} {m['name']:30} needs >= {MIN_RUNS} runs "
                      f"per side (have {len(a)}, {len(b)})")
                return 2
            change, spread, status = verdict(a, b, m["better"], m["bound"])
            regressions += status == "REGRESSION"
            print(f"{w['name']:9} {m['name']:30} {fmt(a):>30} {fmt(b):>30} "
                  f"{change:+8.1%} {m['bound']:6.0%} {spread:7.1%}  {status}")
    if args.per_layer:
        print()
        for w in bench["workloads"]:
            for m in bench["per_layer"]:
                a = values(base, w["name"], 1, m["name"])
                b = values(new, w["name"], 1, m["name"])
                if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
                    continue
                a_med, b_med = summary(a)[0], summary(b)[0]
                change = (b_med - a_med) / a_med if a_med else 0.0
                print(f"{w['name']:9} {m['name']:30} {fmt(a):>30} "
                      f"{fmt(b):>30} {change:+8.1%}")
    print()
    print(f"{regressions} regression(s), {len(bad)} incorrect run(s)")
    return 1 if regressions or bad else 0


if __name__ == "__main__":
    sys.exit(main())
