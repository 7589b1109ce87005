#!/usr/bin/env python3
"""Compare two sets of benchmark runs and check that they agree.

    python3 s5pbench/compare.py SET_A SET_B

A set is a directory of files, each holding the standard output of one run
of s5pbench/run.py. The workload of a run is read from its "diag" line.

For every workload and metric this prints each set's median and quartiles
and the quartile spread (Q3 - Q1) / median, and the share of failed
operations. It flags each end-to-end metric of BENCHMARK.json whose two
medians differ by more than the metric's bound, or whose spread in either
set exceeds it, and exits with 1 if anything is flagged.
"""
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    """workload -> list of (result, diag) per run."""
    runs = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as fh:
            lines = [l for l in fh.read().splitlines() if l.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
            diag = next((json.loads(l)["diag"] for l in lines
                         if l.startswith('{"diag"')), {})
        except (ValueError, KeyError):
            print(f"skipping {name}: no result line", file=sys.stderr)
            continue
        runs.setdefault(diag.get("workload", name), []).append((result, diag))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def series(runs, key):
    """Values of one metric, or of a diag field, over a set's runs."""
    out = []
    for result, diag in runs:
        if key in result["metrics"]:
            out.append(result["metrics"][key]["value"])
        elif key in diag:
            out.append(diag[key])
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_set(sys.argv[1]), load_set(sys.argv[2])
    flagged = []
    for workload in sorted(set(a) | set(b)):
        ra, rb = a.get(workload, []), b.get(workload, [])
        print(f"\n== {workload}: {len(ra)} vs {len(rb)} runs")
        for label, runs in (("A", ra), ("B", rb)):
            att = sum(r["attempted"] for r, _ in runs)
            fail = sum(r["failed"] for r, _ in runs)
            ok = all(r["correct"] for r, _ in runs)
            print(f"   set {label}: failed {fail}/{att}, all correct: {ok}")
        if {r["failed"] * 1.0 / r["attempted"] for r, _ in ra} != \
                {r["failed"] * 1.0 / r["attempted"] for r, _ in rb}:
            flagged.append(f"{workload}: failed share differs")
        keys = []
        for result, diag in ra + rb:
            keys += [k for k in result["metrics"] if k not in keys]
            keys += [k for k in diag if type(diag[k]) in (int, float)
                     and k != "seed" and k not in keys]
        print(f"   {'metric':34s} {'median A':>12s} {'Q1..Q3 spread A':>16s}"
              f" {'median B':>12s} {'Q1..Q3 spread B':>16s} {'B/A-1':>8s}")
        for key in keys:
            va, vb = series(ra, key), series(rb, key)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            diff = mb / ma - 1 if ma else float("inf")
            print(f"   {key:34s} {ma:12.5g} {spread(va):16.2%} {mb:12.5g}"
                  f" {spread(vb):16.2%} {diff:+8.2%}")
            if key in bounds:
                bound = bounds[key]["bound"]
                if abs(diff) > bound:
                    flagged.append(f"{workload} {key}: medians differ by {diff:+.2%}"
                                   f" (bound {bound:.0%})")
                if key != "setup_s":
                    for label, v in (("A", va), ("B", vb)):
                        if spread(v) > bound:
                            flagged.append(f"{workload} {key}: spread of set {label}"
                                           f" {spread(v):.2%} > bound {bound:.0%}")
    print()
    for f in flagged:
        print("FLAG", f)
    if not flagged:
        print("no end-to-end metric differs by more than its bound")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
