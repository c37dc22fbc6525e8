#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs (`run.sh --compare DIR_A DIR_B`).

A set is a directory of result files `<workload>.json`, directly or under
`run-*/` (what `run.sh --repeat N --out DIR` writes). For every workload x
end-to-end metric this prints both sets' medians, the ratio B/A (A is the
base), each set's spread (interquartile range over median) and a verdict
against the bound `BENCHMARK.json` fixes for the metric:

  worse       B's median is worse than A's by more than the bound
  unresolved  a set's spread is wider than the bound, so the medians
              cannot settle it either way
  ok          otherwise

Exits 1 if any pairing is `worse`.
"""
import glob
import json
import os
import statistics
import sys


def load_set(directory, workload, metric):
    files = glob.glob(os.path.join(directory, "run-*", workload + ".json"))
    files += glob.glob(os.path.join(directory, workload + ".json"))
    return [json.load(open(f))["metrics"][metric]["value"] for f in sorted(files)]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(dir_a, dir_b):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    print(f"{'workload':<16} {'metric':<12} {'median A':>14} {'median B':>14} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    worse = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = load_set(dir_a, workload, metric["name"])
            b = load_set(dir_b, workload, metric["name"])
            if not a or not b:
                print(f"{workload:<16} {metric['name']:<12} missing in "
                      f"{dir_a if not a else dir_b}")
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = med_b / med_a
            change = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<16} {metric['name']:<12} {med_a:>14.6g} {med_b:>14.6g} "
                  f"{ratio:>7.3f} {spread(a):>9.3f} {spread(b):>9.3f} "
                  f"{metric['bound']:>6.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
