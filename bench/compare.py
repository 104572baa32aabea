#!/usr/bin/env python3
"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

Each file holds what ``run.py --out`` writes: a list of run records
(one run or many per workload).  For every (workload, end-to-end
metric) pair the medians of A (the parent) and B (the change) are
compared in the metric's own direction against its ``bound`` from
``BENCHMARK.json``:

* ``regressed``  -- B is worse than A by more than the bound,
* ``improved``   -- B is better than A by more than the bound,
* ``unresolved`` -- either side's run-to-run spread (interquartile
  range over median) is wider than the bound, so neither of the above
  can be told from noise,
* ``unchanged``  -- otherwise.

Exits non-zero on any regression, or when B fails a larger share of
its operations than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str):
    """``{workload: [record, ...]}`` of the end-to-end runs in a file."""
    with open(path) as handle:
        records = json.load(handle)
    if isinstance(records, dict):
        records = [records]
    runs = defaultdict(list)
    for record in records:
        if not record.get("trace"):
            runs[record.get("workload", "")].append(record)
    return runs


def spread(values) -> float:
    """Interquartile range as a share of the median (0 under 4 runs)."""
    if len(values) < 4:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def values_of(records, metric):
    return [
        r["metrics"][metric]["value"] for r in records
        if r["metrics"].get(metric, {}).get("value") is not None
    ]


def judge(parent, change, better: str, bound: float):
    """``(verdict, worsening)``: worsening is the share of the parent's
    median by which the change is worse (negative when better)."""
    base, new = statistics.median(parent), statistics.median(change)
    worsening = (new - base) / base if base else 0.0
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        verdict = "regressed"
    elif max(spread(parent), spread(change)) > bound:
        verdict = "unresolved"
    elif worsening < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return verdict, worsening


def failed_share(records) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(spec, parent_runs, change_runs) -> int:
    bad = 0
    row = "%-20s %-18s %14s %14s %8s %7s  %s"
    print(row % ("workload", "metric", "A median", "B median",
                 "worse by", "spread", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        parent, change = parent_runs.get(workload), change_runs.get(workload)
        if not parent or not change:
            print(row % (workload, "-", "-", "-", "-", "-",
                         "missing from %s" % ("A" if not parent else "B")))
            bad += 1
            continue
        for entry in spec["end_to_end"]:
            a = values_of(parent, entry["name"])
            b = values_of(change, entry["name"])
            if not a or not b:
                print(row % (workload, entry["name"], "-", "-", "-", "-",
                             "regressed (no value)"))
                bad += 1
                continue
            verdict, worsening = judge(a, b, entry["better"], entry["bound"])
            bad += verdict == "regressed"
            print(row % (
                workload, entry["name"],
                "%.6g" % statistics.median(a), "%.6g" % statistics.median(b),
                "%+.1f%%" % (100 * worsening),
                "%.1f%%" % (100 * max(spread(a), spread(b))), verdict,
            ))
        before, after = failed_share(parent), failed_share(change)
        if after > before:
            print("%-20s ops_failed share rose from %.3g to %.3g"
                  % (workload, before, after))
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return compare(spec, load_runs(argv[0]), load_runs(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
