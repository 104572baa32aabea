"""Incremental re-verification speedup gate.

Times a policy edit on a star topology twice: re-verification against
the warm footprint-keyed verdict cache (re-explores only the new
requirement) and after flushing it (re-explores everything).  Fails if
the warm pass is less than ``--threshold`` times faster.  Run by the
``symexec-incremental`` CI job::

    PYTHONPATH=src python benchmarks/symexec_speedup_check.py \
        --incremental --platforms=200 --trials=3 --threshold=5.0

``--incremental`` names the one mode this script has; it is accepted so
that invocation keeps working.  The cold-admission work of the symbolic
engine is pinned by exact counts instead of a timing ratio
(``tests/symexec/test_fastpath.py::TestColdAdmissionWork``).

Methodology matches ``dataplane_speedup_check.py``: GC paused around
each timed region, and the reported speedup is the *median* of the
per-trial ratios, which neither scheduler noise nor CPU-frequency drift
in a single trial can move.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

if os.environ.get("PYTHONHASHSEED") is None:
    # Hash randomization moves dict/set layouts between processes,
    # which skews the two sides differently run to run; re-exec with a
    # fixed seed so the measurement is reproducible.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

from _report import print_table

from repro.core import Controller
from repro.netmodel.examples import star_network


def _policy_lines(platforms: int):
    """One localized reachability statement per platform segment.

    Each line's exploration footprint is {internet, router, platform_i},
    so a policy edit leaves every other line's cached verdict valid --
    the situation the incremental tier is built for.
    """
    return [
        "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
        % (index + 1, index)
        for index in range(platforms)
    ]


def _verdict_signature(results):
    return [(bool(r), str(r.requirement)) for r in results]


def _timed_snapshot(controller):
    gc.disable()
    started = time.perf_counter()
    results = controller.verify_snapshot()
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed, results


def measure_incremental(platforms: int, trials: int):
    """``(warm_seconds, full_seconds, median_speedup)`` for a policy
    edit on a ``platforms``-segment star topology.

    Per trial: one new requirement is added to a verified policy, the
    re-verification is timed twice -- once against the warm verdict
    cache (re-explores only the new line) and once after flushing it
    (re-explores everything).  Both passes run over the same compiled
    model; the flushed pass re-warms the cache, so every trial starts
    from the same state.
    """
    base = _policy_lines(platforms - 1)
    extra = _policy_lines(platforms)[-1]
    net = star_network(platforms)
    controller = Controller(net, "\n".join(base))
    controller.verify_snapshot()  # prime: compile + cache every verdict
    warm = full = float("inf")
    ratios = []
    for _trial in range(trials):
        # The edit: retract + re-add the last line so exactly one
        # requirement is new to the cache, then verify the snapshot.
        controller.set_operator_requirements("\n".join(base))
        controller.set_operator_requirements("\n".join(base + [extra]))
        w, warm_results = _timed_snapshot(controller)
        controller._verification.flush()
        f, full_results = _timed_snapshot(controller)
        if _verdict_signature(warm_results) != \
                _verdict_signature(full_results):
            raise AssertionError(
                "incremental verdicts diverged from full re-exploration"
            )
        if not all(full_results):
            failed = [r for r in full_results if not r][0]
            raise AssertionError(
                "policy unsatisfied: %s: %s"
                % (failed.requirement, failed.reason)
            )
        warm = min(warm, w)
        full = min(full, f)
        ratios.append(f / w)
    cache_stats = controller.stats()["verification_cache"]
    assert cache_stats["hits"] > 0, cache_stats
    return warm, full, statistics.median(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=21,
                        help="policy-edit trials")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="minimum required median speedup")
    parser.add_argument("--incremental", action="store_true",
                        help="the incremental gate (the only mode)")
    parser.add_argument("--platforms", type=int, default=200,
                        help="star-topology segments")
    args = parser.parse_args(argv)
    warm, full, speedup = measure_incremental(args.platforms, args.trials)
    print_table(
        "Incremental re-verification: policy edit, %d segments"
        % args.platforms,
        ["mode", "best re-verify (ms)", "median speedup"],
        [
            ("full re-exploration", "%.3f" % (full * 1e3), "1.00x"),
            ("incremental (warm cache)", "%.3f" % (warm * 1e3),
             "%.2fx" % speedup),
        ],
        note="policy edit adds 1 of %d requirements; the warm pass "
             "re-explores only requirements whose footprint "
             "changed" % args.platforms,
    )
    if speedup < args.threshold:
        print(
            "FAIL: incremental re-verification speedup %.2fx below "
            "threshold %.1fx" % (speedup, args.threshold),
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
