#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py [--workload W] [--seed S]``.

With ``--workload`` this is the driver's contract: one workload runs
in this process and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` -- every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without it every workload runs in a subprocess of its
own and a table of all of them is printed; ``--runs``/``--out`` collect
run sets for ``compare.py`` and ``--quick`` is the smoke mode.

Closed loop, one load-generating thread, ``PYTHONHASHSEED=0``, GC left
on with a ``gc.collect()`` before each timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Seconds per run and set-ups per run in ``--quick`` mode.
QUICK_SECONDS = 6
#: Set-ups per measured run; ``setup_s`` is their median.
SETUPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured wall per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: fixed-op-count traced pass, per-layer"
                             " metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: ~2 s per segment, oracles on")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: runs per workload, on"
                             " seeds SEED, SEED+1, ...")
    parser.add_argument("--out", help="write the run records to this JSON"
                                      " file, for compare.py")
    return parser.parse_args(argv)


# -- one workload, in this process --------------------------------------------


def hook(workload, name: str):
    """An optional workload function (``teardown``, ``instrument``)."""
    return getattr(workload, name, lambda *args: None)


def measured(workload, seed: int, seconds: float, setups: int):
    from bench import harness

    teardown = hook(workload, "teardown")
    setup_seconds, cold_seconds = [], []
    state = None
    for _ in range(setups):
        if state is not None:
            # Every set-up starts on the same, empty heap.
            teardown(state)
            state = None
        harness.quiesce()
        start = harness.clock()
        state = workload.setup(seed)
        setup_seconds.append(harness.clock() - start)
        cold_seconds += getattr(state, "cold_seconds", ())
    # Cold starts timed during set-up are pooled over all set-ups.
    state.cold_seconds = cold_seconds
    rec = harness.Recorder()
    try:
        workload.run(state, rec, harness.Budget(seconds=seconds))
        problems = workload.verify(state)
        metrics = workload.end_to_end(state, rec)
    finally:
        teardown(state)
    metrics["setup_s"] = harness.median(setup_seconds)
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    return state, rec, metrics, problems, {}


def traced(workload, seed: int, scale: float):
    """The common layer probes on a fresh heap; then a fixed-op-count
    pass of the workload, first untraced, then (on a fresh state of the
    same seed) with spans on."""
    from bench import harness, layers

    teardown = hook(workload, "teardown")
    metrics, reasons = harness.guarded(layers.common_probes(seed))
    budget = harness.Budget(scale=scale)
    state = workload.setup(seed)
    plain = harness.Recorder()
    try:
        workload.run(state, plain, budget)
        untraced_rate = workload.end_to_end(state, plain)["throughput_per_s"]
    finally:
        teardown(state)
    state = workload.setup(seed)
    tracer = harness.Tracer()
    try:
        hook(workload, "instrument")(state, tracer)
        before = layers.symexec_snapshot()
        workload.run(state, tracer, budget)
        after = layers.symexec_snapshot()
        problems = workload.verify(state)
        traced_rate = workload.end_to_end(state, tracer)["throughput_per_s"]
        derived = workload.layer_probes(state, tracer, before, after)
        derived += layers.single_probes({
            "harness.trace_overhead_ratio":
                lambda: traced_rate / untraced_rate,
            "harness.span_coverage": tracer.coverage,
        })
        for found, into in zip(harness.guarded(derived), (metrics, reasons)):
            into.update(found)
    finally:
        teardown(state)
    for name in layers.WORKLOAD_DERIVED:
        # A layer this workload never enters did no work.
        metrics.setdefault(name, 0.0)
    tracer.dump(
        os.path.join(harness.OUT_DIR, "trace-%s.json" % workload.NAME),
        {"workload": workload.NAME, "seed": seed,
         "self_seconds": tracer.self_seconds()},
    )
    return state, tracer, metrics, problems, reasons


def run_one(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomization moves dict and set layouts between
        # processes; pin it so runs of one seed do the same work.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    from bench import harness
    from bench.workloads import WORKLOADS

    spec = harness.load_spec()
    workload = WORKLOADS[args.workload]
    seconds = args.seconds or spec["run_seconds"]
    if args.trace:
        outcome = traced(workload, args.seed, 0.25 if args.quick else 1.0)
        declared = spec["per_layer"]
    else:
        outcome = measured(
            workload, args.seed,
            QUICK_SECONDS if args.quick else seconds,
            1 if args.quick else SETUPS,
        )
        declared = spec["end_to_end"]
    state, rec, values, problems, reasons = outcome
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            values[name] = None
            reasons[name] = "no probe produced it"
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        meaning = getattr(workload, "MEANING", {}).get(name, "")
        print("%-20s %-40s %14s %-6s %s" % (
            workload.NAME, name,
            "null" if values[name] is None else "%.6g" % values[name],
            entry["unit"], reasons.get(name) or meaning,
        ))
    counts = {name: len(samples) for name, samples in rec.samples.items()}
    print("samples: " + ", ".join(
        "%s=%d" % item for item in sorted(counts.items())
    ))
    for problem in problems[:20]:
        print("ORACLE: " + problem)
    # Every operation an oracle disagrees with adds one problem.
    failed = len(problems)
    print("ops_attempted=%d ops_failed=%d" % (state.attempted, failed))
    record = {
        "correct": not failed,
        "attempted": state.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        write_records(args.out, [dict(
            record, workload=workload.NAME, seed=args.seed, trace=args.trace
        )])
    print(json.dumps(record))
    return 0


def write_records(path: str, records) -> None:
    with open(path, "w") as handle:
        json.dump(records, handle, indent=1)


# -- every workload, each in a subprocess of its own --------------------------


def run_all(args) -> int:
    from bench import harness

    records = []
    for workload in (w["name"] for w in harness.load_spec()["workloads"]):
        for run in range(args.runs):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload,
                "--seed", str(args.seed + run),
                "--trace", str(args.trace),
            ]
            if args.seconds:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED="0"),
            )
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode:
                print("%s: exit code %d" % (workload, done.returncode))
                return done.returncode
            record = json.loads(done.stdout.strip().splitlines()[-1])
            record.update(
                workload=workload, seed=args.seed + run, trace=args.trace
            )
            records.append(record)
    if args.out:
        write_records(args.out, records)
    bad = [r for r in records if not r["correct"] or r["failed"]]
    print("%d runs, %d with failed operations or oracles" % (
        len(records), len(bad),
    ))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # The program is built from source: nothing is installed.
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
