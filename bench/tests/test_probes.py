"""Per-layer probes degrade to null; end-to-end entry points do not."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import harness, layers
from bench.workloads import admit_churn

from conftest import ROOT


def test_a_probe_whose_public_name_is_gone_reports_null(monkeypatch):
    import repro.fedctl

    monkeypatch.delattr(repro.fedctl, "ShardMap")
    wanted = [
        probe for probe in layers.common_probes(3)
        if probe[0] in (("fedctl.route_us",), ("symexec.explore_ms",))
    ]
    values, reasons = harness.guarded(wanted)
    assert values["fedctl.route_us"] is None
    assert "ShardMap" in reasons["fedctl.route_us"]
    assert values["symexec.explore_ms"] > 0
    assert "symexec.explore_ms" not in reasons


def test_a_stats_key_that_is_gone_reports_null():
    class Controller:
        def stats(self):
            return {"verdict_cache": {"hits": 3, "misses": 1}}

    rec = harness.Tracer()
    probes = layers.controller_probes(
        rec, [Controller()], harness.AdmissionLedger(), {}, {}
    )
    values, reasons = harness.guarded(probes)
    assert values["core.security.verdict_hit_ratio"] == 0.75
    assert values["symexec.summary_hit_ratio"] is None
    assert "symexec_summaries" in reasons["symexec.summary_hit_ratio"]
    assert values["symexec.forks_per_admit"] is None


def test_a_method_that_cannot_be_wrapped_costs_only_its_span():
    class Slotted:
        """Routes like a ShardMap but takes no instance attributes."""

        __slots__ = ("inner",)

        def __init__(self, inner):
            self.inner = inner

        def route(self, key):
            return self.inner.route(key)

    state = admit_churn.State(seed=3)
    state.plane.shard_map = Slotted(state.plane.shard_map)
    tracer = harness.Tracer()
    admit_churn.instrument(state, tracer)
    assert "fedctl.shardmap.route" in state.unwrapped
    for _ in range(5):
        state.step(tracer)
    assert tracer.samples["core.controller.request"]
    assert not tracer.samples["fedctl.shardmap.route"]


def test_a_missing_end_to_end_entry_point_aborts_loudly(monkeypatch):
    from repro.fedctl import FederatedControlPlane

    monkeypatch.delattr(FederatedControlPlane, "submit")
    with pytest.raises(AttributeError, match="submit"):
        admit_churn.setup(3)


def test_without_the_program_the_benchmark_exits_non_zero(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    bench/ exist: no result line, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "operator_ops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "repro" in done.stderr
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_the_excluded_input_still_trips_the_hop_limit():
    """README, "The excluded input": when this starts failing the bug
    is fixed -- move ``symexec.hop_limit_admit_ms`` and the README."""
    result, seconds = layers.hop_limit_admission()
    assert not result.accepted
    assert "exceeded 4096 hops" in result.reason
    assert seconds > 0.1
