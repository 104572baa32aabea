"""BENCHMARK.json and the run/trace commands meet the driver's contract."""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import harness, layers
from bench.workloads import WORKLOADS

from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SPEC = harness.load_spec()


def run(*args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert sorted(SPEC) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = []
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert names == list(WORKLOADS)
    for entry in SPEC["end_to_end"]:
        assert sorted(entry) == ["better", "bound", "name", "unit"]
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert sorted(entry) == ["better", "name", "unit"]
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
        names.append(entry["name"])
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    size = os.path.getsize(os.path.join(ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_setup_time_is_a_metric_with_the_largest_bound():
    by_name = {entry["name"]: entry for entry in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_all_runs_fit_the_driver_budget():
    """4 + 22 runs per workload, each at most run_seconds plus ~10 s of
    set-up, oracles and start-up, inside 3420 s."""
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) <= 3420


def test_every_per_layer_metric_has_a_probe_and_the_reverse():
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    probed = {
        name for names, _ in layers.common_probes(1) for name in names
    }
    assert probed.isdisjoint(layers.WORKLOAD_DERIVED)
    assert probed | set(layers.WORKLOAD_DERIVED) == declared
    assert set(layers.EXACT) <= set(layers.WORKLOAD_DERIVED)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_run_prints_every_end_to_end_metric(workload):
    result = run("--workload", workload, "--seed", "4", "--seconds", "3",
                 "--trace", "0")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        entry["name"] for entry in SPEC["end_to_end"]
    ]
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert sorted(metric) == ["unit", "value"]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0


def churn_contrasts(values):
    assert values["symexec.check_share"] >= 0.5
    assert 0.3 <= values["core.security.verdict_hit_ratio"] <= 0.7
    assert values["click.columnar.packet_share"] == 0


def operator_contrasts(values):
    assert values["symexec.verdict_reuse_ratio"] > 0.3
    assert values["click.columnar.packet_share"] == 0


def firewall_contrasts(values):
    assert values["click.columnar.packet_share"] >= 0.95
    assert values["click.columnar.fallbacks"] == 0
    assert values["symexec.check_share"] == 0


def journey_contrasts(values):
    assert 0 < values["click.columnar.packet_share"] < 0.9
    assert values["platform.modules_per_vm"] >= 1


#: What makes each workload the one it is (README, "Contrasts").
CONTRASTS = {
    "admit_churn": churn_contrasts,
    "operator_ops": operator_contrasts,
    "replay_firewall": firewall_contrasts,
    "request_to_packets": journey_contrasts,
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_repeat_every_count_exactly(workload):
    first, second = (
        run("--workload", workload, "--seed", "4", "--trace", "1", "--quick")
        for _ in range(2)
    )
    assert list(first["metrics"]) == [
        entry["name"] for entry in SPEC["per_layer"]
    ]
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    for name in layers.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    values = {k: v["value"] for k, v in first["metrics"].items()}
    assert all(value is not None for value in values.values())
    assert values["harness.span_coverage"] >= 0.9
    trace_file = os.path.join(harness.OUT_DIR, "trace-%s.json" % workload)
    with open(trace_file) as handle:
        trace = json.load(handle)
    assert trace["span_fields"] == [
        "name", "start", "end", "parent", "request",
    ]
    assert trace["spans"] and trace["seed"] == 4
    CONTRASTS[workload](values)
