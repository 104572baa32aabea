"""Tests for the Prometheus, JSON, and table exporters."""

import json

import pytest

from repro.obs import Observability
from repro.obs.export import (
    parse_prometheus,
    render_table,
    snapshot,
    snapshot_json,
    to_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", "Requests seen").inc(3)
    packets = reg.counter(
        "packets_total", "Per-element packets", labels=("element",),
    )
    packets.labels("src").inc(10)
    packets.labels("dst").inc(7)
    reg.gauge("queue_depth", "Buffered packets").set(4)
    hist = reg.histogram(
        "latency_seconds", "Latency", buckets=(0.1, 1.0),
    )
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return reg


class TestPrometheusText:
    def test_headers_and_samples(self):
        text = to_prometheus(populated_registry())
        assert "# HELP requests_total Requests seen" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert 'packets_total{element="src"} 10' in text
        assert "# TYPE queue_depth gauge" in text

    def test_histogram_expansion(self):
        text = to_prometheus(populated_registry())
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1.0"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_sum 5.55" in text
        assert "latency_seconds_count 3" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("l",)).labels('we"ird\\').inc()
        text = to_prometheus(reg)
        assert r'x{l="we\"ird\\"} 1' in text

    def test_round_trip_through_the_parser(self):
        reg = populated_registry()
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed["requests_total"][""] == 3
        assert parsed["packets_total"]['{element="src"}'] == 10
        assert parsed["packets_total"]['{element="dst"}'] == 7
        assert parsed["queue_depth"][""] == 4
        assert parsed["latency_seconds_bucket"]['{le="+Inf"}'] == 3
        assert parsed["latency_seconds_sum"][""] == \
            pytest.approx(5.55)

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("justoneword")

    def test_empty_registry_serializes_to_empty_string(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestJsonSnapshot:
    def test_keys_are_stable_regardless_of_insertion_order(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for reg, names in (
            (forward, ("alpha", "beta")),
            (backward, ("beta", "alpha")),
        ):
            for name in names:
                fam = reg.counter(name, labels=("l",))
                for value in ("z", "a") if name == "alpha" \
                        else ("a", "z"):
                    fam.labels(value).inc()
        assert snapshot_json(forward) == snapshot_json(backward)

    def test_serialization_is_deterministic(self):
        reg = populated_registry()
        assert snapshot_json(reg) == snapshot_json(reg)

    def test_round_trips_through_json(self):
        reg = populated_registry()
        loaded = json.loads(snapshot_json(reg, indent=2))
        values = loaded["metrics"]["packets_total"]["values"]
        assert values == {"element=dst": 7, "element=src": 10}
        hist = loaded["metrics"]["latency_seconds"]["values"][""]
        assert hist["count"] == 3
        assert hist["buckets"]["+Inf"] == 3

    def test_includes_span_trees(self):
        tracer = Tracer()
        with tracer.span("admit"):
            with tracer.span("compile"):
                pass
        snap = snapshot(tracer=tracer)
        assert snap["spans"][0]["name"] == "admit"
        assert snap["spans"][0]["children"][0]["name"] == "compile"


class TestRenderTable:
    def test_banner_and_alignment(self):
        text = render_table(populated_registry(), title="demo")
        lines = text.splitlines()
        assert lines[0] == "=== demo ==="
        assert lines[1].startswith("metric")
        assert set(lines[2]) == {"-"}
        assert any("packets_total" in line and "element=src" in line
                   for line in lines)

    def test_histogram_row_summarizes(self):
        text = render_table(populated_registry())
        row = next(l for l in text.splitlines()
                   if l.startswith("latency_seconds"))
        assert "n=3" in row and "sum=5.55" in row

    def test_spans_section_appears_with_a_tracer(self):
        tracer = Tracer()
        with tracer.span("admit", client_id="mobile1"):
            with tracer.span("compile"):
                pass
        text = render_table(MetricsRegistry(), tracer=tracer)
        assert "=== spans ===" in text
        assert "admit" in text
        assert "  compile" in text
        assert "client_id=mobile1" in text


class TestObservabilityBundle:
    def test_shortcuts_delegate_to_the_exporters(self):
        obs = Observability()
        obs.metrics.counter("x").inc()
        with obs.tracer.span("s"):
            pass
        assert "x 1" in obs.to_prometheus()
        snap = obs.snapshot()
        assert snap["metrics"]["x"]["values"][""] == 1
        assert snap["spans"][0]["name"] == "s"
        assert "=== observability snapshot ===" in obs.render_table()
        assert json.loads(obs.snapshot_json())["metrics"]["x"]


class TestResilienceCountersRoundTrip:
    """The failure-model metrics survive the Prometheus round trip."""

    def _chaos_obs(self) -> Observability:
        from repro.resilience.chaos import run_scenario

        obs = Observability()
        run_scenario("platform-crash", seed=1, obs=obs)
        run_scenario("boot-timeout-storm", seed=1, obs=obs)
        return obs

    def test_families_present_in_prometheus_text(self):
        text = self._chaos_obs().to_prometheus()
        for family in (
            "resilience_faults_injected_total",
            "resilience_retries_total",
            "resilience_health_checks_total",
            "resilience_failovers_total",
            "resilience_modules_evacuated_total",
            "resilience_journal_records_total",
            "resilience_recovery_seconds",
        ):
            assert "# TYPE %s" % family in text, family

    def test_values_survive_the_parser(self):
        obs = self._chaos_obs()
        parsed = parse_prometheus(obs.to_prometheus())
        assert parsed["resilience_failovers_total"][
            '{outcome="complete"}'
        ] == 1
        assert parsed["resilience_modules_evacuated_total"][""] == 2
        assert parsed["resilience_recovery_seconds_count"][""] == 1
        injected = sum(
            parsed["resilience_faults_injected_total"].values()
        )
        assert injected > 0
        retries = parsed["resilience_retries_total"]['{op="boot"}']
        assert retries > 0

    def test_counters_match_the_snapshot_view(self):
        obs = self._chaos_obs()
        parsed = parse_prometheus(obs.to_prometheus())
        snap = json.loads(obs.snapshot_json())
        table = snap["metrics"]["resilience_health_checks_total"]
        total = sum(table["values"].values())
        assert total == sum(
            parsed["resilience_health_checks_total"].values()
        )

    def test_disabled_observability_emits_nothing(self):
        from repro.resilience.chaos import run_scenario

        obs = Observability(enabled=False)
        run_scenario("platform-crash", seed=1, obs=obs)
        assert obs.to_prometheus() == ""


class TestFedctlCountersRoundTrip:
    """The federated control plane's metrics survive the Prometheus
    round trip: per-shard admission counters/latency, gossip rumor
    accounting, failover MTTR, and the registry-sampled gauges."""

    def _fedctl_obs(self) -> Observability:
        from repro.fedctl.chaos import run_shard_death

        obs = Observability()
        report = run_shard_death(seed=1, obs=obs)
        assert report.passed, report.failures
        return obs

    def test_families_present_in_prometheus_text(self):
        text = self._fedctl_obs().to_prometheus()
        for family in (
            "fedctl_requests_total",
            "fedctl_admission_seconds",
            "fedctl_gossip_rumors_total",
            "fedctl_gossip_rounds_total",
            "fedctl_failovers_total",
            "fedctl_failover_seconds",
            "fedctl_live_shards",
            "fedctl_deployed_modules",
            "fedctl_tenants",
            "fedctl_gossip_remote_hits",
        ):
            assert "# TYPE %s" % family in text, family

    def test_values_survive_the_parser(self):
        obs = self._fedctl_obs()
        parsed = parse_prometheus(obs.to_prometheus())
        accepted = sum(
            value
            for labels, value in parsed["fedctl_requests_total"].items()
            if 'outcome="accepted"' in labels
        )
        # 3 shards x 2 modules in setup, +1 post-failover admission.
        assert accepted == 7
        assert parsed["fedctl_failovers_total"][
            '{outcome="adopted"}'
        ] == 1
        assert parsed["fedctl_failover_seconds_count"][""] == 1
        assert parsed["fedctl_live_shards"][""] == 2
        published = parsed["fedctl_gossip_rumors_total"][
            '{event="published"}'
        ]
        assert published > 0
        assert sum(
            parsed["fedctl_gossip_remote_hits"].values()
        ) > 0


class TestControllerTrialsRoundTrip:
    """``controller_trials_total{op,outcome}`` -- one count per trial,
    labelled by operation and by how it ended -- survives the
    Prometheus round trip and equals ``Controller.stats()["trials"]``,
    which counts the same with observability off."""

    def drive(self, obs=None):
        from repro.core import Controller
        from repro.resilience.chaos import _module_request, chaos_network

        net = chaos_network()
        controller = Controller(net, obs=obs)
        sibling = Controller(chaos_network())
        assert controller.request(_module_request("mobile1", "m1"))
        assert controller.request(
            _module_request("mobile2", "m2"), dry_run=True
        )
        assert sibling.request(_module_request("mobile3", "m3"))
        assert controller.adopt_module(sibling.export_module("m3"))
        net.unlink("r1", "pb")
        assert not controller.migrate("m1", "pb")
        assert controller.migrate("m1", "pc")
        return controller

    def test_counter_matches_stats_and_survives_the_parser(self):
        obs = Observability()
        controller = self.drive(obs)
        parsed = parse_prometheus(obs.to_prometheus())
        counted = {
            labels: value
            for labels, value in parsed["controller_trials_total"].items()
        }
        assert counted == {
            '{op="admit",outcome="committed"}': 1,
            '{op="admit",outcome="dry-run"}': 1,
            '{op="adopt",outcome="committed"}': 1,
            '{op="migrate",outcome="unsatisfied"}': 1,
            '{op="migrate",outcome="committed"}': 1,
        }
        assert controller.stats()["trials"] == {
            "admit": {"committed": 1, "dry-run": 1},
            "adopt": {"committed": 1},
            "migrate": {"committed": 1, "unsatisfied": 1},
        }

    def test_stats_count_trials_without_observability(self):
        controller = self.drive()
        assert controller.stats()["trials"]["migrate"] == {
            "committed": 1, "unsatisfied": 1,
        }
        splices = controller.stats()["model_splices"]
        assert splices["migrate"] == 1 and splices["adopt"] == 1
