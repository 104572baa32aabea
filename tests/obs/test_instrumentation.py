"""Tests for the instrumented layers: runtime, controller, platform.

The Click runtime has two instrumentation strategies (deferred segment
accounting on join-free graphs, exact per-hop counting otherwise); both
are exercised here, along with the guarantee that an uninstrumented
runtime registers nothing and stamps nothing on packets.
"""

import pytest

from repro.click import Packet, Runtime, TCP, UDP, columnar, parse_config
from repro.common.addr import parse_ip
from repro.core import ClientRequest, Controller
from repro.netmodel.examples import figure3_network
from repro.obs import MetricsRegistry, Observability
from repro.platform.orchestrator import PlatformOrchestrator

LINEAR = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> IPFilter(allow udp)
        -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
        -> out;
"""

BUFFERED = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> TimedUnqueue(120, 100) -> out;
"""

QUEUED = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> Queue(100) -> Unqueue() -> out;
"""

TEED = """
    src :: FromNetfront();
    t :: Tee(2);
    a :: ToNetfront();
    b :: ToNetfront();
    src -> t;
    t[0] -> a;
    t[1] -> b;
"""


def udp_packet(**overrides):
    fields = dict(
        ip_src=parse_ip("8.8.8.8"),
        ip_dst=parse_ip("192.0.2.10"),
        ip_proto=UDP,
        tp_dst=1500,
    )
    fields.update(overrides)
    return Packet(**fields)


def element_values(obs, metric):
    snap = obs.metrics.snapshot()
    if metric not in snap:
        return {}
    return {
        key.split("=", 1)[1]: value
        for key, value in snap[metric]["values"].items()
    }


class TestFastPathRuntime:
    def test_per_element_packet_and_byte_counts(self):
        obs = Observability()
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        for _ in range(5):
            runtime.inject("src", udp_packet())
        packets = element_values(obs, "dataplane_packets_total")
        assert packets["src"] == 5
        assert packets["IPFilter@1"] == 5
        assert packets["IPRewriter@2"] == 5
        assert packets["out"] == 5
        nbytes = element_values(obs, "dataplane_bytes_total")
        assert nbytes["out"] == 5 * udp_packet().length

    def test_drops_attributed_to_the_dropping_element(self):
        obs = Observability()
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        runtime.inject("src", udp_packet())
        for _ in range(3):
            runtime.inject("src", udp_packet(ip_proto=TCP))
        drops = element_values(obs, "dataplane_drops_total")
        assert drops["IPFilter@1"] == 3
        packets = element_values(obs, "dataplane_packets_total")
        assert packets["IPFilter@1"] == 4
        assert packets["out"] == 1

    def test_egress_counts_only_at_sinks(self):
        obs = Observability()
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        runtime.inject("src", udp_packet())
        egress = element_values(obs, "dataplane_egress_total")
        assert egress == {"out": 1}
        assert len(runtime.take_output()) == 1

    def test_take_output_preserves_list_identity(self):
        obs = Observability()
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        output = runtime.output
        runtime.inject("src", udp_packet())
        records = runtime.take_output()
        assert len(records) == 1
        assert runtime.output is output
        # The pre-bound append must still land in the visible list.
        runtime.inject("src", udp_packet())
        assert len(runtime.output) == 1

    def test_latency_histogram_spans_buffering_elements(self):
        obs = Observability()
        runtime = Runtime(parse_config(BUFFERED), obs=obs)
        for _ in range(4):
            runtime.inject("src", udp_packet())
        runtime.run(until=130.0)
        snap = obs.metrics.snapshot()
        hist = snap["dataplane_egress_latency_seconds"]["values"][""]
        assert hist["count"] == 4
        # Buffered for one 120 s TimedUnqueue interval each.
        assert hist["sum"] == pytest.approx(480.0)

    def test_synchronous_traversal_records_zero_latency(self):
        obs = Observability()
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        for _ in range(3):
            runtime.inject("src", udp_packet())
        snap = obs.metrics.snapshot()
        hist = snap["dataplane_egress_latency_seconds"]["values"][""]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.0)

    def test_queue_depth_gauge_samples_buffered_packets(self):
        obs = Observability()
        runtime = Runtime(parse_config(BUFFERED), obs=obs)
        for _ in range(4):
            runtime.inject("src", udp_packet())
        depth = element_values(obs, "dataplane_queue_depth")
        assert depth["TimedUnqueue@1"] == 4
        runtime.run(until=130.0)
        depth = element_values(obs, "dataplane_queue_depth")
        assert depth["TimedUnqueue@1"] == 0

    def test_unrouted_port_counts_as_unrouted_drop(self):
        obs = Observability()
        runtime = Runtime(
            parse_config("src :: FromNetfront(); src -> Counter();"),
            obs=obs,
        )
        for _ in range(2):
            runtime.inject("src", udp_packet())
        assert runtime.dropped == 2
        snap = obs.metrics.snapshot()
        unrouted = snap["dataplane_unrouted_drops_total"]["values"][""]
        assert unrouted == 2
        # The packet still traversed both elements before falling off.
        packets = element_values(obs, "dataplane_packets_total")
        assert packets["src"] == 2
        assert packets["Counter@1"] == 2

    def test_deferred_injection_is_counted(self):
        obs = Observability()
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        runtime.inject("src", udp_packet(), at=5.0)
        assert element_values(obs, "dataplane_packets_total") \
            .get("src", 0) == 0
        runtime.run(until=10.0)
        packets = element_values(obs, "dataplane_packets_total")
        assert packets["src"] == 1
        assert packets["out"] == 1

    def test_snapshots_are_cumulative_across_flushes(self):
        obs = Observability()
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        runtime.inject("src", udp_packet())
        first = element_values(obs, "dataplane_packets_total")
        runtime.inject("src", udp_packet())
        second = element_values(obs, "dataplane_packets_total")
        assert first["out"] == 1
        assert second["out"] == 2


class TestExactPathRuntime:
    def test_multiplying_elements_fall_back_to_per_hop_counting(self):
        obs = Observability()
        runtime = Runtime(parse_config(TEED), obs=obs)
        for _ in range(3):
            runtime.inject("src", udp_packet())
        packets = element_values(obs, "dataplane_packets_total")
        assert packets["src"] == 3
        assert packets["t"] == 3
        assert packets["a"] == 3
        assert packets["b"] == 3
        egress = element_values(obs, "dataplane_egress_total")
        assert egress == {"a": 3, "b": 3}
        assert len(runtime.output) == 6

    def test_exact_path_latency_and_zero_latency(self):
        obs = Observability()
        runtime = Runtime(parse_config(TEED), obs=obs)
        runtime.inject("src", udp_packet())
        snap = obs.metrics.snapshot()
        hist = snap["dataplane_egress_latency_seconds"]["values"][""]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.0)


class _RecordingRegistry(MetricsRegistry):
    """An enabled registry that notes every registration made on it."""

    def __init__(self):
        super().__init__(enabled=True)
        self.registrations = []

    def counter(self, name, *args, **kwargs):
        self.registrations.append(name)
        return super().counter(name, *args, **kwargs)

    def gauge(self, name, *args, **kwargs):
        self.registrations.append(name)
        return super().gauge(name, *args, **kwargs)

    def histogram(self, name, *args, **kwargs):
        self.registrations.append(name)
        return super().histogram(name, *args, **kwargs)

    def register_collector(self, collector, key=None):
        self.registrations.append(collector)
        super().register_collector(collector, key)


class TestDisabledRuntime:
    """With obs absent or disabled the dataplane leaves no trace of it."""

    def drive(self, source, obs):
        """Scalar, small-batch, column-sized-batch and scheduled
        injection; every packet that went in, and the runtime."""
        runtime = Runtime(parse_config(source), obs=obs)
        packets = [udp_packet(tp_src=index) for index in range(40)]
        runtime.inject("src", packets[0])
        runtime.inject("src", packets[1], at=1.0)
        runtime.inject_batch("src", packets[2:5])
        runtime.inject_batch("src", packets[5:])
        runtime.run(until=500.0)
        return packets, runtime

    @pytest.mark.parametrize("source", [LINEAR, BUFFERED, QUEUED, TEED])
    @pytest.mark.parametrize("disabled_bundle", [False, True])
    def test_no_registrations_and_no_annotations(
        self, source, disabled_bundle
    ):
        registry = _RecordingRegistry()
        obs = Observability(metrics=registry, enabled=False) \
            if disabled_bundle else None
        packets, runtime = self.drive(source, obs)
        assert registry.registrations == []
        assert registry.snapshot() == {}
        assert len(runtime.output) >= len(packets)
        for packet in packets + [r.packet for r in runtime.output]:
            assert "obs.ingress" not in packet.annotations
        if source is LINEAR and columnar.available():
            assert runtime.columnar_batches == 1

    def test_take_output_keeps_list_identity(self):
        runtime = Runtime(parse_config(LINEAR))
        output = runtime.output
        runtime.inject("src", udp_packet())
        assert len(runtime.take_output()) == 1
        assert runtime.output is output and not output
        runtime.inject_batch("src", [udp_packet(), udp_packet()])
        assert len(output) == 2

    def test_disabled_bundle_records_nothing(self):
        obs = Observability(enabled=False)
        runtime = Runtime(parse_config(LINEAR), obs=obs)
        runtime.inject("src", udp_packet())
        assert obs.metrics.snapshot() == {}
        assert len(runtime.output) == 1


class TestControllerInstrumentation:
    def request(self, client_id="mobile1"):
        return ClientRequest(
            client_id=client_id,
            role="client",
            config_source="""
                FromNetfront() ->
                IPFilter(allow udp port 1500) ->
                IPRewriter(pattern - - 172.16.15.133 - 0 0)
                -> dst :: ToNetfront();
            """,
            requirements=(
                "reach from internet udp -> client dst port 1500"
            ),
            owned_addresses=("172.16.15.133",),
            module_name="batcher",
        )

    def test_admission_latency_and_outcome_counters(self):
        obs = Observability()
        controller = Controller(figure3_network(), obs=obs)
        result = controller.request(self.request())
        assert result.accepted
        snap = obs.metrics.snapshot()
        hist = snap["controller_admission_seconds"]["values"][""]
        assert hist["count"] == 1
        assert hist["sum"] > 0.0
        outcomes = snap["controller_requests_total"]["values"]
        assert outcomes["outcome=accepted"] == 1

    def test_admission_produces_a_nested_span_tree(self):
        obs = Observability()
        controller = Controller(figure3_network(), obs=obs)
        controller.request(self.request())
        (root,) = obs.tracer.roots
        assert root.name == "admit"
        assert root.attrs["client_id"] == "mobile1"
        assert root.attrs["accepted"] is True
        assert root.find("compile") is not None

    def test_verdict_cache_feeds_the_shared_registry(self):
        obs = Observability()
        controller = Controller(figure3_network(), obs=obs)
        controller.request(self.request("mobile1"))
        snap = obs.metrics.snapshot()
        values = snap["cache_misses_total"]["values"]
        assert values.get("cache=verdict", 0) >= 1

    def test_stats_accessor_works_without_observability(self):
        controller = Controller(figure3_network())
        result = controller.request(self.request())
        assert result.accepted
        stats = controller.stats()
        assert stats["requests"]["accepted"] == 1
        assert stats["deployed_modules"] == 1
        assert "verdict_cache" in stats

    def drive_model_decisions(self, controller):
        """One of each: cold compile, commit splice, kill un-splice,
        explicit invalidation, out-of-band epoch bump, and a reach
        verdict anchored to a witness during the admission's trial."""
        assert controller.request(self.request()).accepted
        assert controller.kill("batcher")
        controller.invalidate_model_cache()
        controller.verify_snapshot()
        controller.network.bump_epoch()
        controller.verify_snapshot()

    def test_model_and_anchor_decisions_are_counted(self):
        obs = Observability()
        controller = Controller(
            figure3_network(), "reach from internet udp -> client",
            obs=obs,
        )
        self.drive_model_decisions(controller)
        snap = obs.metrics.snapshot()
        assert snap["controller_model_rebuilds_total"]["values"] == {
            "reason=cold": 1, "reason=invalidated": 1,
            "reason=signature": 1,
        }
        assert snap["controller_model_splices_total"]["values"] == {
            "op=commit": 1, "op=kill": 1,
        }
        anchors = snap["symexec_verdict_anchor_total"]["values"]
        assert anchors["kind=witness"] >= 1
        (root,) = obs.tracer.roots[:1]
        verify = root.find("verify")
        assert {"reused", "explored"} <= set(verify.attrs)

    def test_model_and_anchor_decisions_in_stats_without_obs(self):
        controller = Controller(
            figure3_network(), "reach from internet udp -> client",
        )
        self.drive_model_decisions(controller)
        stats = controller.stats()
        assert stats["model_rebuilds"] == {
            "cold": 1, "signature": 1, "invalidated": 1, "error": 0,
        }
        assert stats["model_splices"] == {"commit": 1, "kill": 1}
        assert stats["verification_cache"]["anchors"]["witness"] >= 1


class TestPlatformInstrumentation:
    def test_lifecycle_metrics_through_a_boot_and_suspend_cycle(self):
        obs = Observability()
        network = figure3_network()
        controller = Controller(network, obs=obs)
        result = controller.request(ClientRequest(
            client_id="mobile1",
            role="client",
            config_source="""
                FromNetfront() ->
                IPFilter(allow udp port 1500) ->
                IPRewriter(pattern - - 172.16.15.133 - 0 0)
                -> dst :: ToNetfront();
            """,
            requirements=(
                "reach from internet udp -> client dst port 1500"
            ),
            owned_addresses=("172.16.15.133",),
            module_name="batcher",
        ))
        assert result.accepted
        orchestrator = PlatformOrchestrator(network, obs=obs)
        orchestrator.provision_all()
        sim = orchestrator.sim_for(result.platform)
        sim.force_boot(result.module_id)
        sim.suspend_resume_cycle(result.module_id)
        snap = obs.metrics.snapshot()
        boots = snap["platform_boots_total"]["values"]
        assert boots["platform=%s" % result.platform] == 1
        suspends = snap["platform_suspends_total"]["values"]
        assert suspends["platform=%s" % result.platform] == 1
        resumes = snap["platform_resumes_total"]["values"]
        assert resumes["platform=%s" % result.platform] == 1
        lifecycle = snap["platform_lifecycle_seconds"]["values"]
        assert lifecycle["op=boot"]["count"] >= 1
        assert lifecycle["op=suspend"]["count"] >= 1
        assert lifecycle["op=resume"]["count"] >= 1
        assert "platform_resident_vms" in snap
        assert "platform_density_vms" in snap or \
            "platform_running_vms" in snap
