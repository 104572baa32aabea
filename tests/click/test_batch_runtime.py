"""Tests for the batched dataplane fast path (Runtime.inject_batch).

The plan compiler, the batch executor under each accounting mode
(none, deferred, exact), deep-chain iteration limits, and the
scheduling/error surface of ``inject_batch`` are covered here;
element-by-element batch/scalar equivalence lives in
``test_batch_differential.py``.
"""

import pytest

from repro.click import Packet, Runtime, UDP, parse_config
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError, SimulationError
from repro.obs import Observability

FIREWALL = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> CheckIPHeader()
        -> IPFilter(allow udp, allow tcp dst port 80)
        -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
        -> out;
"""

SPLIT = """
    src :: FromNetfront();
    c :: IPClassifier(udp, tcp);
    u :: ToNetfront();
    t :: ToNetfront();
    src -> c;
    c[0] -> u;
    c[1] -> t;
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


def chain_config(length):
    """src -> SetIPTTL() * length -> out, as one linear chain."""
    lines = ["src :: FromNetfront();", "out :: ToNetfront();"]
    names = ["src"]
    for i in range(length):
        lines.append("e%d :: SetIPTTL(32);" % i)
        names.append("e%d" % i)
    names.append("out")
    lines.append(" -> ".join(names) + ";")
    return "\n".join(lines)


class TestBatchExecution:
    def test_batch_matches_scalar_on_firewall(self):
        scalar = Runtime(parse_config(FIREWALL))
        batch = Runtime(parse_config(FIREWALL))
        packets = [udp_packet(tp_src=i) for i in range(100)]
        for packet in packets:
            scalar.inject("src", packet.copy())
        batch.inject_batch("src", [p.copy() for p in packets])
        assert len(batch.output) == len(scalar.output) == 100
        for ours, theirs in zip(batch.output, scalar.output):
            assert ours.element == theirs.element
            assert ours.packet.fields == theirs.packet.fields
        assert batch.dropped == scalar.dropped == 0

    def test_classifier_split_partitions_batch(self):
        from repro.click.packet import TCP

        runtime = Runtime(parse_config(SPLIT))
        batch = [udp_packet(ip_proto=UDP if i % 3 else TCP, tp_src=i)
                 for i in range(30)]
        runtime.inject_batch("src", batch)
        by_sink = {}
        for record in runtime.output:
            by_sink.setdefault(record.element, []).append(
                record.packet.fields["tp_src"]
            )
        assert by_sink["u"] == [i for i in range(30) if i % 3]
        assert by_sink["t"] == [i for i in range(30) if not i % 3]

    def test_empty_batch_is_a_no_op(self):
        runtime = Runtime(parse_config(FIREWALL))
        runtime.inject_batch("src", [])
        assert not runtime.output
        assert runtime.pending_timers() == 0

    def test_unknown_element_raises(self):
        runtime = Runtime(parse_config(FIREWALL))
        with pytest.raises(ConfigError):
            runtime.inject_batch("nope", [udp_packet()])

    def test_inject_batch_at_defers_to_simulated_time(self):
        runtime = Runtime(parse_config(FIREWALL))
        runtime.inject_batch("src", [udp_packet(), udp_packet()], at=5.0)
        assert not runtime.output  # nothing until the clock reaches 5.0
        runtime.run(until=10.0)
        assert len(runtime.output) == 2
        assert all(record.time == 5.0 for record in runtime.output)

    def test_inject_batch_in_the_past_raises(self):
        runtime = Runtime(parse_config(FIREWALL))
        runtime.run(until=10.0)
        with pytest.raises(SimulationError):
            runtime.inject_batch("src", [udp_packet()], at=5.0)

    def test_batch_accepts_any_iterable(self):
        runtime = Runtime(parse_config(FIREWALL))
        runtime.inject_batch("src", (udp_packet() for _ in range(7)))
        assert len(runtime.output) == 7


class TestSegmentCompiler:
    def test_linear_chain_compiles_to_one_segment(self):
        runtime = Runtime(parse_config(FIREWALL))
        plan = runtime.segment_plan("src")
        assert plan.names == (
            "src", "CheckIPHeader@1", "IPFilter@2", "IPRewriter@3", "out",
        )
        assert plan.terminal == ("sink", "out")

    def test_split_point_ends_the_segment(self):
        runtime = Runtime(parse_config(SPLIT))
        plan = runtime.segment_plan("src")
        assert plan.names == ("src", "c")
        assert plan.continue_ports[-1] is None  # generic dispatch
        assert plan.terminal is None
        # Both branch targets were precompiled as partition roots.
        assert runtime.segment_plan("u") is not None
        assert runtime.segment_plan("t") is not None

    def test_mid_graph_entry_compiles_lazily(self):
        runtime = Runtime(parse_config(FIREWALL))
        assert runtime.segment_plan("IPFilter@2") is None
        runtime.inject_batch("IPFilter@2", [udp_packet()])
        assert runtime.segment_plan("IPFilter@2").names == (
            "IPFilter@2", "IPRewriter@3", "out",
        )
        assert len(runtime.output) == 1


class TestDeepChains:
    """Regression: 500-element linear chains used to blow the stack."""

    LENGTH = 500

    def test_scalar_path_survives_a_deep_chain(self):
        runtime = Runtime(parse_config(chain_config(self.LENGTH)))
        runtime.inject("src", udp_packet())
        assert len(runtime.output) == 1

    def test_batch_path_survives_a_deep_chain(self):
        runtime = Runtime(parse_config(chain_config(self.LENGTH)))
        runtime.inject_batch("src", [udp_packet() for _ in range(10)])
        assert len(runtime.output) == 10

    def test_observed_paths_survive_a_deep_chain(self):
        source = chain_config(self.LENGTH)
        obs = Observability()
        runtime = Runtime(parse_config(source), obs=obs)
        runtime.inject("src", udp_packet())
        runtime.inject_batch("src", [udp_packet() for _ in range(5)])
        assert len(runtime.output) == 6
        snap = obs.metrics.snapshot()
        values = snap["dataplane_packets_total"]["values"]
        assert values["element=e250"] == 6

    def test_exact_mode_survives_a_deep_chain(self):
        # A Tee forces the exact per-hop counting mode, whose worklist
        # routing must be iterative too.
        source = "t :: Tee(2); b :: ToNetfront();\n" + chain_config(
            self.LENGTH
        ).replace(" -> out;", " -> t;") + "\nt[0] -> out; t[1] -> b;"
        obs = Observability()
        runtime = Runtime(parse_config(source), obs=obs)
        runtime.inject("src", udp_packet())
        assert len(runtime.output) == 2


class TestObservedBatches:
    def test_deferred_obs_batch_equals_scalar_metrics(self):
        scalar_obs, batch_obs = Observability(), Observability()
        scalar = Runtime(parse_config(FIREWALL), obs=scalar_obs)
        batch = Runtime(parse_config(FIREWALL), obs=batch_obs)
        assert scalar.segment_plan("src").accounting == "deferred"
        packets = [
            udp_packet(tp_src=i, ip_ttl=0 if i % 5 == 0 else 64)
            for i in range(50)
        ]
        for packet in packets:
            scalar.inject("src", packet.copy())
        batch.inject_batch("src", [p.copy() for p in packets])
        assert len(batch.output) == len(scalar.output)
        assert batch_obs.metrics.snapshot() == scalar_obs.metrics.snapshot()

    def test_exact_obs_batch_equals_scalar_metrics(self):
        source = """
            src :: FromNetfront();
            t :: Tee(2);
            a :: ToNetfront();
            b :: ToNetfront();
            src -> t; t[0] -> a; t[1] -> b;
        """
        scalar_obs, batch_obs = Observability(), Observability()
        scalar = Runtime(parse_config(source), obs=scalar_obs)
        batch = Runtime(parse_config(source), obs=batch_obs)
        assert scalar.segment_plan("src").accounting == "exact"
        packets = [udp_packet(tp_src=i) for i in range(20)]
        for packet in packets:
            scalar.inject("src", packet.copy())
        batch.inject_batch("src", [p.copy() for p in packets])
        assert len(batch.output) == len(scalar.output) == 40
        assert batch_obs.metrics.snapshot() == scalar_obs.metrics.snapshot()

    def test_deferred_obs_batch_counts_buffer_entries_as_pass(self):
        source = """
            src :: FromNetfront();
            out :: ToNetfront();
            src -> TimedUnqueue(0.5, 100) -> out;
        """
        obs = Observability()
        runtime = Runtime(parse_config(source), obs=obs)
        runtime.inject_batch("src", [udp_packet() for _ in range(8)])
        values = obs.metrics.snapshot()["dataplane_packets_total"]["values"]
        assert values["element=src"] == 8
        # No drops were recorded for the buffering element.
        drops = obs.metrics.snapshot().get("dataplane_drops_total", {})
        assert all(v == 0 for v in drops.get("values", {}).values())
        runtime.run(until=1.0)
        assert len(runtime.output) == 8
        latency = obs.metrics.snapshot()[
            "dataplane_egress_latency_seconds"
        ]
        assert latency["values"][""]["count"] == 8
