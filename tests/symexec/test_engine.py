"""Tests for the symbolic exploration engine."""

import random

import pytest

from repro.click import parse_config
from repro.common import fields as F
from repro.common.errors import VerificationError
from repro.common.intervals import IntervalSet
from repro.policy.flowspec import parse_flowspec
from repro.symexec import SymbolicEngine, SymGraph
from repro.symexec.engine import SymFlow
from repro.symexec.models import flows_matching


def engine_for(source, namespace=""):
    graph = SymGraph.from_click(parse_config(source), namespace)
    return SymbolicEngine(graph)


class TestBasicExploration:
    def test_passthrough_delivers(self):
        eng = engine_for("src :: FromNetfront(); src -> ToNetfront();")
        ex = eng.inject("src")
        assert len(ex.delivered) == 1
        assert not ex.dropped

    def test_discard_drops(self):
        eng = engine_for("src :: FromNetfront(); src -> Discard();")
        ex = eng.inject("src")
        assert not ex.delivered
        assert len(ex.dropped) == 1

    def test_trace_records_path(self):
        eng = engine_for(
            "src :: FromNetfront(); c :: Counter();"
            "dst :: ToNetfront(); src -> c -> dst;"
        )
        ex = eng.inject("src")
        assert [t.node for t in ex.delivered[0].trace] == [
            "src", "c", "dst",
        ]

    def test_arrivals_indexed_by_port(self):
        eng = engine_for(
            "src :: FromNetfront(); dst :: ToNetfront(); src -> dst;"
        )
        ex = eng.inject("src")
        assert len(ex.flows_at("dst", 0)) == 1
        assert ex.flows_at("dst", 3) == []

    def test_namespace_prefixes_nodes(self):
        eng = engine_for(
            "src :: FromNetfront(); src -> ToNetfront();", "mod"
        )
        ex = eng.inject("mod/src")
        assert ex.delivered[0].trace[0].node == "mod/src"

    def test_inject_unknown_node(self):
        eng = engine_for("src :: FromNetfront(); src -> ToNetfront();")
        with pytest.raises(VerificationError):
            eng.inject("nope")


class TestFlowSplitting:
    def test_classifier_splits_per_pattern(self):
        eng = engine_for(
            "src :: FromNetfront(); c :: IPClassifier(udp, tcp);"
            "a :: ToNetfront(); b :: ToNetfront();"
            "src -> c; c[0] -> a; c[1] -> b;"
        )
        ex = eng.inject("src")
        at_a = ex.flows_at("a")
        at_b = ex.flows_at("b")
        assert len(at_a) == 1 and len(at_b) == 1
        assert at_a[0].field_domain(F.IP_PROTO).singleton_value() == F.UDP
        assert at_b[0].field_domain(F.IP_PROTO).singleton_value() == F.TCP

    def test_unsat_branches_pruned(self):
        eng = engine_for(
            "src :: FromNetfront();"
            "f1 :: IPFilter(allow udp); f2 :: IPFilter(allow tcp);"
            "dst :: ToNetfront(); src -> f1 -> f2 -> dst;"
        )
        ex = eng.inject("src")
        assert not ex.delivered  # udp AND tcp is unsatisfiable

    def test_sequential_rule_semantics(self):
        # A packet matching rule 1 must not also flow out via rule 2.
        eng = engine_for(
            "src :: FromNetfront();"
            "c :: IPClassifier(dst port 53, udp);"
            "a :: ToNetfront(); b :: ToNetfront();"
            "src -> c; c[0] -> a; c[1] -> b;"
        )
        ex = eng.inject("src")
        # Flows on output 1 (udp) must exclude dst port 53.
        for flow in ex.flows_at("b"):
            assert 53 not in flow.field_domain(F.TP_DST)


class TestWriteTracking:
    def test_write_log_records_node_and_field(self):
        eng = engine_for(
            "src :: FromNetfront(); s :: SetTPDst(80);"
            "dst :: ToNetfront(); src -> s -> dst;"
        )
        ex = eng.inject("src")
        flow = ex.delivered[0]
        assert [(w.node, w.field) for w in flow.writes] == [
            ("s", F.TP_DST)
        ]
        assert flow.field_domain(F.TP_DST).singleton_value() == 80

    def test_written_between(self):
        eng = engine_for(
            "src :: FromNetfront(); s :: SetTPDst(80);"
            "dst :: ToNetfront(); src -> s -> dst;"
        )
        flow = eng.inject("src").delivered[0]
        # trace: src=0, s=1, dst=2; the write happened at s (index 1).
        assert flow.written_between(0, 2, F.TP_DST)
        assert not flow.written_between(2, 3, F.TP_DST)
        assert not flow.written_between(0, 1, F.TP_DST)


class TestLoopProtection:
    def test_cyclic_graph_detected(self):
        graph = SymGraph()
        graph.add_node("a", lambda ctx, n, p, f: [(0, f)])
        graph.add_node("b", lambda ctx, n, p, f: [(0, f)])
        graph.connect("a", 0, "b", 0)
        graph.connect("b", 0, "a", 0)
        eng = SymbolicEngine(graph, max_hops=50)
        with pytest.raises(VerificationError):
            eng.inject("a")


class TestInjectDeparture:
    def test_origin_recorded_at_port_minus_one(self):
        graph = SymGraph()
        graph.add_node("host", lambda ctx, n, p, f: [], is_sink=True)
        graph.add_node("dst", lambda ctx, n, p, f: [], is_sink=True)
        graph.connect("host", 0, "dst", 0)
        eng = SymbolicEngine(graph)
        ex = eng.inject_departure("host")
        assert len(ex.delivered) == 1
        trace = ex.delivered[0].trace
        assert trace[0] == trace[0]._replace(node="host", port=-1)
        assert trace[1].node == "dst"

    def test_departure_with_no_links_drops(self):
        graph = SymGraph()
        graph.add_node("lonely", lambda ctx, n, p, f: [], is_sink=True)
        eng = SymbolicEngine(graph)
        ex = eng.inject_departure("lonely")
        assert len(ex.dropped) == 1


class TestConnectedOutputs:
    """``connected_outputs`` against the scan over every edge that it
    replaced."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_edge_scan_under_random_rewiring(self, seed):
        rng = random.Random(seed)
        graph = SymGraph()
        names = ["n%d" % index for index in range(8)]
        for name in names:
            graph.add_node(name, lambda ctx, n, p, f: [])
        live = list(names)
        for _step in range(300):
            move = rng.random()
            if move < 0.75 and len(live) >= 2:
                # A new edge, or a rewire when the port is wired.
                graph.connect(rng.choice(live), rng.randrange(6),
                              rng.choice(live), rng.randrange(3))
            elif move < 0.9 and live:
                gone = rng.sample(live, min(rng.randrange(1, 4), len(live)))
                graph.remove_nodes(gone)
                live = [name for name in live if name not in gone]
            else:
                name = rng.choice(names)
                if name not in graph.models:
                    graph.add_node(name, lambda ctx, n, p, f: [])
                    live.append(name)
            for name in names:
                assert graph.connected_outputs(name) == sorted(
                    port for (node, port) in graph.edges if node == name)

    def test_result_is_a_copy(self):
        graph = SymGraph()
        graph.add_node("a", lambda ctx, n, p, f: [])
        graph.add_node("b", lambda ctx, n, p, f: [])
        graph.connect("a", 1, "b", 0)
        graph.connected_outputs("a").append(7)
        assert graph.connected_outputs("a") == [1]


class TestFlowSpecInterop:
    def test_matches_spec_subset_semantics(self):
        eng = engine_for(
            "src :: FromNetfront(); f :: IPFilter(allow udp dst port 53);"
            "dst :: ToNetfront(); src -> f -> dst;"
        )
        flow = eng.inject("src").delivered[0]
        assert flow.matches_spec(parse_flowspec("udp"))
        assert flow.matches_spec(parse_flowspec("udp dst port 53"))
        assert not flow.matches_spec(parse_flowspec("tcp"))
        # dst port 0-100 is implied; dst port 54 is not possible.
        assert not flow.intersects_spec(parse_flowspec("dst port 54"))

    def test_flows_matching_forks_per_clause(self):
        eng = engine_for("src :: FromNetfront(); src -> ToNetfront();")
        base = SymFlow(eng.fresh_packet())
        forks = flows_matching(base, parse_flowspec("port 53"))
        assert len(forks) == 2  # src-port clause and dst-port clause
