"""Tests for the network-to-symbolic-graph compiler."""

import pytest

from repro.click import parse_config
from repro.common import fields as F
from repro.common.addr import parse_ip
from repro.common.errors import VerificationError
from repro.common.intervals import FULL_RANGE, IntervalSet
from repro.netmodel import NetworkCompiler
from repro.netmodel.symgraph import MODULE_INGRESS_BASE
from repro.netmodel.examples import figure3_network
from repro.policy import parse_requirement
from repro.policy.grammar import NodeRef, KIND_NAME
from repro.symexec.reachability import ReachabilityChecker

BATCHER = """
    src :: FromNetfront();
    dst :: ToNetfront();
    src -> IPFilter(allow udp port 1500)
        -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
        -> dst;
"""


def deploy_batcher(net, platform="platform3", name="batcher"):
    p = net.node(platform)
    address = p.allocate_address()
    p.deploy(name, address, parse_config(BATCHER))
    net.compute_routes()
    return address


class TestCompilation:
    def test_compiles_plain_topology(self, figure3):
        compiled = NetworkCompiler(figure3).compile()
        assert "r1" in compiled.graph.models
        assert compiled.graph.sinks["clients"]
        assert not compiled.graph.sinks["r1"]

    def test_module_nodes_namespaced(self, figure3):
        deploy_batcher(figure3)
        compiled = NetworkCompiler(figure3).compile()
        assert "batcher/src" in compiled.graph.models
        assert "batcher/dst" in compiled.graph.models
        assert not compiled.graph.sinks["batcher/dst"]

    def test_module_without_source_rejected(self, figure3):
        p = figure3.node("platform3")
        p.deploy("bad", p.allocate_address(),
                 parse_config("x :: Counter();"))
        with pytest.raises(VerificationError):
            NetworkCompiler(figure3).compile()


class TestEndToEndExploration:
    def test_internet_reaches_client_through_module(self, figure3):
        deploy_batcher(figure3)
        compiled = NetworkCompiler(figure3).compile()
        req = parse_requirement(
            "reach from internet udp -> batcher:dst:0 -> client"
        )
        ex = compiled.explore_from(req.origin.node, req.origin.flow)
        checker = ReachabilityChecker(compiled.resolver)
        assert checker.check(req, ex).satisfied

    def test_private_platforms_unreachable(self, figure3):
        deploy_batcher(figure3, platform="platform1", name="hidden")
        compiled = NetworkCompiler(figure3).compile()
        req = parse_requirement(
            "reach from internet udp -> hidden:dst:0"
        )
        ex = compiled.explore_from(req.origin.node, req.origin.flow)
        checker = ReachabilityChecker(compiled.resolver)
        assert not checker.check(req, ex).satisfied

    def test_clients_can_reach_internet(self, figure3):
        compiled = NetworkCompiler(figure3).compile()
        req = parse_requirement("reach from client -> internet")
        ex = compiled.explore_from(req.origin.node, req.origin.flow)
        checker = ReachabilityChecker(compiled.resolver)
        assert checker.check(req, ex).satisfied

    def test_platform_demux_constrains_destination(self, figure3):
        address = deploy_batcher(figure3)
        compiled = NetworkCompiler(figure3).compile()
        engine = compiled.engine()
        ref = NodeRef(kind="internet")
        ex = compiled.explore_from(
            parse_requirement("reach from internet -> client").origin.node,
            None,
            engine=engine,
        )
        for flow in ex.flows_at("batcher/src"):
            entry = [t for t in flow.trace
                     if t.node == "batcher/src"][0]
            from repro.symexec.reachability import domain_at

            domain = domain_at(flow, entry.snapshot, F.IP_DST)
            assert domain.is_subset(
                __import__("repro.common.intervals",
                           fromlist=["IntervalSet"]
                           ).IntervalSet.single(address)
            )


class TestPlatformDemux:
    """The demux memo follows the platform: deploy/undeploy reach it
    through the flow table's version, (un)splice by resetting it."""

    def observed(self, state):
        demux = state.demux()
        return (
            [(port, residual) for port, residual, _rest in demux.branches],
            demux.split.meeting(FULL_RANGE),
            demux.egress,
        )

    def expected(self, compiled, platform):
        """A from-scratch answer: one ``ip_dst`` branch per module
        both deployed and spliced; every deployed address off egress."""
        modules = platform.modules
        steered = sorted(
            modules[name][0] for name in compiled.modules if name in modules
        )
        return (
            [(MODULE_INGRESS_BASE + address,
              {F.IP_DST: IntervalSet.single(address)})
             for address in steered],
            list(range(len(steered))),
            FULL_RANGE.subtract(IntervalSet.from_values(
                address for address, _config in modules.values())),
        )

    def test_branches_and_egress_follow_every_change(self, figure3):
        compiled = NetworkCompiler(figure3).compile()
        platform = figure3.node("platform3")
        state = compiled.graph.payloads["platform3"]
        config = parse_config(BATCHER)
        first, second = (platform.allocate_address() for _ in range(2))

        def check():
            seen = self.observed(state)
            assert seen == self.observed(state)  # the memoized answer
            branches, meeting, egress = seen
            assert (sorted(branches), meeting, egress) \
                == self.expected(compiled, platform)
            return seen

        check()
        platform.deploy("a", first, config)  # no splice: egress only
        assert check()[0] == [] and first not in check()[2]
        compiled.splice("platform3", "a", first, config)
        assert [port for port, _r in check()[0]] == [
            MODULE_INGRESS_BASE + first]
        platform.deploy("b", second, config)
        compiled.splice("platform3", "b", second, config)
        assert len(check()[0]) == 2
        compiled.unsplice("a")  # still deployed: egress keeps it
        assert len(check()[0]) == 1 and first not in check()[2]
        platform.undeploy("a")
        assert first in check()[2] and second not in check()[2]
        compiled.unsplice("b")
        platform.undeploy("b")
        assert check() == ([], [], FULL_RANGE)


class TestInjectionPoints:
    def test_internet_excludes_internal_sources(self, figure3):
        compiled = NetworkCompiler(figure3).compile()
        points = compiled.injection_points(NodeRef(kind="internet"))
        (node, source_set), = points
        assert node == "internet"
        assert parse_ip("172.16.15.133") not in source_set
        assert parse_ip("8.8.8.8") in source_set

    def test_client_constrained_to_subnet(self, figure3):
        compiled = NetworkCompiler(figure3).compile()
        (node, source_set), = compiled.injection_points(
            NodeRef(kind="client")
        )
        assert node == "clients"
        assert parse_ip("172.16.0.1") in source_set
        assert parse_ip("8.8.8.8") not in source_set

    def test_unknown_name_resolver_raises(self, figure3):
        compiled = NetworkCompiler(figure3).compile()
        with pytest.raises(VerificationError):
            compiled.resolver(NodeRef(kind=KIND_NAME, name="ghost"))
