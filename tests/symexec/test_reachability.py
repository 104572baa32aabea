"""Tests for reach-requirement checking over explorations."""

from repro.click import parse_config
from repro.policy import parse_requirement
from repro.symexec import SymbolicEngine, SymGraph
from repro.symexec.reachability import ReachabilityChecker, domain_at
from tests.symexec import golden


def check(source, requirement_text, namespace="mod", inject="mod/src"):
    cfg = parse_config(source)
    graph = SymGraph.from_click(cfg, namespace)
    engine = SymbolicEngine(graph)
    exploration = engine.inject(inject)
    checker = ReachabilityChecker()
    return checker.check(parse_requirement(requirement_text), exploration)


FIGURE4 = """
    src :: FromNetfront();
    dst :: ToNetfront();
    src -> IPFilter(allow udp port 1500)
        -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
        -> TimedUnqueue(120, 100)
        -> dst;
"""


class TestReachability:
    def test_satisfied_requirement(self):
        result = check(
            FIGURE4,
            "reach from internet udp"
            " -> mod:dst:0 dst 172.16.15.133 const proto && payload",
        )
        assert result.satisfied
        assert result.witnesses

    def test_flow_spec_must_be_guaranteed(self):
        # The module rewrites dst to .133, so a different address can
        # never be guaranteed at the sink.
        result = check(
            FIGURE4,
            "reach from internet -> mod:dst:0 dst 172.16.15.134",
        )
        assert not result.satisfied
        assert "no symbolic flow" in result.reason

    def test_const_violation_detected(self):
        # ip_dst IS rewritten by the module: a dst invariant must fail.
        result = check(
            FIGURE4,
            "reach from internet -> mod:dst:0 const dst",
        )
        assert not result.satisfied
        assert result.violations
        violation = result.violations[0]
        assert violation.field == "ip_dst"
        assert any("IPRewriter" in w for w in violation.writers)

    def test_waypoint_ordering_enforced(self):
        source = """
            src :: FromNetfront();
            a :: Counter(); b :: Counter();
            dst :: ToNetfront();
            src -> a -> b -> dst;
        """
        forward = check(
            source, "reach from internet -> mod:a:0 -> mod:b:0"
        )
        backward = check(
            source, "reach from internet -> mod:b:0 -> mod:a:0"
        )
        assert forward.satisfied
        assert not backward.satisfied

    def test_unreachable_element(self):
        result = check(FIGURE4, "reach from internet -> mod:nowhere:0")
        assert not result.satisfied

    def test_port_must_match(self):
        result = check(FIGURE4, "reach from internet -> mod:dst:3")
        assert not result.satisfied

    def test_dropped_flows_still_count_for_waypoints(self):
        # A reach to an intermediate element is satisfied even if the
        # flow later dies.
        source = """
            src :: FromNetfront();
            c :: Counter();
            src -> c -> Discard();
        """
        result = check(source, "reach from internet -> mod:c:0")
        assert result.satisfied

    def test_invariant_across_two_hops(self):
        result = check(
            FIGURE4,
            "reach from internet udp"
            " -> mod:TimedUnqueue@3:0"
            " -> mod:dst:0 const dst && proto && payload",
        )
        # dst was rewritten BEFORE the TimedUnqueue: the hop from the
        # batcher to the sink keeps it constant, so this passes.
        assert result.satisfied


#: TCP crosses the waypoint ``w``; every other protocol bypasses it.
SPLIT = """
    src :: FromNetfront();
    c :: IPClassifier(tcp, -);
    w :: Counter();
    dst :: ToNetfront();
    src -> c;
    c[0] -> w -> dst;
    c[1] -> dst;
"""


def always_verdicts():
    """``(satisfied, reason)`` of ``always`` through the waypoint, for
    a tcp and a udp target flow."""
    results = [
        check(SPLIT, "always from internet -> mod:w:0 -> mod:dst:0 %s"
              % proto)
        for proto in ("tcp", "udp")
    ]
    return [(r.satisfied, r.reason) for r in results]


class TestAlwaysWithTargetFlow:
    """``always`` with a flow on the target hop: only flows that may
    carry target-matching packets (overlap) must cross the waypoint."""

    def test_target_flow_overlapping_only_waypoint_flows(self):
        result = check(
            SPLIT, "always from internet -> mod:w:0 -> mod:dst:0 tcp"
        )
        assert result.satisfied
        assert result.witnesses == []

    def test_target_flow_overlapping_a_bypass(self):
        result = check(
            SPLIT, "always from internet -> mod:w:0 -> mod:dst:0 udp"
        )
        assert not result.satisfied
        [bypass] = result.witnesses
        nodes = [entry.node for entry in bypass.trace]
        assert nodes[-1] == "mod/dst" and "mod/w" not in nodes
        # The violation is the non-TCP flow, which may carry UDP.
        proto = domain_at(bypass, bypass.trace[-1].snapshot, "ip_proto")
        assert 17 in proto and 6 not in proto
        assert "without traversing" in result.reason

    def test_verdicts_match_the_seed_engine(self):
        verdicts = always_verdicts()
        assert [satisfied for satisfied, _ in verdicts] == [True, False]
        assert golden.plain(verdicts) == golden.explorations()["always"]
