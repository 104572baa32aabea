"""Differential tests: the engine is byte-for-byte the seed engine.

The engine's cost layers -- copy-on-write forking, interned interval
domains, memoized element models, infeasible-branch pruning -- claim
to change *cost only*.  These tests hold it to that against the seed
engine's recorded output (``golden_explorations.json``, see
:mod:`tests.symexec.golden`): every scenario must agree on every
delivered and dropped flow's trace, write log, domains and liveness
(via :func:`canonical_flow`, which renames variable uids in first-seen
order so process-global uid allocation cannot hide or fake a
difference), in the same order, with the same step count, and on the
verdict and its reason.
"""

import pytest

from repro.click import parse_config
from repro.core import ClientRequest, Controller, ROLE_CLIENT
from repro.netmodel import NetworkCompiler
from repro.netmodel.examples import figure3_network, linear_network
from repro.policy import parse_requirement
from repro.symexec import SymbolicEngine, SymGraph, canonical_flow
from repro.symexec.reachability import ReachabilityChecker
from tests.symexec import golden

FIGURE4_SOURCE = """
    FromNetfront() ->
    IPFilter(allow udp port 1500) ->
    IPRewriter(pattern - - 172.16.15.133 - 0 0)
    -> TimedUnqueue(120, 100)
    -> dst :: ToNetfront();
"""


def canonical_exploration(exploration):
    """Order-preserving canonical form of a whole exploration."""
    return (
        tuple(canonical_flow(f) for f in exploration.delivered),
        tuple(canonical_flow(f) for f in exploration.dropped),
        exploration.steps,
    )


def explore_network(net, requirement_text):
    compiled = NetworkCompiler(net).compile()
    requirement = parse_requirement(requirement_text)
    exploration = compiled.explore_from(
        requirement.origin.node, requirement.origin.flow
    )
    verdict = ReachabilityChecker(compiled.resolver).check(
        requirement, exploration
    )
    return canonical_exploration(exploration), (
        verdict.satisfied, verdict.reason
    )


#: (network factory, requirement) -- one entry per policy shape the
#: test suite exercises: plain reach, flow-constrained reach, reverse
#: direction, isolation that holds, isolation that fails with
#: witnesses, and a vacuously-isolated flow class.
NETWORK_SCENARIOS = [
    (figure3_network, "reach from internet -> client"),
    (figure3_network, "reach from internet udp -> client dst port 1500"),
    (figure3_network, "reach from client -> internet"),
    (figure3_network, "isolate from internet -> platform1"),
    (figure3_network, "isolate from internet -> client"),
    (figure3_network,
     "isolate from internet udp dst port 1 -> client dst port 2"),
    (lambda: linear_network(15), "reach from internet udp -> client"),
    (lambda: linear_network(15), "reach from client -> internet"),
]


def network_golden(index):
    """The pinned entry for ``NETWORK_SCENARIOS[index]``."""
    entry = golden.explorations()["network"][index]
    assert entry["requirement"] == NETWORK_SCENARIOS[index][1]
    return entry


class TestNetworkExplorations:
    @pytest.mark.parametrize(
        "index", range(len(NETWORK_SCENARIOS)),
        ids=[req for _, req in NETWORK_SCENARIOS],
    )
    def test_seed_and_optimized_agree(self, index):
        factory, requirement = NETWORK_SCENARIOS[index]
        seed = network_golden(index)
        optimized, verdict = explore_network(factory(), requirement)
        assert golden.digest(optimized) == seed["exploration"]
        assert golden.plain(verdict) == seed["verdict"]


#: Click configurations covering every element-model family the engine
#: ships: filtering, classification fan-out, header rewrites, TTL
#: decrement, paint-based branching, and encap/decap write records.
CLICK_SCENARIOS = {
    "filter-rewrite": """
        src :: FromNetfront();
        src -> IPFilter(allow udp, allow tcp dst port 80)
            -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
            -> ToNetfront();
    """,
    "classifier-fanout": """
        src :: FromNetfront();
        c :: IPClassifier(udp, tcp, -);
        a :: ToNetfront(); b :: ToNetfront(); d :: Discard();
        src -> c; c[0] -> a; c[1] -> b; c[2] -> d;
    """,
    "ttl-and-paint": """
        src :: FromNetfront();
        src -> DecIPTTL()
            -> Paint(2)
            -> PaintSwitch()
            -> ToNetfront();
    """,
    "encap-decap": """
        src :: FromNetfront();
        src -> IPEncap(4, 1.2.3.4, 5.6.7.8)
            -> IPDecap()
            -> ToNetfront();
    """,
    "echo-swap": """
        src :: FromNetfront();
        src -> IPFilter(allow udp)
            -> EchoResponder()
            -> ToNetfront();
    """,
}


def explore_click(source):
    config = parse_config(source)
    engine = SymbolicEngine(SymGraph.from_click(config))
    return canonical_exploration(engine.inject(config.sources()[0]))


class TestClickExplorations:
    @pytest.mark.parametrize("name", sorted(CLICK_SCENARIOS))
    def test_seed_and_optimized_agree(self, name):
        optimized = explore_click(CLICK_SCENARIOS[name])
        assert golden.digest(optimized) == \
            golden.explorations()["click"][name]


#: The two cold admissions of the Figure 4 module: one the engine
#: accepts, and one it must reject -- the module filters to udp port
#: 1500, so tcp cannot reach it -- for a stated reason.
ADMISSIONS = {
    "accepted": (
        "reach from internet udp -> client dst port 1500\n"
        "reach from client -> internet"
    ),
    "rejected": "reach from internet tcp -> client dst port 80",
}


def admit(requirements):
    """One cold admission on a fresh Figure 3 controller."""
    controller = Controller(figure3_network())
    result = controller.request(ClientRequest(
        client_id="alice",
        role=ROLE_CLIENT,
        config_source=FIGURE4_SOURCE,
        requirements=requirements,
        owned_addresses=("172.16.15.133",),
        module_name="batcher",
    ), dry_run=True)
    return result.accepted, result.reason


def admission_golden(label):
    """The pinned ``(accepted, reason)`` of ``ADMISSIONS[label]``."""
    return tuple(golden.explorations()["admission"][label])


class TestControllerAdmission:
    def test_accepted_admission_agrees(self):
        optimized = admit(ADMISSIONS["accepted"])
        assert optimized == admission_golden("accepted")
        assert optimized[0] is True

    def test_rejected_admission_agrees(self):
        optimized = admit(ADMISSIONS["rejected"])
        assert optimized == admission_golden("rejected")
        assert optimized[0] is False
