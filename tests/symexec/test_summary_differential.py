"""Differential tests: summary-composed exploration is byte-for-byte
the seed engine.

Mirror of ``test_differential.py`` for the summary tier (compositional
transfer functions + segment replay): every scenario runs two ways --
through an engine carrying a :class:`SummaryCache` and through the
plain worklist -- and both must agree with the seed engine's recorded
output (see :mod:`tests.symexec.golden`) on every delivered and dropped
flow's canonical form, in the same order, with the same step count,
and on the final verdict.
"""

import pytest

from repro.click import parse_config
from repro.core import ClientRequest, Controller, ROLE_CLIENT
from repro.netmodel import NetworkCompiler
from repro.netmodel.examples import star_network
from repro.policy import parse_requirement
from repro.symexec import SummaryCache, SymbolicEngine, SymGraph
from repro.symexec.reachability import ReachabilityChecker
from tests.symexec import golden
from tests.symexec.test_differential import (
    ADMISSIONS,
    CLICK_SCENARIOS,
    FIGURE4_SOURCE,
    NETWORK_SCENARIOS,
    admission_golden,
    admit,
    canonical_exploration,
    network_golden,
)

#: One shared cache across all scenarios: cross-scenario reuse of
#: element programs must not leak state between explorations.
SHARED_CACHE = SummaryCache()


def explore_network_summarized(net, requirement_text, cache):
    compiled = NetworkCompiler(net).compile()
    requirement = parse_requirement(requirement_text)
    engine = compiled.engine(summaries=cache)
    exploration = compiled.explore_from(
        requirement.origin.node, requirement.origin.flow, engine=engine
    )
    verdict = ReachabilityChecker(compiled.resolver).check(
        requirement, exploration
    )
    return canonical_exploration(exploration), (
        verdict.satisfied, verdict.reason
    )


class TestNetworkExplorations:
    @pytest.mark.parametrize(
        "index", range(len(NETWORK_SCENARIOS)),
        ids=[req for _, req in NETWORK_SCENARIOS],
    )
    def test_summarized_matches_seed(self, index):
        factory, requirement = NETWORK_SCENARIOS[index]
        summarized = explore_network_summarized(
            factory(), requirement, SHARED_CACHE
        )
        plain = explore_network_summarized(factory(), requirement, None)
        assert summarized == plain
        seed = network_golden(index)
        exploration, verdict = summarized
        assert golden.digest(exploration) == seed["exploration"]
        assert golden.plain(verdict) == seed["verdict"]


class TestClickExplorations:
    @pytest.mark.parametrize("name", sorted(CLICK_SCENARIOS))
    def test_summarized_matches_seed(self, name):
        source = CLICK_SCENARIOS[name]

        def run(cache):
            config = parse_config(source)
            engine = SymbolicEngine(
                SymGraph.from_click(config), summaries=cache
            )
            return canonical_exploration(
                engine.inject(config.sources()[0])
            )

        summarized = run(SHARED_CACHE)
        plain = run(None)
        assert summarized == plain
        assert golden.digest(summarized) == \
            golden.explorations()["click"][name]


#: The operator policy and request of the repeat-admission sequence.
REPEAT_POLICY = (
    "reach from internet udp dst net 192.0.1.0/24 -> platform0\n"
    "reach from internet udp dst net 192.0.3.0/24 -> platform2"
)
REPEAT_REQUEST = ClientRequest(
    client_id="alice",
    role=ROLE_CLIENT,
    config_source=FIGURE4_SOURCE,
    requirements="reach from client -> internet",
    owned_addresses=("172.16.15.133",),
    module_name="batcher",
)


def repeat_admission():
    """``(accepted, reason)`` of one dry run on a fresh star controller."""
    controller = Controller(star_network(4), REPEAT_POLICY)
    result = controller.request(REPEAT_REQUEST, dry_run=True)
    return result.accepted, result.reason


class TestControllerAdmission:
    @pytest.mark.parametrize("label,expected", [
        ("accepted", True), ("rejected", False),
    ], ids=["accepted", "rejected"])
    def test_summarized_admission_agrees(self, label, expected):
        summarized = admit(ADMISSIONS[label])
        assert summarized == admission_golden(label)
        assert summarized[0] is expected

    def test_repeat_admissions_are_cache_stable(self):
        # The second identical dry run hits the verdict cache for the
        # operator policy; its outcome must match the first exactly,
        # and the seed engine's cold controller must agree.
        controller = Controller(star_network(4), REPEAT_POLICY)
        first = controller.request(REPEAT_REQUEST, dry_run=True)
        second = controller.request(REPEAT_REQUEST, dry_run=True)
        assert (first.accepted, first.reason) == \
            (second.accepted, second.reason)
        seed = tuple(golden.decisions()["repeat_admission"])
        assert (first.accepted, first.reason) == seed

    def test_snapshot_verdicts_survive_cache_warmup(self):
        policy = "\n".join(
            "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
            % (index + 1, index)
            for index in range(6)
        )
        controller = Controller(star_network(6), policy)
        cold = [
            (bool(r), str(r.requirement), r.reason)
            for r in controller.verify_snapshot()
        ]
        warm = [
            (bool(r), str(r.requirement), r.reason)
            for r in controller.verify_snapshot()
        ]
        assert cold == warm
        stats = controller.stats()["verification_cache"]
        assert stats["hits"] >= 6  # the warm pass reused every verdict
