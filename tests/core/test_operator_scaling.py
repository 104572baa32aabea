"""Operator-side verification does O(1) topology work per requirement.

The operator's own operations -- a full ``verify_snapshot`` after the
model is dropped, and a policy edit -- check one requirement per
platform on a star, so any per-requirement scan of the platforms makes
them quadratic.  These tests count the work itself (calls, not
seconds) at three star sizes:

* address ownership is gathered once per compiled network, not once
  per internet-origin requirement;
* the hub router's split is searched, not tested branch by branch;
* a policy edit parses only the statement it changes.
"""

import pytest

from repro.common.intervals import IntervalSet
from repro.core import Controller
from repro.core import controller as controller_module
from repro.netmodel import topology
from repro.netmodel.examples import star_network
from repro.policy import grammar

SIZES = (25, 50, 100)


def policy_lines(n):
    return [
        "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
        % (index + 1, index)
        for index in range(n)
    ]


class Calls:
    """Counts calls to methods patched with :meth:`counting`."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.counts = {}

    def counting(self, owner, name, label, original=None):
        original = original or owner.__dict__[name]

        def counted(*args, **kwargs):
            self.counts[label] = self.counts.get(label, 0) + 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, counted, raising=False)

    def reset(self):
        self.counts.clear()


@pytest.fixture
def calls(monkeypatch):
    calls = Calls(monkeypatch)
    for cls in (topology.Node, topology.Host, topology.ClientSubnet,
                topology.Internet, topology.Platform):
        if "owned_addresses" in cls.__dict__:
            calls.counting(cls, "owned_addresses", "owned_addresses")
    # Every branch test at a router is one ``intersect``: the per-branch
    # precheck, or the constrain of a branch the flow can take.
    calls.counting(IntervalSet, "intersect", "intersect")
    # Statements are parsed by the grammar and by the controller's
    # policy edit.
    parse = grammar.parse_requirement
    for module in (grammar, controller_module):
        calls.counting(module, "parse_requirement", "parse_requirement",
                       original=parse)
    return calls


def full_verify_counts(calls, n):
    controller = Controller(star_network(n), "\n".join(policy_lines(n)))
    results = controller.verify_snapshot()
    assert len(results) == n and all(results)
    calls.reset()
    controller.invalidate_model_cache()
    assert all(controller.verify_snapshot())
    return dict(calls.counts)


class TestFullVerifyIsLinear:
    def test_counts_grow_linearly_with_platforms(self, calls):
        counts = {n: full_verify_counts(calls, n) for n in SIZES}
        for label in ("owned_addresses", "intersect"):
            series = [counts[n][label] for n in SIZES]
            # Linear: a bounded amount of work per platform...
            assert max(series[i] / SIZES[i] for i in range(3)) <= 10, (
                label, series)
            # ...so doubling the star at most doubles it (plus the
            # fixed nodes); quadratic work would quadruple it.
            assert counts[100][label] / counts[50][label] <= 2.2, (
                label, series)
            assert counts[50][label] / counts[25][label] <= 2.2, (
                label, series)

    def test_ownership_is_read_once_per_node(self, calls):
        # Compiling and resolving a star of n platforms reads each of
        # its n + 3 nodes' ownership a bounded number of times.
        for n in SIZES:
            assert full_verify_counts(calls, n)["owned_addresses"] <= \
                2 * (n + 3)


class TestPolicyEditParsesTheEdit:
    @pytest.mark.parametrize("n", SIZES)
    def test_one_line_edit_parses_one_statement(self, calls, n):
        lines = policy_lines(n)
        controller = Controller(star_network(n), "\n".join(lines))
        controller.verify_snapshot()
        controller.set_operator_requirements("\n".join(lines[1:]))
        calls.reset()
        controller.set_operator_requirements("\n".join(lines))
        assert calls.counts.get("parse_requirement", 0) == 1
        assert all(controller.verify_snapshot())

    def test_unchanged_policy_parses_nothing(self, calls):
        lines = policy_lines(25)
        controller = Controller(star_network(25), "\n".join(lines))
        calls.reset()
        controller.set_operator_requirements("\n".join(lines))
        assert calls.counts.get("parse_requirement", 0) == 0
