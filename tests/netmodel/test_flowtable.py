"""Tests for the OpenFlow-style flow table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.click import Packet, TCP, UDP
from repro.common import fields as F
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError
from repro.common.intervals import IntervalSet
from repro.netmodel.flowtable import (
    ACTION_TO_MODULE,
    Action,
    FlowTable,
    module_steering_rule,
)


def single(addr_text):
    return IntervalSet.single(parse_ip(addr_text))


class TestRules:
    def test_priority_order(self):
        table = FlowTable()
        table.install(10, {F.IP_DST: single("10.0.0.1")},
                      Action.drop())
        high = table.install(
            50, {F.IP_DST: single("10.0.0.1")}, Action.output(3)
        )
        rule = table.lookup(Packet(ip_dst=parse_ip("10.0.0.1")))
        assert rule is high

    def test_tie_breaks_by_insertion(self):
        table = FlowTable()
        first = table.install(10, {}, Action.output(1))
        table.install(10, {}, Action.output(2))
        assert table.lookup(Packet()) is first

    def test_deferred_sort_preserves_order_semantics(self):
        # Regression for the batched-sort optimization: bulk installs
        # defer the priority sort to the next read, which must yield
        # exactly the order per-insert sorting produced -- including
        # stable tie-breaking by insertion order.
        eager, lazy = FlowTable(), FlowTable()
        priorities = [10, 50, 10, 100, 50, 1, 100, 10]
        for index, priority in enumerate(priorities):
            eager.install(priority, {}, Action.output(index))
            eager.rules  # force a sort after every install
            lazy.install(priority, {}, Action.output(index))
        assert lazy.rules == eager.rules
        assert lazy.lookup(Packet()) == eager.rules[0]

    def test_bulk_install_then_read(self):
        table = FlowTable()
        for i in range(500):
            table.install(
                100, {F.IP_DST: IntervalSet.single(i)},
                Action.to_module("m%d" % i), cookie="m%d" % i,
            )
        # One low-priority catch-all installed mid-stream must sort
        # below every steering rule.
        table.install(1, {}, Action.drop())
        for i in range(0, 500, 97):
            rule = table.lookup(Packet(ip_dst=i))
            assert rule.action.target == "m%d" % i
        assert table.rules[-1].action.kind == "drop"
        assert table.remove_by_cookie("m42") == 1
        assert table.lookup(Packet(ip_dst=42)).action.kind == "drop"

    def test_multi_field_match(self):
        table = FlowTable()
        table.install(10, {
            F.IP_DST: single("10.0.0.1"),
            F.IP_PROTO: IntervalSet.single(UDP),
            F.TP_DST: IntervalSet.single(53),
        }, Action.to_module("dns"))
        hit = Packet(ip_dst=parse_ip("10.0.0.1"), ip_proto=UDP,
                     tp_dst=53)
        miss = Packet(ip_dst=parse_ip("10.0.0.1"), ip_proto=TCP,
                      tp_dst=53)
        assert table.lookup(hit).action.target == "dns"
        assert table.lookup(miss) is None

    def test_empty_match_is_catch_all(self):
        table = FlowTable()
        table.install(1, {}, Action.output(0))
        assert table.lookup(Packet(ip_dst=12345)) is not None

    def test_invalid_match_field(self):
        table = FlowTable()
        with pytest.raises(ConfigError):
            table.install(1, {"payload": IntervalSet.single(1)},
                          Action.drop())

    def test_remove(self):
        table = FlowTable()
        rule = table.install(1, {}, Action.drop())
        assert table.remove(rule)
        assert not table.remove(rule)
        assert len(table) == 0

    def test_remove_by_cookie(self):
        table = FlowTable()
        table.install(1, {}, Action.drop(), cookie="m1")
        table.install(2, {}, Action.drop(), cookie="m1")
        table.install(3, {}, Action.drop(), cookie="m2")
        assert table.remove_by_cookie("m1") == 2
        assert len(table) == 1


class TestSymbolicBranches:
    def test_disjoint_single_field_rules(self):
        table = FlowTable()
        module_steering_rule(table, parse_ip("10.0.0.1"), "a")
        module_steering_rule(table, parse_ip("10.0.0.2"), "b")
        branches = table.symbolic_branches()
        assert len(branches) == 2
        domains = [residual[F.IP_DST] for _a, residual in branches]
        assert not domains[0].overlaps(domains[1])

    def test_shadowed_rule_pruned(self):
        table = FlowTable()
        table.install(
            100, {F.IP_DST: single("10.0.0.1")}, Action.output(1)
        )
        table.install(
            10, {F.IP_DST: single("10.0.0.1")}, Action.output(2)
        )
        branches = table.symbolic_branches()
        assert len(branches) == 1
        assert branches[0][0].target == 1

    def test_partial_shadow_subtracted(self):
        table = FlowTable()
        table.install(
            100, {F.IP_DST: single("10.0.0.1")}, Action.drop()
        )
        low, high = parse_ip("10.0.0.0"), parse_ip("10.0.0.255")
        table.install(
            10,
            {F.IP_DST: IntervalSet.from_interval(low, high)},
            Action.output(1),
        )
        branches = table.symbolic_branches()
        wide = [b for a, b in branches if a.kind == "output"][0]
        assert parse_ip("10.0.0.1") not in wide[F.IP_DST]
        assert parse_ip("10.0.0.2") in wide[F.IP_DST]

    @settings(max_examples=40, deadline=None)
    @given(addr=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_branches_agree_with_lookup_for_steering(self, addr):
        table = FlowTable()
        module_steering_rule(table, parse_ip("10.0.0.1"), "a")
        module_steering_rule(table, parse_ip("10.0.0.2"), "b")
        rule = table.lookup(Packet(ip_dst=addr))
        hits = [
            action.target
            for action, residual in table.symbolic_branches()
            if all(
                addr in allowed
                for name, allowed in residual.items()
                if name == F.IP_DST
            )
        ]
        if rule is None:
            assert hits == []
        else:
            assert hits == [rule.action.target]


def quadratic_branches(table):
    """The O(rules^2) reference: each rule's match minus every earlier
    single-field rule, one subtraction at a time."""
    rules = table.rules
    branches = []
    for index, rule in enumerate(rules):
        residual = dict(rule.match)
        dead = False
        for earlier in rules[:index]:
            earlier_match = earlier.match_dict()
            if len(earlier_match) != 1:
                continue  # conservative: keep the branch whole
            (name, shadow), = earlier_match.items()
            if name not in residual:
                continue  # rule is broader on this field; keep
            residual[name] = residual[name].subtract(shadow)
            if residual[name].is_empty():
                dead = True
                break
        if not dead:
            branches.append((rule.action, residual))
    return branches


small_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    ).map(lambda pair: (min(pair), max(pair))),
    max_size=3,
).map(IntervalSet)
#: Rules on one to three of three fields: single-field shadows,
#: multi-field shadows that must not be subtracted, rules broader on a
#: field than the shadows before them, empty matches and empty sets.
random_rules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.dictionaries(
            st.sampled_from([F.IP_DST, F.IP_PROTO, F.TP_DST]),
            small_sets,
            max_size=3,
        ),
    ),
    max_size=20,
)


class TestOnePassBranches:
    @settings(max_examples=200, deadline=None)
    @given(rules=random_rules)
    def test_equals_the_quadratic_reference(self, rules):
        table = FlowTable()
        for number, (priority, match) in enumerate(rules):
            table.install(priority, match, Action.output(number))
        assert table.symbolic_branches() == quadratic_branches(table)

    def test_worked_example(self):
        table = FlowTable()
        wide = IntervalSet.from_interval(0, 40)
        table.install(9, {F.IP_DST: IntervalSet.from_interval(0, 9)},
                      Action.output(1))
        table.install(8, {F.IP_DST: IntervalSet.from_interval(5, 20),
                          F.TP_DST: IntervalSet.single(80)},
                      Action.output(2))
        table.install(7, {F.TP_DST: wide}, Action.output(3))
        table.install(6, {F.IP_DST: IntervalSet.from_interval(0, 30)},
                      Action.output(4))
        table.install(5, {F.IP_DST: IntervalSet.from_interval(3, 8),
                          F.TP_DST: IntervalSet.single(80)},
                      Action.output(5))
        branches = table.symbolic_branches()
        assert branches == quadratic_branches(table)
        targets = [action.target for action, _residual in branches]
        # The multi-field rule 2 shadows nothing (rule 4 keeps 10-20);
        # rule 3 does not test ip_dst and keeps it whole; rule 5's
        # ip_dst is covered by rules 1 and 4, and it dies.
        assert targets == [1, 2, 3, 4]
        residual = dict((a.target, r) for a, r in branches)
        assert residual[2][F.IP_DST] == IntervalSet.from_interval(10, 20)
        assert residual[4][F.IP_DST] == IntervalSet.from_interval(10, 30)


class TestSteeringHelper:
    def test_cookie_is_module_name(self):
        table = FlowTable()
        rule = module_steering_rule(table, parse_ip("10.0.0.1"), "m")
        assert rule.cookie == "m"
        assert rule.action.kind == ACTION_TO_MODULE
