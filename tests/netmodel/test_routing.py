"""Tests for LPM routing tables."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.common.addr import parse_ip, prefix_range
from repro.common.intervals import IntervalSet
from repro.netmodel.routing import Route, RoutingTable


def table(*entries):
    t = RoutingTable()
    for prefix, port in entries:
        net, _, plen = prefix.partition("/")
        t.add(parse_ip(net), int(plen), port)
    return t


class TestLookup:
    def test_longest_prefix_wins(self):
        t = table(("10.0.0.0/8", 1), ("10.1.0.0/16", 2),
                  ("10.1.2.0/24", 3))
        assert t.lookup(parse_ip("10.1.2.3")) == 3
        assert t.lookup(parse_ip("10.1.9.9")) == 2
        assert t.lookup(parse_ip("10.9.9.9")) == 1

    def test_default_route(self):
        t = table(("0.0.0.0/0", 9), ("10.0.0.0/8", 1))
        assert t.lookup(parse_ip("8.8.8.8")) == 9
        assert t.lookup(parse_ip("10.0.0.1")) == 1

    def test_no_route_returns_none(self):
        t = table(("10.0.0.0/8", 1))
        assert t.lookup(parse_ip("11.0.0.0")) is None

    def test_host_bits_cleared_on_add(self):
        t = RoutingTable()
        t.add(parse_ip("10.1.2.3"), 8, 5)
        assert t.routes[0].network == parse_ip("10.0.0.0")

    def test_remove_port(self):
        t = table(("10.0.0.0/8", 1), ("11.0.0.0/8", 2))
        t.remove_port(1)
        assert t.lookup(parse_ip("10.0.0.1")) is None
        assert t.lookup(parse_ip("11.0.0.1")) == 2

    def test_constructor_accepts_routes(self):
        t = RoutingTable([Route(parse_ip("10.0.0.0"), 8, 1)])
        assert len(t) == 1


class TestSymbolicSplit:
    def test_branches_disjoint(self):
        t = table(("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("0.0.0.0/0", 3))
        branches = t.symbolic_split()
        for i, (_pa, sa) in enumerate(branches):
            for _pb, sb in branches[i + 1:]:
                assert not sa.overlaps(sb)

    def test_fully_shadowed_route_omitted(self):
        t = table(("10.0.0.0/8", 1), ("10.0.0.0/8", 1))
        # duplicate coverage: second branch empty and omitted
        assert len(t.symbolic_split()) == 1

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_split_agrees_with_lookup(self, addr):
        t = table(
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.2.0/24", 3),
            ("192.168.0.0/16", 4),
            ("0.0.0.0/0", 5),
        )
        expected = t.lookup(addr)
        hits = [
            port for port, allowed in t.symbolic_split()
            if addr in allowed
        ]
        if expected is None:
            assert hits == []
        else:
            assert hits == [expected]


def random_prefix(rng):
    """A /16../28 inside 10.0.0.0/16."""
    plen = rng.randrange(16, 29)
    network = (10 << 24) | rng.getrandbits(16)
    return network & ~((1 << (32 - plen)) - 1), plen


def random_table(rng):
    """Routes inside 10.0.0.0/16 with overlaps, duplicates (fully
    shadowed routes) and holes, so branches span several intervals."""
    t = RoutingTable()
    for port in range(rng.randrange(1, 40)):
        network, plen = random_prefix(rng)
        t.add(network, plen, port)
        if rng.random() < 0.2:
            t.add(network, plen, port + 100)  # shadowed by its twin
    if rng.random() < 0.5:
        t.add(0, 0, 999)
    return t


def random_domain(rng):
    intervals = []
    for _ in range(rng.randrange(1, 4)):
        low = (10 << 24) + rng.getrandbits(16) - 2000
        intervals.append((low, low + rng.choice((0, 7, 300, 5000))))
    return IntervalSet(intervals)


class TestOverlappingIndex:
    """``overlapping`` against the linear scan it replaces."""

    def reference(self, t, domain):
        return [
            index for index, (_port, allowed)
            in enumerate(t.symbolic_split())
            if not domain.intersect(allowed).is_empty()
        ]

    def test_matches_linear_scan_on_random_tables(self):
        rng = random.Random(7)
        shadowed = multi_interval = 0
        for _trial in range(150):
            t = random_table(rng)
            branches = t.symbolic_split()
            shadowed += len(t.routes) - len(branches)
            multi_interval += sum(
                len(allowed.intervals) > 1 for _port, allowed in branches)
            for _query in range(8):
                domain = random_domain(rng)
                assert t.overlapping(domain) == self.reference(t, domain)
        # The sample really has the awkward cases.
        assert shadowed > 0 and multi_interval > 0

    def test_follows_table_mutations(self):
        rng = random.Random(11)
        t = random_table(rng)
        for _step in range(40):
            if rng.random() < 0.7 or not t.routes:
                network, plen = random_prefix(rng)
                t.add(network, plen, rng.randrange(8))
            else:
                t.remove_port(rng.choice(t.routes).out_port)
            domain = random_domain(rng)
            assert t.overlapping(domain) == self.reference(t, domain)

    def test_empty_table_and_domain(self):
        assert RoutingTable().overlapping(IntervalSet.single(5)) == []
        t = table(("10.0.0.0/8", 1), ("0.0.0.0/0", 2))
        assert t.overlapping(IntervalSet.empty()) == []
        assert t.overlapping(IntervalSet.from_interval(0, 2 ** 32 - 1)) \
            == [0, 1]

    def test_seed_mode_never_builds_the_index(self):
        from repro.core import Controller
        from repro.netmodel.examples import star_network
        from repro.netmodel.symgraph import WIDE_SPLIT
        from repro.symexec.tuning import seed_mode

        policy = "\n".join(
            "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
            % (index + 1, index) for index in range(WIDE_SPLIT)
        )
        with seed_mode():
            controller = Controller(star_network(WIDE_SPLIT), policy)
            assert all(controller.verify_snapshot())
            hub = controller.network.node("r0").table
            assert len(hub.symbolic_split()) >= WIDE_SPLIT
            assert hub._index_cache is None
        # The same verification with the fast path on is what uses it.
        controller = Controller(star_network(WIDE_SPLIT), policy)
        assert all(controller.verify_snapshot())
        assert controller.network.node("r0").table._index_cache is not None
