"""Unit and property tests for the symbolic engine's cost layers.

``test_differential.py`` holds the engine to the seed engine's recorded
output end to end; these tests pin the individual mechanisms -- that
copy-on-write forks never leak writes between flows, that interval
interning really canonicalizes, and that the element-model memos
invalidate on mutation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import fields as F
from repro.common import intervals
from repro.common.intervals import IntervalSet
from repro.netmodel.flowtable import Action, FlowTable
from repro.netmodel.routing import RoutingTable
from repro.symexec.engine import SymFlow, VarFactory, WriteRecord
from repro.symexec.sympacket import SymPacket
from repro.symexec.tuning import counters, stats


_FACTORY = VarFactory("t")


def fresh_flow():
    return SymFlow(SymPacket.fresh(VarFactory()))


def route(table, dotted, plen, port):
    from repro.common.addr import parse_ip

    table.add(parse_ip(dotted), plen, port)


#: A short program of divergent mutations: (which flow, what to do).
#: Drawn by hypothesis to interleave writes on both sides of a fork.
_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["parent", "child"]),
        st.sampled_from(["constrain", "write", "record", "trace"]),
        st.integers(min_value=0, max_value=200),
    ),
    min_size=1,
    max_size=12,
)


def _flow_state(flow):
    """Everything a flow owns, as plain values (not identities)."""
    return (
        {uid: v.intervals for uid, v in flow.domains.items()},
        list(flow.trace),
        list(flow.writes),
        flow.alive,
    )


def _apply(flow, action, value, node, var):
    if action == "constrain":
        flow.constrain(
            flow.packet.var(F.TP_DST),
            IntervalSet.from_interval(value, value + 10),
        )
    elif action == "write":
        # The same SymVar goes to both the real flow and its shadow
        # replay, so the logged uids match.
        flow.write_field(F.IP_SRC, var, node)
    elif action == "record":
        flow.record_write(
            WriteRecord(len(flow.trace), node, F.TP_SRC, None, None)
        )
    else:  # trace -- mimic the engine: own the history, then append
        if flow._history_shared:
            flow._own_history()
        flow.trace.append((node, value, ()))


class TestCopyOnWriteForking:
    """fork() shares storage, but divergence must never alias."""

    @settings(max_examples=60, deadline=None)
    @given(_ACTIONS)
    def test_forked_flows_never_alias(self, actions):
        parent = fresh_flow()
        parent.constrain(
            parent.packet.var(F.IP_PROTO), IntervalSet.single(17)
        )
        child = parent.fork()
        # Snapshot both sides *by value* right after the fork...
        parent_before = _flow_state(parent)
        child_before = _flow_state(child)
        # ...then replay an arbitrary interleaving of divergent
        # mutations and check each side only saw its own.
        mutate = {"parent": parent, "child": child}
        shadow = {"parent": parent.fork(), "child": child.fork()}
        for index, (who, action, value) in enumerate(actions):
            node = "n%d" % index
            var = _FACTORY.fresh_for_field(F.IP_SRC)
            other = "child" if who == "parent" else "parent"
            other_before = _flow_state(mutate[other])
            _apply(mutate[who], action, value, node, var)
            _apply(shadow[who], action, value, node, var)
            # The untouched side must be exactly as it was.
            assert _flow_state(mutate[other]) == other_before
        # And each mutated side matches a replay on a private copy.
        assert _flow_state(parent) == _flow_state(shadow["parent"])
        assert _flow_state(child) == _flow_state(shadow["child"])
        del parent_before, child_before

    def test_fork_shares_then_copies_domains(self):
        parent = fresh_flow()
        var = parent.packet.var(F.TP_DST)
        parent.constrain(var, IntervalSet.from_interval(0, 100))
        child = parent.fork()
        assert child.domains is parent.domains  # shared until a write
        before = dict(parent.domains)
        child.constrain(var, IntervalSet.from_interval(0, 10))
        assert child.domains is not parent.domains
        assert {u: v for u, v in parent.domains.items()} == before

    def test_fork_shares_then_copies_history(self):
        parent = fresh_flow()
        parent.write_field(
            F.IP_SRC, _FACTORY.fresh_for_field(F.IP_SRC), "a"
        )
        child = parent.fork()
        assert child.trace is parent.trace
        assert child.writes is parent.writes
        child.write_field(
            F.IP_DST, _FACTORY.fresh_for_field(F.IP_DST), "b"
        )
        assert child.writes is not parent.writes
        assert len(parent.writes) == 1 and len(child.writes) == 2

    def test_fork_counts(self):
        before = counters()["forks"]
        flow = fresh_flow()
        flow.fork()
        assert counters()["forks"] == before + 1


class TestIntervalInterning:
    def test_intern_is_idempotent(self):
        a = intervals.intern(IntervalSet.from_interval(5, 9))
        b = intervals.intern(IntervalSet.from_interval(5, 9))
        assert a is b

    def test_cached_ops_return_identical_objects(self):
        left = IntervalSet.from_interval(0, 100)
        right = IntervalSet.from_interval(50, 200)
        assert left.intersect(right) is left.intersect(right)
        assert left.union(right) is left.union(right)
        assert left.subtract(right) is left.subtract(right)

    def test_results_equal_either_way(self):
        left = IntervalSet.from_interval(0, 100)
        right = IntervalSet.from_interval(50, 200)

        def results():
            return (
                left.intersect(right).intervals,
                left.union(right).intervals,
                left.subtract(right).intervals,
            )

        results()  # the miss path stores all three
        misses = intervals.result_cache_stats()["misses"]
        cached = results()
        assert intervals.result_cache_stats()["misses"] == misses
        intervals.clear_result_cache()
        fresh = results()
        assert intervals.result_cache_stats()["misses"] == misses + 3
        assert cached == fresh

    def test_stats_report_hits(self):
        intervals.clear_result_cache()
        left = IntervalSet.from_interval(3, 33)
        right = IntervalSet.from_interval(22, 44)
        left.intersect(right)
        before = intervals.result_cache_stats()["hits"]
        left.intersect(right)
        assert intervals.result_cache_stats()["hits"] == before + 1


class TestElementModelMemos:
    def test_routing_split_memoized_until_mutation(self):
        table = RoutingTable()
        route(table, "10.0.0.0", 8, 1)
        route(table, "10.1.0.0", 16, 2)
        first = table.symbolic_split()
        assert table.symbolic_split() is first
        route(table, "192.168.0.0", 16, 3)
        second = table.symbolic_split()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_flowtable_branches_memoized_until_mutation(self):
        table = FlowTable()
        rule = table.install(
            priority=10,
            match={F.IP_DST: IntervalSet.single(42)},
            action=Action.to_module("m"),
        )
        first = table.symbolic_branches()
        assert table.symbolic_branches() is first
        table.remove(rule)
        assert table.symbolic_branches() == []

    def test_memo_hits_counted(self):
        table = RoutingTable()
        route(table, "10.0.0.0", 8, 1)
        table.symbolic_split()
        before = counters()["memo_hits"]
        table.symbolic_split()
        assert counters()["memo_hits"] == before + 1


class TestTuningSurface:
    def test_stats_shape(self):
        out = stats()
        for key in ("forks", "prunes", "memo_hits", "cow_copies",
                    "interval_cache", "negation_memo_hits"):
            assert key in out

    def test_counters_monotonic_under_exploration(self):
        from repro.netmodel import NetworkCompiler
        from repro.netmodel.examples import figure3_network

        from repro.policy import parse_requirement

        before = counters()
        compiled = NetworkCompiler(figure3_network()).compile()
        origin = parse_requirement(
            "reach from internet -> client"
        ).origin
        compiled.explore_from(origin.node, origin.flow)
        after = counters()
        assert after["forks"] > before["forks"]
        assert after["prunes"] >= before["prunes"]
        assert after["memo_hits"] >= before["memo_hits"]


class TestColdAdmissionWork:
    """The cost layers' work, pinned by exact counts.

    One cold dry-run admission of the paper's running example (filter,
    rewrite, shape) under a bidirectional reach policy on Figure 10's
    largest published point, the 63-middlebox linear network.  A
    reintroduced eager copy, a lost memo or a missed prune moves these
    counts on every machine, where a timing ratio would only drift.
    """

    #: The engine's own counts.  ``prunes`` counts only forks a model
    #: declined after a test of its own: routers and the platform demux
    #: offer a flow only the branches their split index says it meets,
    #: so what remains are ``flows_not_matching``'s two.  ``memo_hits``
    #: is one per router arrival (383) and one per platform arrival
    #: (5): the demux memo holds the egress complement and is checked
    #: against the flow table's version without asking the table.
    EXPECTED = {
        "forks": 412,
        "prunes": 2,
        "memo_hits": 388,
        "cow_copies": 812,
        "interval_misses": 40,
    }

    def admit(self):
        from repro.core import ClientRequest, Controller, ROLE_CLIENT
        from repro.netmodel.examples import linear_network
        from tests.symexec.test_differential import (
            ADMISSIONS,
            FIGURE4_SOURCE,
        )

        controller = Controller(linear_network(63))
        request = ClientRequest(
            client_id="mobile0",
            role=ROLE_CLIENT,
            config_source=FIGURE4_SOURCE,
            requirements=ADMISSIONS["accepted"],
            owned_addresses=("172.16.15.133",),
            module_name="batcher0",
        )
        # A cleared interval cache makes every result a miss once.
        intervals.clear_result_cache()
        before = counters()
        misses = intervals.result_cache_stats()["misses"]
        result = controller.request(request, dry_run=True)
        assert result.accepted, result.reason
        work = {k: v - before[k] for k, v in counters().items()}
        work["interval_misses"] = (
            intervals.result_cache_stats()["misses"] - misses
        )
        return work

    def test_cold_admission_on_linear63_does_pinned_work(self):
        assert self.admit() == self.EXPECTED
