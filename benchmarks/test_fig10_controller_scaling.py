"""Figure 10: static-analysis time vs operator network size.

Paper: checking a client request takes "compilation" (building the
verifiable model) plus "checking" (symbolic execution); both scale
linearly with the number of middleboxes (1..1023), with compilation
dominating.  SYMNET checks a 1,000-box network in ~1.3 s.

Our absolute times are faster (no Haskell toolchain -- model
construction is Python object instantiation), but the *shape* is the
claim: both phases must grow linearly.

Section 4.3 re-verifies the whole snapshot at every change, so the
operator's own operations must scale the same way: the operator-side
sweep times a full re-verification and a one-line policy edit on a
star of 25..200 platforms (one requirement per platform) and asserts
linearity on counted work, never on time.
"""

import math
import time

from _report import fmt, print_table
from repro.common.intervals import IntervalSet
from repro.core import ClientRequest, Controller, ROLE_CLIENT
from repro.core import controller as controller_module
from repro.netmodel import topology
from repro.netmodel.examples import (
    figure3_network, linear_network, star_network,
)
from repro.netmodel.symgraph import NetworkCompiler
from repro.policy import grammar, parse_requirement
from repro.symexec.reachability import ReachabilityChecker

SIZES = (1, 3, 7, 15, 31, 63, 127, 255, 511)
PLATFORMS = (25, 50, 100, 200)


def measure_one(n_middleboxes):
    network = linear_network(n_middleboxes)
    requirement = parse_requirement("reach from internet -> client")
    started = time.perf_counter()
    compiled = NetworkCompiler(network).compile()
    compile_s = time.perf_counter() - started
    started = time.perf_counter()
    exploration = compiled.explore_from(
        requirement.origin.node, requirement.origin.flow
    )
    result = ReachabilityChecker(compiled.resolver).check(
        requirement, exploration
    )
    check_s = time.perf_counter() - started
    assert result.satisfied
    return compile_s, check_s


def sweep():
    return [(n,) + measure_one(n) for n in SIZES]


def test_fig10_static_analysis_scaling(benchmark):
    series = benchmark.pedantic(sweep, rounds=3, iterations=1)
    rows = [
        (n, fmt(c * 1e3, 2), fmt(k * 1e3, 2), fmt((c + k) * 1e3, 2))
        for n, c, k in series
    ]
    print_table(
        "Figure 10: static analysis time vs #middleboxes",
        ("middleboxes", "compile (ms)", "check (ms)", "total (ms)"),
        rows,
        note="Paper: linear growth; compilation dominates; 1,000 boxes"
             " check in ~1.3 s on their setup.",
    )
    totals = {n: c + k for n, c, k in series}
    # Linear shape: growing 511/15 = 34x in size must grow time by
    # less than ~80x (allows constant overheads + noise) and more
    # than ~8x (i.e. clearly not constant).
    growth = totals[511] / totals[15]
    assert 8 <= growth <= 80, growth
    checks = {n: k for n, _c, k in series}
    assert checks[511] > checks[63] > checks[15]


def test_fig10_figure3_request_latency(benchmark):
    """Section 6.1: one request on the Figure 3 topology.

    Paper: 101 ms to compile the Haskell rules, 5 ms to analyse.
    Ours is faster in absolute terms; what must hold is that the
    whole decision stays interactive (well under a second).
    """

    def run():
        controller = Controller(figure3_network())
        result = controller.request(ClientRequest(
            client_id="mobile1",
            role=ROLE_CLIENT,
            config_source="""
                FromNetfront() ->
                IPFilter(allow udp port 1500) ->
                IPRewriter(pattern - - 172.16.15.133 - 0 0)
                -> TimedUnqueue(120, 100)
                -> dst :: ToNetfront();
            """,
            requirements="reach from internet udp"
                         " -> client dst port 1500",
            owned_addresses=("172.16.15.133",),
            module_name="batcher",
        ))
        assert result.accepted
        return result

    result = benchmark(run)
    print_table(
        "Section 6.1: request decision latency (Figure 3 topology)",
        ("phase", "measured (ms)", "paper (ms)"),
        [
            ("compile", fmt(result.compile_seconds * 1e3, 2), "101"),
            ("check", fmt(result.check_seconds * 1e3, 2), "5"),
        ],
        note="Interactive either way: checking happens only at module "
             "install time, never per packet.",
    )
    assert result.compile_seconds + result.check_seconds < 1.0


def test_fig10_admission_fast_path_cold_vs_warm(benchmark):
    """Admission fast path: the first request pays a full network
    compile; later requests graft only their own module branch onto
    the cached model, so compile time collapses.
    """
    network = linear_network(63)
    controller = Controller(network)

    def make_request(index):
        return ClientRequest(
            client_id="mobile%d" % index,
            role=ROLE_CLIENT,
            config_source="""
                FromNetfront() ->
                IPFilter(allow udp port 1500) ->
                IPRewriter(pattern - - 172.16.15.133 - 0 0)
                -> TimedUnqueue(120, 100)
                -> dst :: ToNetfront();
            """,
            requirements="reach from internet udp"
                         " -> client dst port 1500",
            owned_addresses=("172.16.15.133",),
            module_name="batcher%d" % index,
        )

    cold = controller.request(make_request(0), dry_run=True)
    assert cold.accepted

    counter = iter(range(1, 10_000))

    def warm_request():
        result = controller.request(
            make_request(next(counter)), dry_run=True
        )
        assert result.accepted
        return result

    warm = benchmark(warm_request)
    print_table(
        "Admission fast path: cold vs warm request"
        " (63-middlebox linear network)",
        ("phase", "cold (ms)", "warm (ms)"),
        [
            ("compile", fmt(cold.compile_seconds * 1e3, 2),
             fmt(warm.compile_seconds * 1e3, 2)),
            ("check", fmt(cold.check_seconds * 1e3, 2),
             fmt(warm.check_seconds * 1e3, 2)),
        ],
        note="Warm compile is the incremental module graft only; the"
             " operator network model is reused across requests.",
    )
    # The tentpole claim: warm compile is measurably cheaper than the
    # cold full-network compile.
    assert warm.compile_seconds < cold.compile_seconds * 0.5, (
        warm.compile_seconds, cold.compile_seconds
    )
    # Decisions themselves are unchanged by the cache.
    assert warm.platform == cold.platform
    assert warm.sandboxed == cold.sandboxed


def _star_policy(platforms):
    return [
        "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
        % (index + 1, index)
        for index in range(platforms)
    ]


def _count_calls(monkeypatch, counts):
    """Count the per-requirement work a quadratic operator path does:
    ownership reads, interval intersections (one per router branch
    test) and statement parses."""

    def counting(owner, name, label, original=None):
        original = original or owner.__dict__[name]

        def counted(*args, **kwargs):
            counts[label] = counts.get(label, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted, raising=False)

    for cls in (topology.Node, topology.Host, topology.ClientSubnet,
                topology.Internet, topology.Platform):
        if "owned_addresses" in cls.__dict__:
            counting(cls, "owned_addresses", "owned")
    counting(IntervalSet, "intersect", "intersect")
    parse = grammar.parse_requirement
    for module in (grammar, controller_module):
        counting(module, "parse_requirement", "parsed", original=parse)


def measure_operator(platforms, counts=None, repeat=3):
    """``(full_verify_s, edit_s, work)`` on a primed star, best of
    ``repeat``.  With ``counts`` (the dict :func:`_count_calls` fills),
    ``work`` holds what the last full verify and edit did."""
    lines = _star_policy(platforms)
    controller = Controller(star_network(platforms), "\n".join(lines))
    assert all(controller.verify_snapshot())
    full_s = edit_s = float("inf")
    work = {}
    for _round in range(repeat):
        if counts is not None:
            counts.clear()
        started = time.perf_counter()
        controller.invalidate_model_cache()
        results = controller.verify_snapshot()
        full_s = min(full_s, time.perf_counter() - started)
        assert len(results) == platforms and all(results)
        if counts is not None:
            work["full"] = dict(counts)
        controller.set_operator_requirements("\n".join(lines[1:]))
        controller.verify_snapshot()
        if counts is not None:
            counts.clear()
        started = time.perf_counter()
        controller.set_operator_requirements("\n".join(lines))
        assert all(controller.verify_snapshot())
        edit_s = min(edit_s, time.perf_counter() - started)
        if counts is not None:
            work["edit"] = dict(counts)
    return full_s, edit_s, work


def _slope(xs, ys):
    """Least-squares slope of log(y) on log(x): 1 is linear."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx)


def test_fig10_operator_side_scaling(benchmark, monkeypatch, capsys):
    """The operator's re-verification is linear in platforms, and a
    one-line policy edit parses one statement.
    """

    def sweep_operator():
        return {p: measure_operator(p)[:2] for p in PLATFORMS}

    timings = benchmark.pedantic(sweep_operator, rounds=3, iterations=1)
    counts = {}
    _count_calls(monkeypatch, counts)
    work = {p: measure_operator(p, counts, repeat=1)[2] for p in PLATFORMS}
    full_slope = _slope(PLATFORMS, [timings[p][0] for p in PLATFORMS])
    edit_slope = _slope(PLATFORMS, [timings[p][1] for p in PLATFORMS])
    test_slope = _slope(
        PLATFORMS, [work[p]["full"]["intersect"] for p in PLATFORMS])
    rows = [
        (p, fmt(timings[p][0] * 1e3, 2), fmt(timings[p][1] * 1e3, 2),
         work[p]["full"]["intersect"], work[p]["full"]["owned"],
         work[p]["edit"].get("parsed", 0))
        for p in PLATFORMS
    ]
    # Printed past the capture so every benchmark run logs the slope.
    with capsys.disabled():
        print_table(
            "Figure 10, operator side: re-verification vs #platforms",
            ("platforms", "full verify (ms)", "edit (ms)",
             "branch tests", "ownership reads", "edit parses"),
            rows,
            note="log-log slope (1 = linear): full verify %.2f, edit "
                 "%.2f, branch tests %.2f.  Star topology, one "
                 "requirement per platform; the edit retracts and "
                 "restores one line." % (full_slope, edit_slope,
                                         test_slope),
        )
    for label in ("intersect", "owned"):
        series = [work[p]["full"][label] for p in PLATFORMS]
        for smaller, larger in zip(series, series[1:]):
            # Doubling the platforms at most doubles the work (plus
            # the fixed nodes); per-requirement O(P) would quadruple it.
            assert larger / smaller <= 2.2, (label, series)
    assert all(work[p]["edit"].get("parsed", 0) == 1 for p in PLATFORMS)
