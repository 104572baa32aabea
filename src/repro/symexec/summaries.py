"""Compositional symbolic summaries and incremental re-verification.

SymNet scales network verification by *summarizing* middlebox behavior
as symbolic transfer functions instead of re-interpreting each element
on every traversal.  This module brings that idea to the repro in two
cooperating layers:

**Layer 1 -- transfer-function programs + segment composition**
(:class:`SummaryCache`).  Every element class gets a *summarizer* that
compiles one element instance into a transfer function: a closure with
the element's parsed configuration (filter rules, rewrite patterns,
constants) pre-bound, byte-for-byte equivalent to the registered model
but with zero per-call payload derivation.  Programs are cached keyed
on ``(class name, argument tuple)``, so the hundredth graft of the same
tenant config reuses the first graft's programs.  Maximal single-wired
chains of summarizable nodes -- a module's internal pipeline is the
canonical case -- are *composed* into :class:`SegmentSummary` hop
tables the engine replays without touching its worklist or the graph's
edge dict.  Composition preserves the seed engine's DFS order exactly:
each hop continues with the model's **last** output (the one the seed's
LIFO worklist would pop next) and spills earlier branches back to the
worklist at their precomputed successor.

**Layer 2 -- footprint-keyed verdict reuse** (:class:`VerificationCache`).
Every verified requirement records a *reachability footprint*: a set
of topology segments (module-internal vertices map to their hosting
platform).  For a satisfied ``reach`` -- an existential statement --
that is the path of **one witness** flow; for ``isolate``, ``always``
and an unsatisfied ``reach`` -- universal statements -- it is
everything the exploration visited.  A cached verdict is reusable while

* the topology signature is unchanged (links + address ownership),
* every routing/flow table in the footprint still has the version
  counter (PR 5's ``RoutingTable._version`` / ``FlowTable._version``)
  recorded at store time, and
* no module address moved in or out of any address range the
  requirement references.

Admitting a config into a large network then costs O(changed segments):
a trial graft at platform P bumps only P's tokens, so every universal
verdict whose exploration avoided P and every ``reach`` verdict with
*some* witness avoiding P is answered from cache (a path exists while
the nodes on it are unchanged, whatever else was added), and a policy
edit re-verifies only requirements that are new or whose footprint was
invalidated.  ``docs/symexec-summaries.md`` walks the algebra and the
invalidation rules; ``benchmarks/symexec_speedup_check.py
--incremental`` gates the speedup in CI.

Both layers are **exact**: they change what a verdict costs, never what
it is.  ``tests/symexec/test_summary_differential.py`` proves verdicts,
traces and write logs equal to the seed engine byte for byte, and
:func:`repro.symexec.tuning.seed_mode` bypasses both layers (the engine
and the controller re-check ``OPT.enabled`` on every use).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.common import fields as F
from repro.common.intervals import IntervalSet
from repro.symexec.engine import SymGraph
from repro.symexec.models import (
    ensure_field,
    model_for,
    register_summary,
    sequential_rules,
    set_const,
    set_fresh,
    summarizer_for,
)

__all__ = [
    "ChangedScope",
    "SegmentSummary",
    "SummaryCache",
    "UNCHANGED_SCOPE",
    "VerificationCache",
    "exploration_footprint",
    "requirement_address_ranges",
    "witness_footprint",
]


# ---------------------------------------------------------------------------
# Element transfer functions (the per-element summaries)
# ---------------------------------------------------------------------------
#
# A summarizer maps one configured element instance to a *program*: a
# callable with the model signature ``(ctx, node, port, flow) ->
# [(out_port, flow)]`` whose behavior is identical to the registered
# model.  Two families:
#
# * **specialized** summarizers pre-bind everything the model would
#   re-derive from the element payload per call (rule lists, rewrite
#   patterns, constants);
# * **passthrough** summarizers return the registered model itself --
#   used for elements with no payload-derived state (identity plumbing,
#   graph-dependent forks), where the model already *is* its own
#   transfer function.  Passthrough elements still matter: they make
#   their node segment-composable.


def _passthrough(class_name: str):
    model = model_for(class_name)

    def summarize(element):
        return model

    return summarize


for _cls in (
    # Identity plumbing: time, counting and queueing are not modelled.
    "FromNetfront", "FromDevice", "ToNetfront", "ToDevice",
    "CheckIPHeader", "Queue", "Unqueue", "TimedUnqueue", "RatedUnqueue",
    "BandwidthShaper", "Counter", "FlowMeter",
    # No payload-derived state (drops, graph-dependent forks, swaps).
    "Discard", "Idle", "Tee", "PaintSwitch", "DecIPTTL", "IPDecap",
    "DPI", "HTTPOptimizer", "WebCache", "GeoDNSServer", "X86VM",
    "RateLimiter", "RoundRobinSwitch", "Meter", "ICMPPingResponder",
):
    register_summary(_cls)(_passthrough(_cls))


@register_summary("Paint")
def _sum_paint(element):
    color = element.color

    def program(ctx, node, port, flow):
        ensure_field(ctx, flow, "paint")
        set_const(ctx, flow, "paint", color, node)
        return [(0, flow)]

    return program


@register_summary("IPFilter")
def _sum_ipfilter(element):
    rules = [(i, spec) for i, (_allowed, spec) in enumerate(element.rules)]
    allowed_flags = [allowed for allowed, _spec in element.rules]

    def program(ctx, node, port, flow):
        matched, _unmatched = sequential_rules(flow, rules)
        results = []
        for rule_index, fork in matched:
            if allowed_flags[rule_index]:
                results.append((0, fork))
        return results

    return program


def _sum_classifier(element):
    rules = list(enumerate(element.patterns))

    def program(ctx, node, port, flow):
        matched, _unmatched = sequential_rules(flow, rules)
        return [(pattern_index, fork) for pattern_index, fork in matched]

    return program


register_summary("IPClassifier")(_sum_classifier)
register_summary("Classifier")(_sum_classifier)


@register_summary("IPRewriter")
def _sum_iprewriter(element):
    inputs = list(element.inputs)

    def program(ctx, node, port, flow):
        if port >= len(inputs):
            return []
        pattern = inputs[port]
        if pattern is None:  # `drop` input
            return []
        if pattern.src_addr is not None:
            set_const(ctx, flow, F.IP_SRC, pattern.src_addr, node)
        if pattern.src_port is not None:
            low, high = pattern.src_port
            set_fresh(ctx, flow, F.TP_SRC, node,
                      IntervalSet.from_interval(low, high))
        if pattern.dst_addr is not None:
            set_const(ctx, flow, F.IP_DST, pattern.dst_addr, node)
        if pattern.dst_port is not None:
            low, high = pattern.dst_port
            set_fresh(ctx, flow, F.TP_DST, node,
                      IntervalSet.from_interval(low, high))
        return [(pattern.fwd_output, flow)]

    return program


def _sum_const_setter(field: str, attr: str):
    def summarize(element):
        value = getattr(element, attr)

        def program(ctx, node, port, flow):
            set_const(ctx, flow, field, value, node)
            return [(0, flow)]

        return program

    return summarize


register_summary("SetIPAddress")(_sum_const_setter(F.IP_DST, "address"))
register_summary("SetIPSrc")(_sum_const_setter(F.IP_SRC, "address"))
register_summary("SetTPDst")(_sum_const_setter(F.TP_DST, "port_value"))
register_summary("SetTPSrc")(_sum_const_setter(F.TP_SRC, "port_value"))
register_summary("SetIPTTL")(_sum_const_setter(F.IP_TTL, "ttl"))
register_summary("SetIPTOS")(_sum_const_setter(F.IP_TOS, "tos"))

_ONE = IntervalSet.single(1)
_FULL_ADDR = IntervalSet.from_interval(0, (1 << 32) - 1)
_NON_HTTP_PORTS = IntervalSet.from_interval(0, 65535).subtract(
    IntervalSet.single(80)
)


@register_summary("StatefulFirewall")
def _sum_statefulfirewall(element):
    from repro.symexec.models import flows_matching

    allow_spec = element.allow_spec
    outbound = element.OUTBOUND
    inbound = element.INBOUND

    def program(ctx, node, port, flow):
        if port == outbound:
            results = []
            for fork in flows_matching(flow, allow_spec):
                ensure_field(ctx, fork, "firewall_tag")
                set_const(ctx, fork, "firewall_tag", 1, node)
                results.append((outbound, fork))
            return results
        ensure_field(ctx, flow, "firewall_tag")
        if not flow.constrain_field("firewall_tag", _ONE):
            return []
        return [(inbound, flow)]

    return program


@register_summary("IngressFilter")
def _sum_ingressfilter(element):
    inbound = element.INBOUND
    allowed_sources = _FULL_ADDR.subtract(element.protected)

    def program(ctx, node, port, flow):
        if port == inbound:
            if not flow.constrain_field(F.IP_SRC, allowed_sources):
                return []
        return [(port, flow)]

    return program


@register_summary("ChangeEnforcer")
def _sum_changeenforcer(element):
    to_module = element.TO_MODULE
    from_module = element.FROM_MODULE

    def program(ctx, node, port, flow):
        ensure_field(ctx, flow, "sandboxed")
        if port == to_module:
            return [(to_module, flow)]
        set_const(ctx, flow, "sandboxed", 1, node)
        return [(from_module, flow)]

    return program


@register_summary("IPEncap")
def _sum_ipencap(element):
    from repro.symexec.models import _encap_with_writes

    outer = {
        F.IP_PROTO: element.proto,
        F.IP_SRC: element.src,
        F.IP_DST: element.dst,
    }

    def program(ctx, node, port, flow):
        _encap_with_writes(ctx, node, flow, outer)
        return [(0, flow)]

    return program


@register_summary("UDPIPEncap")
def _sum_udpipencap(element):
    from repro.symexec.models import _encap_with_writes

    outer = {
        F.IP_PROTO: F.UDP,
        F.IP_SRC: element.src,
        F.TP_SRC: element.sport,
        F.IP_DST: element.dst,
        F.TP_DST: element.dport,
    }

    def program(ctx, node, port, flow):
        _encap_with_writes(ctx, node, flow, outer)
        return [(0, flow)]

    return program


@register_summary("TransparentProxy")
def _sum_transparentproxy(element):
    proxy_addr = element.proxy_addr
    proxy_port = element.proxy_port
    http = IntervalSet.single(80)

    def program(ctx, node, port, flow):
        results = []
        redirected = flow.fork()
        if redirected.constrain_field(F.TP_DST, http):
            set_const(ctx, redirected, F.IP_DST, proxy_addr, node)
            set_const(ctx, redirected, F.TP_DST, proxy_port, node)
            results.append((0, redirected))
        passthrough = flow
        if passthrough.constrain_field(F.TP_DST, _NON_HTTP_PORTS):
            results.append((0, passthrough))
        return results

    return program


@register_summary("Multicast")
def _sum_multicast(element):
    destinations = list(element.destinations)
    last = len(destinations) - 1

    def program(ctx, node, port, flow):
        results = []
        for index, dest in enumerate(destinations):
            fork = flow if index == last else flow.fork()
            set_const(ctx, fork, F.IP_DST, dest, node)
            results.append((0, fork))
        return results

    return program


@register_summary("EchoResponder")
def _sum_echoresponder(element):
    udp_only = IntervalSet.single(F.UDP)
    rewrites_payload = element.response_payload is not None

    def program(ctx, node, port, flow):
        if not flow.constrain_field(F.IP_PROTO, udp_only):
            return []
        src = flow.packet.var(F.IP_SRC)
        dst = flow.packet.var(F.IP_DST)
        flow.write_field(F.IP_SRC, dst, node)
        flow.write_field(F.IP_DST, src, node)
        sport = flow.packet.var(F.TP_SRC)
        dport = flow.packet.var(F.TP_DST)
        flow.write_field(F.TP_SRC, dport, node)
        flow.write_field(F.TP_DST, sport, node)
        if rewrites_payload:
            set_fresh(ctx, flow, F.PAYLOAD, node)
        return [(0, flow)]

    return program


@register_summary("ReverseProxy")
def _sum_reverseproxy(element):
    client_side = element.CLIENT_SIDE
    origin_side = element.ORIGIN_SIDE
    origin_addr = element.origin_addr
    origin_port = element.origin_port

    def program(ctx, node, port, flow):
        if port == client_side:
            ingress_dst = flow.packet.var(F.IP_DST)
            flow.write_field(F.IP_SRC, ingress_dst, node)
            set_const(ctx, flow, F.IP_DST, origin_addr, node)
            set_const(ctx, flow, F.TP_DST, origin_port, node)
            return [(origin_side, flow)]
        ingress_dst = flow.packet.var(F.IP_DST)
        flow.write_field(F.IP_SRC, ingress_dst, node)
        set_fresh(ctx, flow, F.IP_DST, node)
        ensure_field(ctx, flow, "auth_ok")
        set_const(ctx, flow, "auth_ok", 1, node)
        return [(client_side, flow)]

    return program


@register_summary("LoadBalancer")
def _sum_loadbalancer(element):
    backends = list(element.backends)
    last = len(backends) - 1

    def program(ctx, node, port, flow):
        results = []
        for index, backend in enumerate(backends):
            fork = flow if index == last else flow.fork()
            set_const(ctx, fork, F.IP_DST, backend, node)
            results.append((0, fork))
        return results

    return program


@register_summary("ExplicitProxy")
def _sum_explicitproxy(element):
    proxy_addr = element.proxy_addr

    def program(ctx, node, port, flow):
        set_const(ctx, flow, F.IP_SRC, proxy_addr, node)
        set_fresh(ctx, flow, F.IP_DST, node)
        return [(0, flow)]

    return program


@register_summary("Switch")
def _sum_switch(element):
    out_port = element.port

    def program(ctx, node, port, flow):
        if out_port < 0:
            return []
        return [(out_port, flow)]

    return program


# ---------------------------------------------------------------------------
# Segment summaries (chain composition)
# ---------------------------------------------------------------------------

class SegmentHop(NamedTuple):
    """One precompiled hop of a segment summary."""

    node: str
    port: int
    #: Transfer function for this hop (None on sink hops).
    program: Optional[Callable]
    is_sink: bool
    #: The node's single wired output port (None when none are wired);
    #: model outputs on any other port dangle, exactly as in the graph.
    wired_port: Optional[int]
    #: Where the wired output leads.
    succ_node: Optional[str]
    succ_port: Optional[int]


class SegmentSummary(NamedTuple):
    """A maximal single-wired chain of summarizable nodes.

    The engine replays ``hops`` for one flow at a time: per hop it runs
    the usual arrival bookkeeping, applies the transfer function, spills
    every output but the last back to its worklist (preserving the seed
    engine's LIFO order bit for bit) and carries the last output to the
    next hop without touching the worklist or the edge dict.
    """

    entry: Tuple[str, int]
    hops: Tuple[SegmentHop, ...]


class _GraphTables(NamedTuple):
    """Compiled summary tables for one graph version."""

    graph: SymGraph
    version: int
    #: node -> transfer-function program (summarizable nodes only).
    programs: Dict[str, Callable]
    #: (node, in_port) -> hop tuple starting there (chain suffixes
    #: included, so mid-chain re-entries compose too).
    segments: Dict[Tuple[str, int], Tuple[SegmentHop, ...]]


class SummaryCache:
    """Per-controller cache of transfer functions and segment tables.

    Element programs are cached across graphs keyed on ``(class name,
    args)`` -- grafting the same tenant config a second time compiles
    nothing.  The per-graph tables (programs by node + composed
    segments) are validated against :attr:`SymGraph.version`, which
    every structural mutation bumps; an unchanged graph revalidates in
    O(1), and a graph that only gained or lost whole chains since (a
    module splice or un-splice) is *patched*: the tables follow the
    nodes :meth:`SymGraph.touched_since` reports instead of being
    rebuilt.  Touching a node that already has a program rebuilds
    everything, as any mutation used to.
    """

    def __init__(self):
        #: (kind, class_name, args[, two_sided]) -> program.
        self._element_cache: Dict[tuple, Callable] = {}
        self._tables: Optional[_GraphTables] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.patches = 0
        self.element_hits = 0
        self.element_misses = 0
        self.segments_composed = 0
        self.hops_composed = 0
        self.nodes_summarized = 0
        self._c_hits = None
        self._c_misses = None
        self._c_invalidations = None
        self._c_patches = None
        self._c_composes = None

    # -- observability ------------------------------------------------------
    def instrument(self, metrics) -> None:
        """Mirror the cache counters into a metrics registry."""
        self._c_hits = metrics.counter(
            "symexec_summary_hits_total",
            "Summary-table revalidations served from cache",
        )
        self._c_misses = metrics.counter(
            "symexec_summary_misses_total",
            "Summary-table builds for a new graph",
        )
        self._c_invalidations = metrics.counter(
            "symexec_summary_invalidations_total",
            "Summary tables found stale after a graph mutation",
        )
        self._c_patches = metrics.counter(
            "symexec_summary_patches_total",
            "Stale summary tables patched in place instead of rebuilt",
        )
        self._c_composes = metrics.counter(
            "symexec_summary_composes_total",
            "Segment summaries composed (multi-hop chains)",
        )

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for ``Controller.stats()`` and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "patches": self.patches,
            "element_hits": self.element_hits,
            "element_misses": self.element_misses,
            "segments_composed": self.segments_composed,
            "hops_composed": self.hops_composed,
            "nodes_summarized": self.nodes_summarized,
        }

    def invalidate(self) -> None:
        """Drop everything (explicit invalidation, e.g. after in-place
        surgery on element instances the cache cannot observe)."""
        self._element_cache.clear()
        self._tables = None

    # -- table lookup --------------------------------------------------------
    def tables_for(self, graph: SymGraph) -> _GraphTables:
        """Valid summary tables for ``graph`` (patching or rebuilding
        if stale)."""
        tables = self._tables
        version = graph.version
        if tables is not None and tables.graph is graph:
            if tables.version == version:
                self.hits += 1
                if self._c_hits is not None:
                    self._c_hits.inc()
                return tables
            self.invalidations += 1
            if self._c_invalidations is not None:
                self._c_invalidations.inc()
            touched = graph.touched_since(tables.version)
            if touched is not None and self._patch(tables, touched):
                self.patches += 1
                if self._c_patches is not None:
                    self._c_patches.inc()
                tables = self._tables = tables._replace(version=version)
                self._evict_unused_programs(tables)
                return tables
        else:
            self.misses += 1
            if self._c_misses is not None:
                self._c_misses.inc()
        tables = _GraphTables(graph, version, {}, {})
        self._extend(tables, graph.models, graph.edges.items())
        self._tables = tables
        self._evict_unused_programs(tables)
        return tables

    def _evict_unused_programs(self, tables: _GraphTables) -> None:
        """Forget element programs no node of ``tables`` runs, once
        the cache holds more than twice as many as there are nodes --
        without this it keeps one per tenant address ever seen."""
        cache = self._element_cache
        if len(cache) <= 2 * len(tables.programs):
            return
        live = set(tables.programs.values())
        for key in [k for k, program in cache.items()
                    if program not in live]:
            del cache[key]

    # -- compilation ---------------------------------------------------------
    def _element_program(self, element) -> Optional[Callable]:
        class_name = getattr(element, "class_name", None)
        if class_name is None:
            return None
        summarize = summarizer_for(class_name)
        if summarize is None:
            return None
        key = ("el", class_name, tuple(element.args))
        program = self._element_cache.get(key)
        if program is not None:
            self.element_hits += 1
            return program
        self.element_misses += 1
        program = summarize(element)
        if program is not None:
            self._element_cache[key] = program
        return program

    def _middlebox_program(self, element) -> Optional[Callable]:
        """Wrap an element summary with the middlebox iface mapping."""
        class_name = getattr(element, "class_name", None)
        if class_name is None:
            return None
        two_sided = element.n_inputs == 2
        key = ("mb", class_name, tuple(element.args), two_sided)
        program = self._element_cache.get(key)
        if program is not None:
            self.element_hits += 1
            return program
        inner = self._element_program(element)
        if inner is None:
            return None

        def program(ctx, node, port, flow):
            element_port = port if two_sided else 0
            outputs = inner(ctx, node, element_port, flow)
            results = []
            for out_port, out_flow in outputs:
                if two_sided:
                    iface = 1 - out_port if out_port in (0, 1) else out_port
                else:
                    iface = 1 - port if port in (0, 1) else 0
                results.append((iface, out_flow))
            return results

        self._element_cache[key] = program
        return program

    def _node_program(self, graph: SymGraph, node: str
                      ) -> Optional[Callable]:
        """The transfer function for one graph node, if it has one."""
        model = graph.models[node]
        payload = graph.payloads.get(node)
        if getattr(model, "summary_kind", None) == "middlebox":
            return self._middlebox_program(payload)
        class_name = getattr(payload, "class_name", None)
        if class_name is None or summarizer_for(class_name) is None:
            return None
        # Only summarize nodes still running the registered model;
        # custom payloads/models keep the generic path.
        try:
            registered = model_for(class_name)
        except Exception:
            return None
        if registered is not model:
            return None
        return self._element_program(payload)

    def _patch(self, tables: _GraphTables, touched) -> bool:
        """Make ``tables`` follow the touched nodes, or refuse.

        Patchable when every touched node is new, gone, or has no
        program (platforms, routers and endpoints never sit inside a
        chain): nothing composed earlier can run through such a node,
        so a splice only adds entries and an un-splice only removes
        them.  A touched node that already has a program may sit
        inside an existing chain -- refuse, and the caller rebuilds.
        """
        graph = tables.graph
        programs = tables.programs
        models = graph.models
        gone = set()
        for name in touched:
            if name in programs:
                if name in models:
                    return False
                gone.add(name)
        if gone:
            for name in gone:
                del programs[name]
            segments = tables.segments
            for entry in [e for e in segments if e[0] in gone]:
                del segments[entry]
        present = [name for name in touched if name in models]
        if present:
            self._extend(tables, present, [
                (key, dst) for key, dst in graph.edges.items()
                if key[0] in touched
            ])
        return True

    def _extend(self, tables: _GraphTables, nodes, edges) -> None:
        """Compile programs for ``nodes`` and compose the segments
        entered over ``edges`` (``((src, port), (dst, port))`` pairs:
        every edge of the graph for a full build, the touched nodes'
        out-edges for a patch -- a chain from a new entry only runs
        through new nodes, so their out-edges are all it needs)."""
        graph = tables.graph
        programs = tables.programs
        segments = tables.segments
        summarized = 0
        for node in nodes:
            program = self._node_program(graph, node)
            if program is not None:
                programs[node] = program
                summarized += 1
        self.nodes_summarized += summarized

        # Wired outputs per node; chains need exactly one.
        out_edges: Dict[str, List[Tuple[int, Tuple[str, int]]]] = {}
        for (src, src_port), dst in edges:
            out_edges.setdefault(src, []).append((src_port, dst))

        sinks = graph.sinks
        for _key, entry in edges:
            if entry in segments:
                continue
            hops: List[SegmentHop] = []
            node, port = entry
            seen = set()
            while (node, port) not in seen:
                seen.add((node, port))
                if sinks.get(node):
                    hops.append(SegmentHop(
                        node, port, None, True, None, None, None
                    ))
                    break
                program = programs.get(node)
                if program is None:
                    break
                wired = out_edges.get(node, ())
                if len(wired) == 1:
                    wired_port, (succ_node, succ_port) = wired[0]
                    hops.append(SegmentHop(
                        node, port, program, False,
                        wired_port, succ_node, succ_port,
                    ))
                    node, port = succ_node, succ_port
                    continue
                if not wired:
                    # Every output dangles: terminal hop, all drops.
                    hops.append(SegmentHop(
                        node, port, program, False, None, None, None
                    ))
                break
            if hops:
                segments[entry] = tuple(hops)
                if len(hops) > 1:
                    self.segments_composed += 1
                    self.hops_composed += len(hops)
                    if self._c_composes is not None:
                        self._c_composes.inc()


# ---------------------------------------------------------------------------
# Footprints + verdict reuse
# ---------------------------------------------------------------------------

class ChangedScope(NamedTuple):
    """What an admission step is about to change.

    ``segments`` are topology node names (a trial graft touches exactly
    its hosting platform); ``addresses`` are addresses being assigned.
    Verdicts whose footprint intersects the scope, or whose requirement
    references an address range covering an assigned address, are never
    *stored* during the step -- their tokens would snapshot trial state.
    """

    segments: FrozenSet[str]
    addresses: FrozenSet[int]


#: The scope of a read-only re-verification (``verify_snapshot``).
UNCHANGED_SCOPE = ChangedScope(frozenset(), frozenset())


def _footprint(nodes, compiled) -> FrozenSet[str]:
    """Topology segments behind graph node names.

    Module-internal vertices (``module/element``) map to the hosting
    platform: whatever invalidates the module (deploy, kill, steering
    change) bumps that platform's tokens, so platform granularity is
    exactly the invalidation granularity.
    """
    segments = set()
    modules = compiled.modules
    for node in nodes:
        if "/" in node:
            module = node.split("/", 1)[0]
            info = modules.get(module)
            segments.add(info[0] if info is not None else module)
        else:
            segments.add(node)
    return frozenset(segments)


def exploration_footprint(exploration, compiled) -> FrozenSet[str]:
    """Topology segments an exploration visited."""
    return _footprint(
        (node for node, _port in exploration.arrivals), compiled
    )


def witness_footprint(flow, compiled) -> FrozenSet[str]:
    """Topology segments one flow's own path visited."""
    return _footprint((entry.node for entry in flow.trace), compiled)


def requirement_address_ranges(requirement) -> Tuple[IntervalSet, ...]:
    """The address ranges a requirement's hops reference.

    Address-referencing hops match *module entry elements* whose
    assigned address falls in the range
    (:meth:`CompiledNetwork._address_matcher`), so a cached verdict is
    sensitive to module addresses moving in or out of these ranges even
    when the owning platform is outside the footprint.
    """
    from repro.common.addr import prefix_range
    from repro.policy.grammar import KIND_ADDRESS

    ranges = []
    for hop in requirement.hops:
        ref = hop.node
        if ref.kind == KIND_ADDRESS and ref.prefix is not None:
            low, high = prefix_range(*ref.prefix)
            ranges.append(IntervalSet.from_interval(low, high))
    return tuple(ranges)


def _modules_in_ranges(network, ranges) -> Tuple[FrozenSet, ...]:
    """Per range: the (module, address) pairs currently inside it."""
    if not ranges:
        return ()
    pairs = [
        (name, address)
        for platform in network.platforms()
        for name, (address, _config) in platform.modules.items()
    ]
    return tuple(
        frozenset(p for p in pairs if p[1] in wanted)
        for wanted in ranges
    )


class _VerdictEntry(NamedTuple):
    result: object            # the cached ReachResult
    footprint: FrozenSet[str]
    topo_signature: int
    #: segment name -> (table object, version) for routers/platforms in
    #: the footprint.  Holding the table object itself (not ``id()``)
    #: makes identity checks immune to allocator reuse AND catches
    #: wholesale table replacement (a fresh table restarts its version
    #: counter, which a bare version compare would false-match).
    tokens: Dict[str, Tuple[object, int]]
    ranges: Tuple[IntervalSet, ...]
    range_modules: Tuple[FrozenSet, ...]


class VerificationCache:
    """Footprint-keyed requirement verdict cache.

    Keys are ``(owner module or "", str(requirement))``; entries
    validate against the live network on every lookup (topology
    signature, per-segment version tokens, address-range membership) so
    there is no explicit invalidation protocol to get wrong -- a stale
    entry can never validate.
    """

    def __init__(self):
        self._entries: Dict[tuple, _VerdictEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: What each :meth:`store` call anchored its entry to
        #: (``skipped``: nothing was stored).
        self.anchors = {"witness": 0, "exploration": 0, "skipped": 0}
        self._c_anchor = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stores(self) -> int:
        return self.anchors["witness"] + self.anchors["exploration"]

    @property
    def store_skips(self) -> int:
        return self.anchors["skipped"]

    def _anchored(self, kind: str) -> bool:
        self.anchors[kind] += 1
        if self._c_anchor is not None:
            self._c_anchor.labels(kind).inc()
        return kind != "skipped"

    def instrument(self, metrics) -> None:
        """Mirror the anchor decisions into a metrics registry."""
        self._c_anchor = metrics.counter(
            "symexec_verdict_anchor_total",
            "Verdict-cache stores by what the entry was anchored to",
            labels=("kind",),
        )

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "store_skips": self.store_skips,
            "anchors": dict(self.anchors),
        }

    def flush(self) -> None:
        """Drop every cached verdict."""
        self._entries.clear()

    def prune_operator(self, valid_keys: FrozenSet[str]) -> None:
        """Drop operator-owned entries not in the current policy."""
        stale = [
            key for key in self._entries
            if key[0] == "" and key[1] not in valid_keys
        ]
        for key in stale:
            del self._entries[key]

    # -- validation ----------------------------------------------------------
    @staticmethod
    def _segment_token(node) -> Optional[Tuple[object, int]]:
        table = getattr(node, "table", None)
        if table is not None and hasattr(table, "_version"):
            return (table, table._version)
        table = getattr(node, "flow_table", None)
        if table is not None and hasattr(table, "_version"):
            return (table, table._version)
        return None

    def _valid(self, entry: _VerdictEntry, network, topo_signature) -> bool:
        if entry.topo_signature != topo_signature:
            return False
        nodes = network.nodes
        for name, (table, version) in entry.tokens.items():
            node = nodes.get(name)
            if node is None:
                return False
            current = self._segment_token(node)
            if (
                current is None
                or current[0] is not table
                or current[1] != version
            ):
                return False
        if entry.ranges:
            if _modules_in_ranges(network, entry.ranges) \
                    != entry.range_modules:
                return False
        return True

    # -- lookup / store -----------------------------------------------------
    def lookup(self, key, network, topo_signature):
        """The cached ReachResult, or None (miss or invalidated)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not self._valid(entry, network, topo_signature):
            del self._entries[key]
            self.invalidations += 1
            return None
        self.hits += 1
        return entry.result

    def store(
        self,
        key,
        result,
        exploration,
        compiled,
        network,
        requirement,
        changed: Optional[ChangedScope],
        topo_signature: int,
    ) -> bool:
        """Cache a fresh verdict unless the changed scope taints it.

        A satisfied ``reach`` is an existential statement, so it is
        anchored to *one witness*: the entry records the footprint and
        tokens of that flow's own path and keeps only that flow.  The
        path exists while every node on it is unchanged, whatever else
        was added -- so a verdict explored during a trial graft is
        storable whenever some witness avoids the grafted platform.
        ``isolate``, ``always`` and an unsatisfied ``reach`` speak
        about every flow and keep the whole exploration's footprint.
        Either way nothing is stored when the footprint touches
        ``changed`` or the address ranges cover the trial address:
        the tokens would snapshot state that is rolled back on exit.
        """
        ranges = requirement_address_ranges(requirement)
        if changed is not None and changed.addresses and any(
            address in wanted
            for wanted in ranges
            for address in changed.addresses
        ):
            return self._anchored("skipped")
        tainted = changed.segments if changed is not None else frozenset()
        footprint = None
        if (
            result.satisfied
            and result.witnesses
            and requirement.expect_reachable
            and getattr(requirement, "mode", "reach") == "reach"
        ):
            kind = "witness"
            anchor = None
            for witness in result.witnesses:
                candidate = witness_footprint(witness, compiled)
                if candidate.isdisjoint(tainted) and (
                    footprint is None or len(candidate) < len(footprint)
                ):
                    anchor, footprint = witness, candidate
            if anchor is not None:
                result = replace(result, witnesses=[anchor], violations=[])
        else:
            kind = "exploration"
            footprint = exploration_footprint(exploration, compiled)
            if not footprint.isdisjoint(tainted):
                footprint = None
        if footprint is None:
            return self._anchored("skipped")
        tokens: Dict[str, Tuple[object, int]] = {}
        nodes = network.nodes
        for name in footprint:
            node = nodes.get(name)
            if node is None:
                continue
            token = self._segment_token(node)
            if token is not None:
                tokens[name] = token
        self._entries[key] = _VerdictEntry(
            result, footprint, topo_signature, tokens,
            ranges, _modules_in_ranges(network, ranges),
        )
        return self._anchored(kind)
