"""Compositional symbolic summaries and incremental re-verification.

SymNet scales network verification by *summarizing* middlebox behavior
as symbolic transfer functions instead of re-interpreting each element
on every traversal.  This module brings that idea to the repro in two
cooperating layers:

**Layer 1 -- segment composition** (:class:`SummaryCache`).  The
per-element transfer functions need no cache of their own: every
element model in :mod:`repro.symexec.models` is a compiler, and each
element node of a :class:`SymGraph` already runs its *program* -- a
closure with the element's parsed configuration (filter rules, rewrite
patterns, constants) bound when the node was added.  The model is its
own summary.  Maximal single-wired chains of element nodes -- a
module's internal pipeline is the canonical case -- are *composed*
into :class:`SegmentSummary` hop tables the engine replays without
touching its worklist or the graph's edge dict.  Composition preserves
the seed engine's DFS order exactly:
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
and the controller re-check ``OPT.enabled`` on every use; the element
programs, which run in both modes, read it on every call).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.common.intervals import IntervalSet
from repro.symexec.engine import SymGraph

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
    """A maximal single-wired chain of element nodes.

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
    #: element node -> the compiled program it runs (``graph.models``).
    programs: Dict[str, Callable]
    #: (node, in_port) -> hop tuple starting there (chain suffixes
    #: included, so mid-chain re-entries compose too).
    segments: Dict[Tuple[str, int], Tuple[SegmentHop, ...]]


class SummaryCache:
    """Per-controller cache of composed segment tables.

    Every element node already runs its compiled model program (the
    graph compiled it when the node was added); the cache composes
    those programs into segment chains.  The per-graph tables (programs
    by element node + composed segments) are validated against
    :attr:`SymGraph.version`, which every structural mutation bumps; an
    unchanged graph revalidates in O(1), and a graph that only gained
    or lost whole chains since (a module splice or un-splice) is
    *patched*: the tables follow the nodes
    :meth:`SymGraph.touched_since` reports instead of being rebuilt.
    Touching a node that already has a program rebuilds everything, as
    any mutation used to.
    """

    def __init__(self):
        self._tables: Optional[_GraphTables] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.patches = 0
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
            "segments_composed": self.segments_composed,
            "hops_composed": self.hops_composed,
            "nodes_summarized": self.nodes_summarized,
        }

    def invalidate(self) -> None:
        """Drop the tables (explicit invalidation, e.g. after in-place
        surgery on the graph the cache cannot observe)."""
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
                return tables
        else:
            self.misses += 1
            if self._c_misses is not None:
                self._c_misses.inc()
        tables = _GraphTables(graph, version, {}, {})
        self._extend(tables, graph.models, graph.edges.items())
        self._tables = tables
        return tables

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
        """Record the programs of the element nodes among ``nodes`` and
        compose the segments entered over ``edges`` (``((src, port),
        (dst, port))`` pairs: every edge of the graph for a full build,
        the touched nodes' out-edges for a patch -- a chain from a new
        entry only runs through new nodes, so their out-edges are all it
        needs)."""
        graph = tables.graph
        programs = tables.programs
        segments = tables.segments
        models, elements = graph.models, graph.elements
        summarized = 0
        for node in nodes:
            if node in elements:
                programs[node] = models[node]
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
