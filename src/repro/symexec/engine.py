"""The symbolic exploration engine.

The engine injects a symbolic packet at a node of a :class:`SymGraph`
and tracks the flow through the network, splitting it whenever subflows
can take different paths, and checking all flows over all possible paths
(Section 4.3).  For each flow it records:

* the constraint store (per-variable interval domains),
* a **trace** of every (node, input port) the flow arrived at, with a
  field -> variable snapshot per entry,
* a **write log** of every header-field redefinition and which node
  performed it -- the "history of modifications" the controller uses to
  check ``const`` invariants and anti-spoofing.

Unsatisfiable branches are pruned immediately, so the number of live
flows stays proportional to real forwarding alternatives.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import (
    Callable, Deque, Dict, List, NamedTuple, Optional, Set, Tuple,
)

from repro.common.errors import VerificationError
from repro.common.intervals import IntervalSet
from repro.policy.flowspec import Clause, FlowSpec
from repro.symexec.sympacket import SymPacket, SymVar, VarFactory
from repro.symexec.tuning import OPT


class TraceEntry(NamedTuple):
    """One arrival of a flow at a node input port."""

    node: str
    port: int
    #: field -> variable uid at arrival time.
    snapshot: Dict[str, int]


class WriteRecord(NamedTuple):
    """One redefinition of a header field by a node's model."""

    #: Index in the trace of the node that performed the write.
    at: int
    node: str
    field: str
    old_uid: Optional[int]
    new_uid: int


class SymFlow:
    """One symbolic flow: packet bindings + constraints + history.

    The domains dict and the trace/write logs are plain builtins, but
    with the fast path on :meth:`fork` shares them between both flows
    and raises the ``_domains_shared`` / ``_history_shared`` flags;
    every mutator checks its flag and copies first (copy-on-write).
    Readers never pay anything -- they see ordinary dicts and lists.
    """

    __slots__ = (
        "packet", "domains", "trace", "writes", "alive",
        "_domains_shared", "_history_shared",
    )

    def __init__(self, packet: SymPacket):
        self.packet = packet
        #: var uid -> current domain (missing = the var's universe).
        self.domains: Dict[int, IntervalSet] = {}
        self.trace: List[TraceEntry] = []
        self.writes: List[WriteRecord] = []
        self.alive = True
        self._domains_shared = False
        self._history_shared = False

    # -- constraints --------------------------------------------------------
    def domain(self, variable: SymVar) -> IntervalSet:
        """Current domain of ``variable`` under this flow."""
        return self.domains.get(variable.uid, variable.universe)

    def field_domain(self, field: str) -> IntervalSet:
        """Current domain of the variable bound to ``field``."""
        variable = self.packet.var(field)
        if variable is None:
            raise VerificationError("field %r not tracked" % (field,))
        return self.domain(variable)

    def constrain(self, variable: SymVar, allowed: IntervalSet) -> bool:
        """Intersect a variable's domain; False when it becomes empty."""
        domains = self.domains
        uid = variable.uid
        current = domains.get(uid)
        if current is None:
            narrowed = variable.universe.intersect(allowed)
        else:
            narrowed = current.intersect(allowed)
        # With interned results, a vacuous narrowing returns the stored
        # object itself; skipping the store then avoids a pointless
        # copy-on-write materialization.  (Never skipped in seed mode:
        # uncached intersect always allocates.)
        if narrowed is not current:
            if self._domains_shared:
                domains = self.domains = dict(domains)
                self._domains_shared = False
                OPT.cow_copies += 1
            domains[uid] = narrowed
        if narrowed.is_empty():
            self.alive = False
            return False
        return True

    def constrain_field(self, field: str, allowed: IntervalSet) -> bool:
        """Constrain the variable currently bound to ``field``."""
        variable = self.packet.var(field)
        if variable is None:
            raise VerificationError("field %r not tracked" % (field,))
        return self.constrain(variable, allowed)

    def constrain_clause(self, clause: Clause) -> bool:
        """Apply every per-field constraint of a flow-spec clause."""
        for field, allowed in clause.constraints.items():
            if not self.constrain_field(field, allowed):
                return False
        return True

    # -- writes --------------------------------------------------------------
    def _own_history(self) -> None:
        """Materialize private trace/write logs (undo COW sharing)."""
        self.trace = list(self.trace)
        self.writes = list(self.writes)
        self._history_shared = False
        OPT.cow_copies += 1

    def record_write(self, record: "WriteRecord") -> None:
        """Append to the write log (copy-on-write safe)."""
        if self._history_shared:
            self._own_history()
        self.writes.append(record)

    def write_field(
        self, field: str, variable: SymVar, node: Optional[str] = None
    ) -> None:
        """Bind ``field`` to ``variable`` and log the redefinition."""
        old = self.packet.var(field)
        if self._history_shared:
            self._own_history()
        self.writes.append(
            WriteRecord(
                at=len(self.trace) - 1,
                node=node or (self.trace[-1].node if self.trace else "?"),
                field=field,
                old_uid=old.uid if old is not None else None,
                new_uid=variable.uid,
            )
        )
        self.packet.bind(field, variable)

    def written_between(self, start: int, end: int, field: str) -> bool:
        """Whether ``field`` was redefined by nodes trace[start:end]."""
        return any(
            w.field == field and start <= w.at < end for w in self.writes
        )

    def writers_of(self, field: str) -> List[str]:
        """Names of every node that redefined ``field`` on this path."""
        return [w.node for w in self.writes if w.field == field]

    # -- lifecycle ---------------------------------------------------------------
    def fork(self) -> "SymFlow":
        """An observably independent copy of this flow.

        Seed mode copies everything eagerly.  With the fast path on,
        the fork is O(1): both flows keep referencing the same domains
        dict and trace/write lists, and both raise their shared flags,
        so whichever side mutates a structure first copies it then
        (the common fork-then-die case never copies anything).  Either
        way, mutations on one side are never visible on the other.
        """
        OPT.forks += 1
        if not OPT.enabled:
            clone = SymFlow(self.packet.copy())
            clone.domains = dict(self.domains)
            clone.trace = list(self.trace)
            clone.writes = list(self.writes)
            clone.alive = self.alive
            return clone
        clone = SymFlow.__new__(SymFlow)
        clone.packet = self.packet.copy()
        clone.domains = self.domains
        clone.trace = self.trace
        clone.writes = self.writes
        clone.alive = self.alive
        self._domains_shared = clone._domains_shared = True
        self._history_shared = clone._history_shared = True
        return clone

    def matches_spec(self, spec: FlowSpec) -> bool:
        """Whether this flow can *only* carry packets satisfying ``spec``.

        True when the flow's current domains fit entirely inside some
        clause of the spec -- i.e. the spec is guaranteed, not merely
        possible.  (Requirement checking wants guarantees: "there exists
        at least one flow that conforms to the verified constraints".)
        """
        for clause in spec.clauses:
            if all(
                self.field_domain(field).is_subset(allowed)
                for field, allowed in clause.constraints.items()
                if self.packet.var(field) is not None
            ):
                return True
        return False

    def intersects_spec(self, spec: FlowSpec) -> bool:
        """Whether some concrete packet of this flow satisfies ``spec``."""
        for clause in spec.clauses:
            if all(
                self.field_domain(field).overlaps(allowed)
                for field, allowed in clause.constraints.items()
                if self.packet.var(field) is not None
            ):
                return True
        return False

    def __repr__(self) -> str:
        return "SymFlow(%d hops, %d writes, alive=%s)" % (
            len(self.trace),
            len(self.writes),
            self.alive,
        )


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

#: A node model: (context, node_name, in_port, flow) -> [(out_port, flow)].
NodeModel = Callable[["ModelContext", str, int, SymFlow],
                     List[Tuple[int, SymFlow]]]


class SymGraph:
    """A graph of symbolic node models.

    Nodes are registered with a model callable; edges connect
    ``(node, out_port)`` to ``(node, in_port)``.  Sink nodes terminate
    flows (their arrivals are still recorded).  Element nodes
    (:meth:`add_element`) run their element's compiled model program.
    """

    def __init__(self):
        self.models: Dict[str, NodeModel] = {}
        self.sinks: Dict[str, bool] = {}
        self.edges: Dict[Tuple[str, int], Tuple[str, int]] = {}
        #: node -> its wired output ports, ascending (``edges`` by source).
        self._outputs: Dict[str, List[int]] = {}
        #: Opaque per-node payloads models may consult (element instance,
        #: routing table, ...).
        self.payloads: Dict[str, object] = {}
        #: Nodes added by :meth:`add_element`: their model is a compiled
        #: element program, which segment summaries may compose.
        self.elements: Set[str] = set()
        #: Structural version: bumped by every node/edge mutation so
        #: derived tables (segment summaries) can validate in O(1).
        self.version = 0
        #: (version, node) per node a mutation touched, newest last;
        #: bounded, so :meth:`touched_since` can say "too long ago".
        self._touch_log: Deque[Tuple[int, str]] = deque(maxlen=1024)

    def touched_since(self, version: int) -> Optional[Set[str]]:
        """Nodes whose model, payload or wiring changed after
        ``version``: added, removed, or at either end of an edge that
        was connected, rewired or went with a removed node.  None when
        the bounded log no longer reaches back that far (the caller
        rebuilds from scratch).
        """
        log = self._touch_log
        if len(log) == log.maxlen and version < log[0][0]:
            return None
        touched: Set[str] = set()
        for at, name in reversed(log):
            if at <= version:
                break
            touched.add(name)
        return touched

    def add_node(
        self,
        name: str,
        model: NodeModel,
        payload: object = None,
        is_sink: bool = False,
    ) -> None:
        """Register a node; raises on duplicates."""
        if name in self.models:
            raise VerificationError("graph node %r added twice" % (name,))
        self.models[name] = model
        self.payloads[name] = payload
        self.sinks[name] = is_sink
        self.version += 1
        self._touch_log.append((self.version, name))

    def add_element(
        self, name: str, element, is_sink: bool = False, wrap=None
    ) -> None:
        """Register a node running ``element``'s compiled model program.

        The element's class compiler binds its parsed configuration
        once, here; ``wrap(element, program)`` may adapt the program's
        ports (a middlebox on a topology link).  The element stays the
        node's payload.
        """
        from repro.symexec.models import model_for

        program = model_for(element.class_name)(element)
        if wrap is not None:
            program = wrap(element, program)
        self.add_node(name, program, payload=element, is_sink=is_sink)
        self.elements.add(name)

    def connect(
        self, src: str, src_port: int, dst: str, dst_port: int
    ) -> None:
        """Wire ``src[src_port] -> [dst_port]dst``."""
        for name in (src, dst):
            if name not in self.models:
                raise VerificationError("edge references unknown %r" % name)
        rewired = self.edges.get((src, src_port))
        self.edges[(src, src_port)] = (dst, dst_port)
        if rewired is None:
            insort(self._outputs.setdefault(src, []), src_port)
        version = self.version = self.version + 1
        touch = self._touch_log.append
        touch((version, src))
        touch((version, dst))
        if rewired is not None:
            touch((version, rewired[0]))

    def remove_node(self, name: str) -> None:
        """Unregister a node and every edge touching it.

        Unknown names are ignored so teardown is idempotent.
        """
        self.remove_nodes((name,))

    def remove_nodes(self, names) -> None:
        """Unregister several nodes and every edge touching any of them
        (one pass over the edges; un-splicing a module uses this)."""
        gone = set(names)
        for name in gone:
            self.models.pop(name, None)
            self.sinks.pop(name, None)
            self.payloads.pop(name, None)
        self.elements -= gone
        stale = [
            (key, dst) for key, dst in self.edges.items()
            if key[0] in gone or dst[0] in gone
        ]
        touched = set(gone)
        outputs = self._outputs
        for name in gone:
            outputs.pop(name, None)
        for key, dst in stale:
            del self.edges[key]
            if key[0] not in gone:
                outputs[key[0]].remove(key[1])
            touched.add(key[0])
            touched.add(dst[0])
        self.version += 1
        self._touch_log.extend((self.version, name) for name in touched)

    def successor(
        self, node: str, port: int
    ) -> Optional[Tuple[str, int]]:
        """Where output ``port`` of ``node`` leads (None = dangling)."""
        return self.edges.get((node, port))

    def connected_outputs(self, node: str) -> List[int]:
        """The wired output ports of ``node``, ascending."""
        return list(self._outputs.get(node, ()))

    @classmethod
    def from_click(cls, config, namespace: str = "") -> "SymGraph":
        """Build a graph from a :class:`~repro.click.config.ClickConfig`.

        Each element is instantiated (so its arguments are parsed once)
        and becomes an element node running its compiled model.
        ``namespace`` prefixes node names (``module/element``) so
        multiple modules can share one graph.
        """
        from repro.click.element import create_element

        graph = cls()
        prefix = namespace + "/" if namespace else ""
        for name, decl in config.elements.items():
            element = create_element(decl.class_name, name, decl.args)
            graph.add_element(
                prefix + name, element,
                is_sink=getattr(element, "is_sink", False),
            )
        for edge in config.edges:
            graph.connect(
                prefix + edge.src, edge.src_port,
                prefix + edge.dst, edge.dst_port,
            )
        return graph


class ModelContext:
    """What element models may consult while executing."""

    def __init__(self, graph: SymGraph, factory: VarFactory):
        self.graph = graph
        self.factory = factory


class Exploration:
    """The result of one symbolic injection."""

    def __init__(self):
        #: (node, in_port) -> flows as they arrived there.
        self.arrivals: Dict[Tuple[str, int], List[SymFlow]] = {}
        #: Flows that reached a sink node.
        self.delivered: List[SymFlow] = []
        #: Flows that died (dropped by a model or dangling port).
        self.dropped: List[SymFlow] = []
        #: Total model evaluations (the linear cost the paper measures).
        self.steps = 0
        #: Fast-path accounting (deltas of the tuning counters over this
        #: exploration): flow forks, branches pruned before forking,
        #: element-model memo hits, and copy-on-write materializations.
        self.forks = 0
        self.pruned = 0
        self.memo_hits = 0
        self.cow_copies = 0

    def flows_at(self, node: str, port: Optional[int] = None
                 ) -> List[SymFlow]:
        """Flows that arrived at ``node`` (optionally a specific port).

        Arrival snapshots are frozen into each flow's trace; the flow
        objects returned are the *final* flow states whose traces pass
        through the node.
        """
        out: List[SymFlow] = []
        for (name, in_port), flows in self.arrivals.items():
            if name == node and (port is None or in_port == port):
                out.extend(flows)
        return out

    def all_flows(self) -> List[SymFlow]:
        """Every completed flow (delivered or dropped)."""
        return self.delivered + self.dropped


class SymbolicEngine:
    """Runs symbolic exploration over a :class:`SymGraph`."""

    def __init__(
        self,
        graph: SymGraph,
        factory: Optional[VarFactory] = None,
        max_steps: int = 200_000,
        max_hops: int = 4_096,
        obs=None,
        summaries=None,
    ):
        from repro.obs import NULL_OBSERVABILITY

        self.graph = graph
        self.factory = factory or VarFactory()
        self.max_steps = max_steps
        self.max_hops = max_hops
        self.context = ModelContext(graph, self.factory)
        #: Optional :class:`repro.symexec.summaries.SummaryCache`.  When
        #: set (and the fast path is on), exploration replays composed
        #: segment summaries instead of dispatching hop by hop.
        self.summaries = summaries
        #: Observability bundle; defaults to the shared no-op bundle so
        #: the hot loop never branches on presence.
        self.obs = obs if obs is not None else NULL_OBSERVABILITY
        metrics = self.obs.metrics
        self._c_explorations = metrics.counter(
            "symexec_explorations_total", "Symbolic explorations run"
        )
        self._c_steps = metrics.counter(
            "symexec_steps_total", "Symbolic model evaluations"
        )
        self._c_forks = metrics.counter(
            "symexec_forks_total", "Symbolic flow forks"
        )
        self._c_prunes = metrics.counter(
            "symexec_prunes_total",
            "Infeasible branches pruned before forking",
        )
        self._c_memo = metrics.counter(
            "symexec_memo_hits_total", "Element-model memoization hits"
        )
        self._c_cow = metrics.counter(
            "symexec_cow_copies_total",
            "Copy-on-write materializations of forked flow state",
        )

    def fresh_packet(self) -> SymPacket:
        """A fully-unconstrained symbolic packet."""
        return SymPacket.fresh(self.factory)

    def inject(
        self,
        node: str,
        port: int = 0,
        flow: Optional[SymFlow] = None,
    ) -> Exploration:
        """Inject a flow at ``node`` and explore every path.

        With no ``flow``, an unconstrained symbolic packet is used
        (the spoofing check of Section 4.4 does exactly this).
        """
        if node not in self.graph.models:
            raise VerificationError("inject at unknown node %r" % (node,))
        if flow is None:
            flow = SymFlow(self.fresh_packet())
        result = Exploration()
        worklist: List[Tuple[str, int, SymFlow]] = [(node, port, flow)]
        return self._explore_tracked(worklist, result, node)

    def inject_departure(
        self, node: str, flow: Optional[SymFlow] = None
    ) -> Exploration:
        """Inject a flow *departing* ``node`` (used for endpoint origins).

        The node itself is recorded as trace position 0 with port -1 (it
        is where the traffic originates, not a hop it traverses), then
        the flow is forked onto every connected output of the node.
        """
        if node not in self.graph.models:
            raise VerificationError("inject at unknown node %r" % (node,))
        if flow is None:
            flow = SymFlow(self.fresh_packet())
        if flow._history_shared:
            flow._own_history()
        flow.trace.append(TraceEntry(node, -1, flow.packet.snapshot()))
        result = Exploration()
        result.arrivals.setdefault((node, -1), []).append(flow)
        outputs = self.graph.connected_outputs(node)
        worklist: List[Tuple[str, int, SymFlow]] = []
        for index, out_port in enumerate(outputs):
            nxt = self.graph.successor(node, out_port)
            branch = flow if index == len(outputs) - 1 else flow.fork()
            worklist.append((nxt[0], nxt[1], branch))
        if not worklist:
            result.dropped.append(flow)
        return self._explore_tracked(worklist, result, node)

    def _explore_tracked(
        self,
        worklist: List[Tuple[str, int, SymFlow]],
        result: Exploration,
        origin: str,
    ) -> Exploration:
        """Run :meth:`_explore` under an ``explore`` span, attributing
        the tuning-counter deltas to this exploration."""
        forks0 = OPT.forks
        prunes0 = OPT.prunes
        memo0 = OPT.memo_hits
        cow0 = OPT.cow_copies
        with self.obs.tracer.span("explore", node=origin) as span:
            self._explore(worklist, result)
            result.forks += OPT.forks - forks0
            result.pruned += OPT.prunes - prunes0
            result.memo_hits += OPT.memo_hits - memo0
            result.cow_copies += OPT.cow_copies - cow0
            span.set("steps", result.steps)
            span.set("forks", result.forks)
            span.set("pruned", result.pruned)
            span.set("memo_hits", result.memo_hits)
            span.set("delivered", len(result.delivered))
            span.set("dropped", len(result.dropped))
        self._c_explorations.inc()
        self._c_steps.inc(result.steps)
        self._c_forks.inc(result.forks)
        self._c_prunes.inc(result.pruned)
        self._c_memo.inc(result.memo_hits)
        self._c_cow.inc(result.cow_copies)
        return result

    def _explore(
        self,
        worklist: List[Tuple[str, int, SymFlow]],
        result: Exploration,
    ) -> Exploration:
        # The worklist loop runs once per model evaluation in *both*
        # modes (pruning never changes the step count), so everything
        # here is hoisted into locals: each lookup saved is saved for
        # every step of every exploration.
        graph = self.graph
        models = graph.models
        sinks = graph.sinks
        edges_get = graph.edges.get
        context = self.context
        max_hops = self.max_hops
        max_steps = self.max_steps
        arrivals_setdefault = result.arrivals.setdefault
        delivered_append = result.delivered.append
        dropped_append = result.dropped.append
        worklist_pop = worklist.pop
        worklist_append = worklist.append
        entry_cls = TraceEntry
        steps = result.steps
        # Composed segment chains are replayed inline below -- byte for
        # byte the generic path, so gating on OPT keeps seed mode exact.
        summaries = self.summaries
        if summaries is not None and OPT.enabled:
            segment_get = summaries.tables_for(graph).segments.get
        else:
            segment_get = None
        try:
            while worklist:
                current_node, in_port, current = worklist_pop()
                if not current.alive:
                    dropped_append(current)
                    continue
                if segment_get is not None:
                    hops = segment_get((current_node, in_port))
                    if hops is not None:
                        # Replay the composed segment for this one flow.
                        # Per hop this runs the exact per-step protocol
                        # of the generic loop; forks on the chain's one
                        # wired output spill back to the worklist (all
                        # but the last, which the seed's LIFO pop would
                        # process next and which we carry instead), and
                        # outputs on any other port dangle and drop.
                        index = 0
                        n_hops = len(hops)
                        while index < n_hops:
                            hop = hops[index]
                            if len(current.trace) >= max_hops:
                                raise VerificationError(
                                    "flow exceeded %d hops (loop in the"
                                    " model graph?)" % max_hops
                                )
                            steps += 1
                            if steps > max_steps:
                                raise VerificationError(
                                    "exploration exceeded %d steps"
                                    % max_steps
                                )
                            if current._history_shared:
                                current._own_history()
                            packet = current.packet
                            snap = packet._snapshot
                            if snap is None:
                                snap = packet.snapshot()
                            current.trace.append(
                                entry_cls(hop.node, hop.port, snap)
                            )
                            arrivals_setdefault(
                                (hop.node, hop.port), []
                            ).append(current)
                            if hop.is_sink:
                                delivered_append(current)
                                break
                            outputs = hop.program(
                                context, hop.node, hop.port, current
                            )
                            if not outputs:
                                dropped_append(current)
                                break
                            wired = hop.wired_port
                            carry = None
                            for out_port, out_flow in outputs:
                                if not out_flow.alive \
                                        or out_port != wired:
                                    dropped_append(out_flow)
                                    continue
                                if carry is not None:
                                    worklist_append((
                                        hop.succ_node, hop.succ_port,
                                        carry,
                                    ))
                                carry = out_flow
                            if carry is None:
                                break
                            current = carry
                            index += 1
                            if index == n_hops:
                                worklist_append((
                                    hop.succ_node, hop.succ_port,
                                    current,
                                ))
                        continue
                if len(current.trace) >= max_hops:
                    raise VerificationError(
                        "flow exceeded %d hops (loop in the model"
                        " graph?)" % max_hops
                    )
                steps += 1
                if steps > max_steps:
                    raise VerificationError(
                        "exploration exceeded %d steps" % max_steps
                    )
                if current._history_shared:
                    current._own_history()
                packet = current.packet
                snap = packet._snapshot
                if snap is None:  # always taken in seed mode
                    snap = packet.snapshot()
                current.trace.append(
                    entry_cls(current_node, in_port, snap)
                )
                arrivals_setdefault(
                    (current_node, in_port), []
                ).append(current)
                if sinks[current_node]:
                    delivered_append(current)
                    continue
                outputs = models[current_node](
                    context, current_node, in_port, current
                )
                if not outputs:
                    dropped_append(current)
                    continue
                for out_port, out_flow in outputs:
                    if not out_flow.alive:
                        dropped_append(out_flow)
                        continue
                    nxt = edges_get((current_node, out_port))
                    if nxt is None:
                        dropped_append(out_flow)
                        continue
                    worklist_append((nxt[0], nxt[1], out_flow))
        finally:
            result.steps = steps
        return result
