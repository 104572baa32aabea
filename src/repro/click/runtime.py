"""Event-driven execution engine for Click configurations.

The runtime instantiates a :class:`~repro.click.config.ClickConfig` into
live elements and drives packets through the graph on a simulated clock.
Time only advances when timer-driven elements (queues, batchers, shapers)
need it to; plain push paths execute synchronously, exactly like Click's
push processing.

Packets that exit through ``ToNetfront``/``ToDevice`` sinks are collected
in :attr:`Runtime.output` as ``(element_name, packet, time)`` records so
tests and the platform simulator can observe egress traffic.

**One plan, two executors.**  Every ``(element, input port)`` entry
compiles once into a :class:`SegmentPlan`; one scalar worklist drives
single packets (``inject``, timer-driven ``deliver_from``) and one batch
worklist drives ``inject_batch``, crossing each plan as numpy columns
when the plan and the batch allow it and as ``push_batch`` lists
otherwise.

**Observability.**  Passing an :class:`~repro.obs.Observability` bundle
instruments the dataplane: per-element packet/byte/drop counters, an
egress counter and ingress-to-egress latency histogram (in simulated
seconds), and a queue-depth gauge sampled from buffering elements at
snapshot time.  The executors report to an accounting sink
(:mod:`repro.click.accounting`); with ``obs=None`` (the default) there
is no sink and the loops pay one local ``is None`` test per event.
"""

from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.click import columnar
from repro.click.accounting import INGRESS, accounting_for
from repro.click.config import ClickConfig
from repro.click.element import Element, create_element
from repro.common.errors import ConfigError, SimulationError

_length_of = attrgetter("length")


def _nbytes(packets) -> int:
    return sum(map(_length_of, packets))


class EgressRecord(NamedTuple):
    """One packet leaving the configuration through a sink element."""

    element: str
    packet: Any
    time: float


class SegmentPlan(NamedTuple):
    """The compiled linear run of the graph behind one entry.

    ``steps`` are ``(push_batch, push_columns, in_port, continue_port,
    element_name)`` tuples; a batch leaving a step alone on its
    ``continue_port`` goes straight into the next step, anything else
    (a partition, an off-chain emission such as ``DecIPTTL``'s expiry
    port, the last step) is dispatched through the adjacency map.  The
    last step's ``continue_port`` is always ``None``.
    """

    steps: tuple
    #: How the walk ended: ``("sink", name)`` (the sink is the last
    #: step), ``("enter", name)`` (a cycle re-enters the worklist at
    #: ``name``), or ``None`` at an element without exactly one
    #: connected output.
    terminal: Optional[Tuple[str, str]]
    #: Union of every kernel's column needs, or ``None`` when the
    #: segment cannot run as columns -- ``why_not_columns`` says why.
    column_fields: Optional[Tuple[str, ...]]
    #: Whether the packet-length column must be lifted up front
    #: (counters, or deferred byte accounting).
    need_length: bool
    why_not_columns: Optional[str]
    #: The accounting mode the plan was compiled for: ``"none"``,
    #: ``"deferred"`` or ``"exact"``.
    accounting: str

    @property
    def names(self) -> Tuple[str, ...]:
        """Element names of the steps, in order."""
        return tuple(step[4] for step in self.steps)

    @property
    def continue_ports(self) -> Tuple[Optional[int], ...]:
        return tuple(step[3] for step in self.steps)

    @property
    def tier(self) -> str:
        """``"columns"`` or ``"batch"``: how a batch of at least
        ``columnar.MIN_BATCH`` cleanly liftable packets crosses it."""
        return "batch" if self.column_fields is None else "columns"


class Runtime:
    """Instantiates and runs one Click configuration.

    >>> from repro.click import parse_config, Packet
    >>> cfg = parse_config(
    ...     "src :: FromNetfront(); dst :: ToNetfront(); src -> dst;")
    >>> rt = Runtime(cfg)
    >>> rt.inject("src", Packet())
    >>> len(rt.output)
    1
    """

    def __init__(
        self,
        config: ClickConfig,
        start_time: float = 0.0,
        obs=None,
        use_columns: Optional[bool] = None,
    ):
        config.validate()
        self.config = config
        self.now = start_time
        self.output: List[EgressRecord] = []
        self.dropped = 0
        self._event_counter = itertools.count()
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self.elements: Dict[str, Element] = {}
        for name, decl in config.elements.items():
            element = create_element(decl.class_name, name, decl.args)
            element.runtime = self
            self.elements[name] = element
        # Adjacency map for fast edge lookup: (src, port) -> (dst, port).
        self._adjacency: Dict[Tuple[str, int], Tuple[str, int]] = {
            (edge.src, edge.src_port): (edge.dst, edge.dst_port)
            for edge in config.edges
        }
        self._sink_names = frozenset(
            name for name, element in self.elements.items()
            if getattr(element, "is_sink", False)
        )
        # Connected output ports per element, for the plan compiler.
        out_ports: Dict[str, List[int]] = {}
        for src, src_port in self._adjacency:
            out_ports.setdefault(src, []).append(src_port)
        self._out_ports = {
            name: tuple(sorted(ports)) for name, ports in out_ports.items()
        }
        self._acct = accounting_for(
            obs, self.elements, self._adjacency, self._sink_names
        )
        # use_columns=None means "on whenever numpy is importable".
        self._use_columns = columnar.available() and (
            use_columns is None or bool(use_columns)
        )
        self.columnar_batches = 0
        self.columnar_packets = 0
        self.columnar_fallbacks = 0
        # Plans are compiled here for source entries and partition
        # targets, and lazily for any other injection point.
        self._plans: Dict[Tuple[str, int], SegmentPlan] = {}
        roots = {(name, 0) for name in config.sources()}
        for (src, _sp), dst_key in self._adjacency.items():
            if len(self._out_ports[src]) > 1:
                roots.add(dst_key)
        for entry in roots:
            self._compile_plan(entry)
        self._walk, self._run_batch = self._build_executors()
        for element in self.elements.values():
            element.initialize(self)

    # -- time ------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError("cannot schedule in the past")
        heapq.heappush(
            self._timers,
            (self.now + delay, next(self._event_counter), callback),
        )

    def run(self, until: Optional[float] = None) -> None:
        """Fire pending timers, advancing the clock, up to ``until``."""
        while self._timers:
            when, _, callback = self._timers[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._timers)
            self.now = max(self.now, when)
            callback()
        if until is not None:
            self.now = max(self.now, until)

    def pending_timers(self) -> int:
        """Number of timers not yet fired."""
        return len(self._timers)

    # -- traffic ---------------------------------------------------------
    def inject(
        self,
        element: str,
        packet,
        port: int = 0,
        at: Optional[float] = None,
    ) -> None:
        """Hand ``packet`` to input ``port`` of ``element``.

        With ``at`` set, injection is deferred to that simulated time
        (timers scheduled before it fire first).
        """
        if element not in self.elements:
            raise ConfigError("inject into unknown element %r" % (element,))
        if at is None:
            self._walk(element, port, packet, element, self.now)
            return
        if at < self.now:
            raise SimulationError("cannot inject in the past")
        self.schedule(
            at - self.now, lambda: self.inject(element, packet, port)
        )

    def deliver_from(self, element: Element, port: int, packet) -> None:
        """Route a packet emitted asynchronously by ``element``."""
        name = element.name
        acct = self._acct
        # A buffered packet re-enters the graph: its new chain starts
        # *after* the buffering element (already counted when the
        # packet entered it), and the original ingress time is read
        # back from the buffer-entry annotation.
        entry = ("x", name)
        ingress = self.now if acct is None \
            else packet.annotations.get(INGRESS, self.now)
        nxt = self._adjacency.get((name, port))
        if nxt is not None:
            self._walk(nxt[0], nxt[1], packet, entry, ingress)
            return
        self.dropped += 1
        if acct is not None:
            acct.unrouted(entry, name, 1, packet.length)

    def inject_batch(
        self,
        element: str,
        packets,
        port: int = 0,
        at: Optional[float] = None,
    ) -> None:
        """Hand a whole batch of packets to input ``port`` of ``element``.

        The batch executor drives packets through compiled segment
        plans (see :meth:`_compile_plan`), calling each element's
        :meth:`~repro.click.element.Element.push_batch` -- or, where
        the plan and the batch allow it, its column kernel -- once per
        batch instead of scalar ``push()`` once per packet.  Semantics
        match looping :meth:`inject` over ``packets``, with one caveat:
        when the batch partitions at a multi-output element, packets
        taking different branches may interleave differently at the
        sinks than strict per-packet order (order *within* each branch
        is preserved).

        With ``at`` set, the whole batch is deferred to that simulated
        time (timers scheduled before it fire first).
        """
        if element not in self.elements:
            raise ConfigError("inject into unknown element %r" % (element,))
        packets = list(packets)
        if not packets:
            return
        if at is not None:
            if at < self.now:
                raise SimulationError("cannot inject in the past")
            self.schedule(
                at - self.now,
                lambda: self.inject_batch(element, packets, port),
            )
        elif self._acct is not None and self._acct.per_packet:
            for packet in packets:
                self._walk(element, port, packet, element, self.now)
        else:
            self._run_batch(element, port, packets)

    # -- plans -----------------------------------------------------------
    def _compile_plan(self, key: Tuple[str, int]) -> SegmentPlan:
        """Compile the linear run of the graph starting at ``key``.

        While an element has exactly one connected output port the walk
        follows its adjacency edge, so a batch crosses the whole run
        with zero adjacency lookups.  It stops after a sink, at an
        element without exactly one connected output (the executor
        dispatches its groups generically), and at a cycle (the last
        step's emission re-enters the worklist through the adjacency
        map like any other).

        The plan is columnar only when *every* step carries a
        vectorized kernel and none buffers; otherwise
        ``why_not_columns`` names the first step that rules it out.
        """
        steps: List[tuple] = []
        terminal: Optional[Tuple[str, str]] = None
        why_not = None if self._use_columns else "columnar tier is off"
        fields: set = set()
        acct = self._acct
        need_length = acct is not None and acct.needs_length
        seen = set()
        cur = key
        while True:
            name, in_port = cur
            element = self.elements[name]
            seen.add(cur)
            if why_not is None and element.is_buffering:
                why_not = "%s buffers" % (name,)
            elif why_not is None and not element.has_column_kernel:
                why_not = "%s: %s has no column kernel" % (
                    name, element.class_name,
                )
            fields.update(element.column_fields)
            need_length = need_length or element.needs_length_column
            outs = self._out_ports.get(name, ())
            cont = outs[0] if len(outs) == 1 else None
            if name in self._sink_names:
                terminal = ("sink", name)
                cont = None
            elif cont is not None:
                cur = self._adjacency[(name, cont)]
                if cur in seen:
                    terminal = ("enter", cur[0])
                    cont = None
            steps.append((
                element.push_batch,
                element.push_columns if element.has_column_kernel else None,
                in_port, cont, name,
            ))
            if cont is None:
                break
        plan = self._plans[key] = SegmentPlan(
            tuple(steps), terminal,
            tuple(sorted(fields)) if why_not is None else None,
            need_length, why_not, "none" if acct is None else acct.mode,
        )
        return plan

    def segment_plan(
        self, element: str, port: int = 0
    ) -> Optional[SegmentPlan]:
        """The plan compiled for ``(element, port)``, for inspection.

        ``None`` when that entry has not been compiled (yet): mid-graph
        entries compile on first use, and looking does not compile.
        """
        return self._plans.get((element, port))

    # -- executors -------------------------------------------------------
    def _build_executors(self):
        """Build the scalar and the batch worklist, once per runtime.

        Everything hot is bound as a closure variable so neither loop
        chases ``self`` attributes per packet, and the accounting
        sink's events are locals that are ``None`` when obs is off.
        """
        rt = self
        acct = self._acct
        egress = end = unrouted = None
        pushes = {name: e.push for name, e in self.elements.items()}
        if acct is not None:
            egress, end, unrouted = acct.egress, acct.end, acct.unrouted
            pushes = acct.wrap_pushes(pushes)
        sink_names = self._sink_names
        adjacency_get = self._adjacency.get
        plans = self._plans
        compile_plan = self._compile_plan
        output_append = self.output.append
        output_extend = self.output.extend
        record = EgressRecord
        repeat = itertools.repeat
        lift = columnar.PacketColumns.from_packets

        def walk(name, port, packet, entry, ingress):
            # Iterative worklist rather than recursion, so arbitrarily
            # deep linear configurations cannot blow the interpreter
            # stack.  The stack holds pending deliveries and later
            # siblings are appended in reverse, which reproduces the
            # recursive depth-first order exactly: an element's first
            # emission (and its entire downstream subtree) resolves
            # before its second emission.
            stack = [(name, port, packet)]
            pop = stack.pop
            while stack:
                name, port, packet = pop()
                results = pushes[name](port, packet)
                if not results:
                    # The chain ends here: a drop, or entry into a buffer.
                    if end is not None:
                        end(entry, ingress, name, 1, packet.length, (packet,))
                    continue
                if name in sink_names:
                    now = rt.now
                    for _port, out in results:
                        output_append(record(name, out, now))
                        if egress is not None:
                            egress(entry, ingress, name, 1, out.length, now)
                    continue
                if len(results) == 1:
                    nxt = adjacency_get((name, results[0][0]))
                    if nxt is not None:
                        stack.append((nxt[0], nxt[1], results[0][1]))
                        continue
                for out_port, out in reversed(results):
                    nxt = adjacency_get((name, out_port))
                    if nxt is not None:
                        stack.append((nxt[0], nxt[1], out))
                        continue
                    # Unconnected output port: Click would refuse to
                    # initialize; we count it as a drop to keep
                    # partially-wired tests simple.
                    rt.dropped += 1
                    if unrouted is not None:
                        unrouted(entry, name, 1, out.length)

        def run_lists(plan, pkts, entry, ingress):
            """Cross ``plan`` via ``push_batch``; what its end emitted."""
            for push_batch, _kernel, in_port, cont, name in plan.steps:
                groups = push_batch(in_port, pkts)
                if end is not None:
                    lost = len(pkts) - sum(len(sub) for _p, sub in groups)
                    if lost:
                        # Byte attribution is the before/after length
                        # difference: exact unless an element both
                        # rewrites lengths and drops in one step (no
                        # registered element does).
                        nbytes = _nbytes(pkts) - sum(
                            _nbytes(sub) for _p, sub in groups
                        )
                        end(entry, ingress, name, lost, nbytes, pkts)
                if cont is None or len(groups) != 1 or groups[0][0] != cont:
                    return name, groups
                pkts = groups[0][1]

        def run_columns(plan, pkts, entry, ingress):
            """Cross ``plan`` as columns; ``None`` (without side
            effects) when the batch cannot be lifted -- a side-table
            column -- so the caller falls back to :func:`run_lists`.
            Emitted groups are materialized back to packets."""
            cols = lift(pkts, plan.column_fields, plan.need_length)
            if cols.side:
                rt.columnar_fallbacks += 1
                return None
            rt.columnar_batches += 1
            rt.columnar_packets += cols.n
            for _push_batch, kernel, in_port, cont, name in plan.steps:
                if end is not None:
                    # A kernel kills rows in place: count before it runs.
                    n_in, bytes_in = cols.n_alive, cols.bytes_alive()
                groups = kernel(in_port, cols)
                if end is not None:
                    lost = n_in - sum(sub.n_alive for _p, sub in groups)
                    if lost:
                        nbytes = bytes_in - sum(
                            sub.bytes_alive() for _p, sub in groups
                        )
                        end(entry, ingress, name, lost, nbytes, ())
                if cont is None or len(groups) != 1 or groups[0][0] != cont:
                    return name, [(p, sub.to_packets()) for p, sub in groups]
                cols = groups[0][1]

        def run_batch(entry, port, packets):
            now = rt.now
            min_batch = columnar.MIN_BATCH
            work = [(entry, port, packets)]
            pop = work.pop
            while work:
                name, in_port, pkts = pop()
                try:
                    plan = plans[(name, in_port)]
                except KeyError:
                    plan = compile_plan((name, in_port))
                emitted = None
                if plan.column_fields is not None and len(pkts) >= min_batch:
                    emitted = run_columns(plan, pkts, entry, now)
                if emitted is None:
                    emitted = run_lists(plan, pkts, entry, now)
                src, groups = emitted
                if src in sink_names:
                    for _port, out in groups:
                        # tuple.__new__ over a zipped iterator is the
                        # cheapest way to mint NamedTuple records in
                        # bulk (~2x faster than _make or a
                        # comprehension on this path).
                        output_extend(map(
                            tuple.__new__, repeat(record),
                            zip(repeat(src), out, repeat(now)),
                        ))
                        if egress is not None:
                            egress(
                                entry, now, src, len(out), _nbytes(out), now
                            )
                    continue
                # Reversed, so the first group is popped (and fully
                # processed) first, like depth-first scalar routing.
                for out_port, sub in reversed(groups):
                    nxt = adjacency_get((src, out_port))
                    if nxt is not None:
                        work.append((nxt[0], nxt[1], sub))
                        continue
                    rt.dropped += len(sub)
                    if unrouted is not None:
                        unrouted(entry, src, len(sub), _nbytes(sub))

        return walk, run_batch

    # -- introspection -----------------------------------------------------
    def numeric_element_state(self) -> Dict[str, Dict[str, float]]:
        """Public int/float attributes (plus buffer depths) per element.

        The observable counter state of the dataplane -- what the
        differential tests compare between execution modes, and what
        sharded workers (:mod:`repro.click.sharding`) report back so
        per-shard element counters can be merged.  Private
        (underscore-prefixed) attributes are excluded.
        """
        state: Dict[str, Dict[str, float]] = {}
        for name, element in self.elements.items():
            attrs = {
                key: value for key, value in vars(element).items()
                if not key.startswith("_")
                and isinstance(value, (int, float))
            }
            buffer = getattr(element, "buffer", None)
            if buffer is not None:
                attrs["buffered"] = len(buffer)
            state[name] = attrs
        return state

    def take_output(self) -> List[EgressRecord]:
        """Return and clear the collected egress records."""
        records = list(self.output)
        # Clear in place: the executors pre-bind ``output.append``, so
        # the list object must stay the same across the runtime's life.
        self.output.clear()
        return records

    def element(self, name: str) -> Element:
        """The live element instance for ``name``."""
        return self.elements[name]
