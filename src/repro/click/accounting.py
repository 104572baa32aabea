"""Accounting sinks: where the runtime's executors report packet fates.

The scalar and batch executors of :class:`~repro.click.runtime.Runtime`
know nothing about metrics.  When observability is on they hold a
*sink* and call it at the events they already distinguish:

* ``egress(entry, ingress, sink, n, nbytes, now)`` -- ``n`` packets left
  through ``sink``,
* ``end(entry, ingress, name, n, nbytes, packets)`` -- ``n`` packets'
  chains ended inside ``name``: a drop, or (``name`` buffers) entry into
  its buffer,
* ``unrouted(entry, name, n, nbytes)`` -- ``n`` packets left ``name``
  through an unconnected port,
* per hop, for sinks that ask for it by wrapping the push table
  (:meth:`wrap_pushes`).

``entry`` names the element the packets were injected into -- or
``("x", name)`` for packets a buffering element ``name`` released, which
were already counted up to and including ``name`` -- and ``ingress`` is
the simulated time they entered the configuration.  Both travel with
the call, not in the sink, so an element that re-enters the runtime
from inside ``push`` (a ``Queue`` draining into ``Unqueue``) cannot
clobber them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: Annotation carrying a buffered packet's ingress time across the buffer.
INGRESS = "obs.ingress"


def accounting_for(obs, elements, adjacency, sink_names):
    """The sink for one runtime, chosen from what its constructor can
    observe: ``None`` without an enabled bundle, deferred tallies on
    join-free graphs without multiplying elements, else exact counts."""
    if obs is None or not obs.enabled:
        return None
    indegree: Dict[str, int] = {}
    for dst, _port in adjacency.values():
        indegree[dst] = indegree.get(dst, 0) + 1
    join_free = all(n <= 1 for n in indegree.values())
    multiplies = any(e.is_multiplying for e in elements.values())
    sink = DeferredAccounting if join_free and not multiplies \
        else ExactAccounting
    return sink(obs.metrics, elements, adjacency, sink_names)


class _Accounting:
    """Metric families and per-element children shared by both sinks."""

    mode = ""
    #: Whether ``inject_batch`` must feed packets one by one through the
    #: scalar executor (per-batch events cannot carry this sink).
    per_packet = False
    #: Whether column plans must lift the packet-length column.
    needs_length = False

    def __init__(self, metrics, elements, adjacency, sink_names):
        packets = metrics.counter(
            "dataplane_packets_total",
            "Packets entering each element", labels=("element",),
        )
        bytes_ = metrics.counter(
            "dataplane_bytes_total",
            "Bytes entering each element", labels=("element",),
        )
        drops = metrics.counter(
            "dataplane_drops_total",
            "Packets dropped by each non-buffering element",
            labels=("element",),
        )
        egress = metrics.counter(
            "dataplane_egress_total",
            "Packets leaving through each sink", labels=("element",),
        )
        self._latency = metrics.histogram(
            "dataplane_egress_latency_seconds",
            "Simulated seconds from injection to egress",
        )
        self._unrouted = metrics.counter(
            "dataplane_unrouted_drops_total",
            "Packets dropped on unconnected output ports",
        )
        self._depth = metrics.gauge(
            "dataplane_queue_depth",
            "Buffered packets per queueing element", labels=("element",),
        )
        self._elements = elements
        # Buffering elements legitimately return no packets from push();
        # only non-buffering ones count an empty result as a drop.
        self._buffering = frozenset(
            name for name, e in elements.items() if e.is_buffering
        )
        #: name -> (packets, bytes, drops or None, egress or None)
        self._children = {
            name: (
                packets.labels(name),
                bytes_.labels(name),
                None if name in sink_names or name in self._buffering
                else drops.labels(name),
                egress.labels(name) if name in sink_names else None,
            )
            for name in elements
        }
        metrics.register_collector(self.observe_queue_depths)

    def observe_queue_depths(self) -> None:
        """Sample buffered-packet counts into the queue-depth gauge."""
        for name, element in self._elements.items():
            buffer = getattr(element, "buffer", None)
            if buffer is not None:
                self._depth.labels(name).set(len(buffer))
            elif hasattr(element, "backlog"):
                self._depth.labels(name).set(element.backlog)

    def wrap_pushes(self, pushes: Dict[str, Callable]) -> Dict[str, Callable]:
        """The scalar executor's ``name -> push`` table, instrumented."""
        return pushes

    def unrouted(self, entry, name: str, n: int, nbytes: int) -> None:
        self._unrouted.inc(n)


class ExactAccounting(_Accounting):
    """Real counter increments on every hop.

    Graphs with joins or multiplying elements (``Tee``, ``Multicast``)
    need them: a terminator there has no unique upstream chain to
    expand a tally along, and per-batch events cannot reconstruct
    per-hop counts once packets multiply.  Correctness wins over speed,
    so batches cross such graphs packet by packet.
    """

    mode = "exact"
    per_packet = True

    def wrap_pushes(self, pushes):
        def counted(push, inc_packets, inc_bytes):
            def hop(port, packet):
                inc_packets()
                inc_bytes(packet.length)
                return push(port, packet)
            return hop

        children = self._children
        return {
            name: counted(push, children[name][0].inc, children[name][1].inc)
            for name, push in pushes.items()
        }

    def egress(self, entry, ingress, sink, n, nbytes, now) -> None:
        self._children[sink][3].inc(n)
        self._latency.observe_count(now - ingress, n)

    def end(self, entry, ingress, name, n, nbytes, packets) -> None:
        if name in self._buffering:
            for packet in packets:
                packet.annotations[INGRESS] = ingress
        else:
            drops = self._children[name][2]
            if drops is not None:
                drops.inc(n)


class DeferredAccounting(_Accounting):
    """Nothing counted per hop; one tally per chain *termination*.

    Each event bumps a ``[packets, bytes]`` tally keyed by ``(entry,
    terminator, kind)``, and :meth:`flush` -- a registry collector, so
    every snapshot/export sees up-to-date counters -- expands the
    tallies into per-element counters by walking the terminator's
    unique upstream chain.  Exact only when every element has at most
    one upstream edge and none duplicates packets, which is what
    :func:`accounting_for` checks.  A batch records one tally per
    terminating *group*, so batch-mode metrics equal scalar-mode
    metrics at per-batch cost.
    """

    mode = "deferred"
    needs_length = True  # byte attribution for column-plan shrinks

    def __init__(self, metrics, elements, adjacency, sink_names):
        super().__init__(metrics, elements, adjacency, sink_names)
        self._parent = {
            dst: src for (src, _sp), (dst, _dp) in adjacency.items()
        }
        self._tallies: Dict[tuple, List[int]] = {}
        self._latencies: Dict[float, int] = {}
        metrics.register_collector(self.flush)

    def _tally(self, key: Tuple[object, str, str], n: int, nbytes: int):
        try:
            tally = self._tallies[key]
        except KeyError:
            tally = self._tallies[key] = [0, 0]
        tally[0] += n
        tally[1] += nbytes

    def egress(self, entry, ingress, sink, n, nbytes, now) -> None:
        # The one event on every delivered packet's path: the tally is
        # inlined, and zero latencies (synchronous traversal) are not
        # recorded at all -- flush() derives their count.
        key = (entry, sink, "egress")
        try:
            tally = self._tallies[key]
        except KeyError:
            tally = self._tallies[key] = [0, 0]
        tally[0] += n
        tally[1] += nbytes
        if now != ingress:
            latency = now - ingress
            try:
                self._latencies[latency] += n
            except KeyError:
                self._latencies[latency] = n

    def end(self, entry, ingress, name, n, nbytes, packets) -> None:
        if name in self._buffering:
            self._tally((entry, name, "pass"), n, nbytes)
            # End-to-end latency must survive the buffer: the drain
            # path (Runtime.deliver_from) reads this stamp back.
            for packet in packets:
                packet.annotations[INGRESS] = ingress
        else:
            self._tally((entry, name, "drop"), n, nbytes)

    def unrouted(self, entry, name, n, nbytes) -> None:
        self._tally((entry, name, "pass"), n, nbytes)
        self._unrouted.inc(n)

    def flush(self) -> None:
        """Expand the recorded tallies into the metric children.

        For each tally the terminator's unique upstream chain is walked
        back to the entry element; every element on it receives the
        tally's packet and byte counts (an ``("x", name)`` entry
        excludes ``name`` itself).  Drop terminations also feed the
        terminator's drop counter, and egress terminations its egress
        counter.
        """
        parent_get = self._parent.get
        children = self._children
        max_len = len(children)
        zero_latency = 0
        for (entry, term, kind), (n, nbytes) in self._tallies.items():
            exclusive = type(entry) is tuple
            target = entry[1] if exclusive else entry
            path = [term]
            node: Optional[str] = term
            while node != target and len(path) <= max_len:
                node = parent_get(node)
                if node is None:
                    break
                path.append(node)
            if exclusive and path[-1] == target:
                path.pop()
            for name in path:
                children[name][0].inc(n)
                children[name][1].inc(nbytes)
            if kind == "egress":
                children[term][3].inc(n)
                zero_latency += n
            elif kind == "drop" and children[term][2] is not None:
                children[term][2].inc(n)
        self._tallies.clear()
        # Both tables cover the same flush interval, so egress packets
        # minus non-zero observations is exactly the zero-latency count.
        for latency, count in self._latencies.items():
            self._latency.observe_count(latency, count)
            zero_latency -= count
        self._latencies.clear()
        if zero_latency > 0:
            self._latency.observe_count(0.0, zero_latency)
