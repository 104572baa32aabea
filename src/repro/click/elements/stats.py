"""Measurement and plumbing elements: counters, flow meters, tees, paint.

``FlowMeter`` is the Table 1 "flow meter" middlebox: it observes flows
without modifying packets, which is why static analysis proves it safe
for every requester role.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.click.element import (
    Element,
    PushBatchResult,
    PushColumnsResult,
    PushResult,
    parse_int_arg,
    register_element,
)
from repro.click.packet import IP_DST, IP_PROTO, IP_SRC, TP_DST, TP_SRC


@register_element("Counter")
class Counter(Element):
    """Counts packets and bytes; forwards unchanged."""

    cycle_cost = 0.3
    has_column_kernel = True
    needs_length_column = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 0)
        self.packets = 0
        self.bytes = 0

    def push(self, port: int, packet) -> PushResult:
        self.packets += 1
        self.bytes += packet.length
        return [(0, packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        self.packets += len(packets)
        self.bytes += sum(p.length for p in packets)
        return [(0, packets)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        self.packets += cols.n_alive
        self.bytes += cols.bytes_alive()
        return [(0, cols)]


@register_element("FlowMeter")
class FlowMeter(Element):
    """Per-flow packet/byte accounting; forwards unchanged.

    Keeps per-flow state, but never alters traffic, so it is safe for
    any requester (Table 1) -- it is however excluded from consolidation
    because its memory grows with the number of flows (Section 5).
    """

    stateful = True
    cycle_cost = 1.0
    has_column_kernel = True
    column_fields = (IP_SRC, IP_DST, IP_PROTO, TP_SRC, TP_DST)
    needs_length_column = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 0)
        self.flow_packets: Dict[tuple, int] = defaultdict(int)
        self.flow_bytes: Dict[tuple, int] = defaultdict(int)

    def push(self, port: int, packet) -> PushResult:
        key = packet.flow_key()
        self.flow_packets[key] += 1
        self.flow_bytes[key] += packet.length
        return [(0, packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        flow_packets = self.flow_packets
        flow_bytes = self.flow_bytes
        for packet in packets:
            key = packet.flow_key()
            flow_packets[key] += 1
            flow_bytes[key] += packet.length
        return [(0, packets)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        # Keys come from the *columns*, not packet.flow_key(): an
        # upstream kernel may have rewritten 5-tuple columns that are
        # not materialized back to the packets yet.
        rows = cols.alive_rows()
        key_cols = [cols.column(f) for f in self.column_fields]
        lengths = cols.lengths()
        if rows is not None:
            key_cols = [c[rows] for c in key_cols]
            lengths = lengths[rows]
        flow_packets = self.flow_packets
        flow_bytes = self.flow_bytes
        columns = [c.tolist() for c in key_cols]
        for src, dst, proto, sport, dport, length in zip(
            columns[0], columns[1], columns[2], columns[3], columns[4],
            lengths.tolist(),
        ):
            key = (src, dst, proto, sport, dport)
            flow_packets[key] += 1
            flow_bytes[key] += length
        return [(0, cols)]

    @property
    def flow_count(self) -> int:
        """Number of distinct flows observed."""
        return len(self.flow_packets)

    def shard_unsafe_reason(self):
        # Stateful, but every table is keyed by the packet's flow key:
        # flows partitioned across shards never share an entry, so
        # per-shard tables union to exactly the single-process table.
        return None


@register_element("Tee")
class Tee(Element):
    """Copies each packet to every output port.

    ``Tee(N)`` declares N outputs; with no argument the number of
    connected outputs is used.
    """

    n_outputs = None
    cycle_cost = 0.5
    is_multiplying = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.fanout = parse_int_arg(args[0], "fanout") if args else None

    def initialize(self, runtime) -> None:
        if self.fanout is None:
            used = runtime.config.used_output_ports(self.name)
            self.fanout = (max(used) + 1) if used else 1

    def push(self, port: int, packet) -> PushResult:
        results = [(0, packet)]
        for out in range(1, self.fanout):
            results.append((out, packet.copy()))
        return results

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        # Replicate per batch: the originals go out port 0, each extra
        # port gets one fresh copy per packet (scalar order preserved).
        results = [(0, packets)]
        for out in range(1, self.fanout):
            results.append((out, [p.copy() for p in packets]))
        return results


@register_element("Paint")
class Paint(Element):
    """Stamps a color annotation on each packet."""

    cycle_cost = 0.3
    has_column_kernel = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1)
        self.color = parse_int_arg(args[0], "color")

    def push(self, port: int, packet) -> PushResult:
        packet.annotations["paint"] = self.color
        return [(0, packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        color = self.color
        for packet in packets:
            packet.annotations["paint"] = color
        return [(0, packets)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        cols.annotate("paint", self.color)
        return [(0, cols)]


@register_element("PaintSwitch")
class PaintSwitch(Element):
    """Routes each packet out the port equal to its paint color.

    Unpainted packets exit port 0.
    """

    n_outputs = None
    cycle_cost = 0.4

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 0)

    def push(self, port: int, packet) -> PushResult:
        return [(int(packet.annotation("paint", 0)), packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        groups = {}
        for packet in packets:
            out = int(packet.annotation("paint", 0))
            try:
                groups[out].append(packet)
            except KeyError:
                groups[out] = [packet]
        return list(groups.items())
