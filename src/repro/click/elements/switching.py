"""Port-selection elements and an ICMP responder.

The remaining vanilla-Click vocabulary the paper's configurations could
reasonably use: static and round-robin output switches, a rate meter,
and an ICMP ping responder (another safe responder-style module in the
EchoResponder family).  The TTL/TOS stampers are ``SetField``
declarations in :mod:`repro.click.elements.rewrite`.
"""

from __future__ import annotations

from typing import List

from repro.click.element import (
    Element,
    PushBatchResult,
    PushColumnsResult,
    PushResult,
    parse_float_arg,
    parse_int_arg,
    register_element,
)
from repro.click.packet import ICMP
from repro.common.errors import ConfigError


@register_element("Switch")
class Switch(Element):
    """Emits every packet on one statically configured output port.

    ``Switch(K)``; ``Switch(-1)`` drops everything (Click semantics).
    """

    n_outputs = None
    cycle_cost = 0.2
    has_column_kernel = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1)
        self.port = parse_int_arg(args[0], "output port")
        if self.port < -1:
            raise ConfigError("Switch port must be >= -1")

    def push(self, port: int, packet) -> PushResult:
        if self.port < 0:
            return []
        return [(self.port, packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        if self.port < 0:
            return []
        return [(self.port, packets)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        if self.port < 0:
            return []
        return [(self.port, cols)]


@register_element("RoundRobinSwitch")
class RoundRobinSwitch(Element):
    """Spreads packets across its outputs in round-robin order.

    ``RoundRobinSwitch(N)``; with no argument the number of connected
    outputs is used.
    """

    n_outputs = None
    cycle_cost = 0.3

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.fanout = parse_int_arg(args[0], "fanout") if args else None
        self._next = 0

    def initialize(self, runtime) -> None:
        if self.fanout is None:
            used = runtime.config.used_output_ports(self.name)
            self.fanout = (max(used) + 1) if used else 1

    def push(self, port: int, packet) -> PushResult:
        out = self._next % max(1, self.fanout)
        self._next += 1
        return [(out, packet)]

    def shard_unsafe_reason(self):
        # The output port depends on how many packets came before,
        # across all flows -- sharding would change every assignment.
        return "spreads packets round-robin in cross-flow arrival order"


@register_element("Meter")
class Meter(Element):
    """Rate-based classifier: packets within RATE packets/second exit
    port 0, the excess exits port 1 (Click's Meter).

    ``Meter(RATE_PPS)``.
    """

    n_outputs = 2
    cycle_cost = 0.6

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1)
        self.rate = parse_float_arg(args[0], "rate")
        if self.rate <= 0:
            raise ConfigError("Meter rate must be positive")
        self._window_start = 0.0
        self._window_count = 0

    def push(self, port: int, packet) -> PushResult:
        now = self.runtime.now if self.runtime else 0.0
        if now - self._window_start >= 1.0:
            self._window_start = now
            self._window_count = 0
        self._window_count += 1
        if self._window_count <= self.rate:
            return [(0, packet)]
        return [(1, packet)]

    def shard_unsafe_reason(self):
        # The rate window counts packets of *all* flows together; N
        # shards would each admit a full RATE before marking excess.
        return "measures an aggregate rate across all flows"


@register_element("ICMPPingResponder")
class ICMPPingResponder(Element):
    """Answers ICMP echo requests by swapping source and destination.

    Non-ICMP traffic is dropped.  Like EchoResponder, statically
    provable safe: replies only go to whoever asked.
    """

    cycle_cost = 0.8

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 0)
        self.replies = 0

    def push(self, port: int, packet) -> PushResult:
        if packet.ip_proto != ICMP:
            return []
        packet.ip_src, packet.ip_dst = packet.ip_dst, packet.ip_src
        self.replies += 1
        return [(0, packet)]
