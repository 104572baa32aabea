"""Multicast replication element (Table 1 "Multicast" row)."""

from __future__ import annotations

from typing import List

from repro.click.element import (
    Element,
    PushBatchResult,
    PushResult,
    register_element,
)
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError


@register_element("Multicast")
class Multicast(Element):
    """Replicates each packet to a fixed list of destination addresses.

    ``Multicast(ADDR1, ADDR2, ...)`` -- one copy per address, all out
    port 0 with the destination rewritten.  Because the destination set
    is a static constant list, static analysis can check every generated
    destination against the requester's white-list, which is why Table 1
    marks multicast safe (checkable) for third parties.
    """

    cycle_cost = 1.8
    is_multiplying = True

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ConfigError("Multicast needs at least one destination")
        self.destinations = [parse_ip(a) for a in args]

    def push(self, port: int, packet) -> PushResult:
        results: PushResult = []
        for index, dest in enumerate(self.destinations):
            copy = packet if index == len(self.destinations) - 1 \
                else packet.copy()
            copy.ip_dst = dest
            results.append((0, copy))
        return results

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        # One flat port-0 group in packet-major order (all of packet 1's
        # copies before packet 2's), matching the scalar egress order;
        # the last destination reuses the original packet, like push().
        destinations = self.destinations
        last = len(destinations) - 1
        out: List = []
        append = out.append
        for packet in packets:
            for index, dest in enumerate(destinations):
                copy = packet if index == last else packet.copy()
                copy.ip_dst = dest
                append(copy)
        return [(0, out)]
