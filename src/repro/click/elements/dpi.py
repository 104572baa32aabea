"""Deep packet inspection and application-layer middlebox elements.

These model the operator middleboxes of Figure 3 (HTTP optimizer, web
cache) and the Table 1 rows DPI / transparent proxy.  DPI and the
transparent proxy touch traffic that is not addressed to them, which is
why Table 1 denies them to third parties and clients but allows them to
the operator.
"""

from __future__ import annotations

from typing import List

from repro.click.element import Element, PushResult, register_element
from repro.click.packet import PAYLOAD
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError


@register_element("DPI")
class DPI(Element):
    """Payload pattern matcher: matches exit port 0, misses port 1.

    ``DPI(PATTERN [, PATTERN...])`` -- substring match over the payload.
    """

    n_outputs = 2
    cycle_cost = 3.0

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ConfigError("DPI needs at least one pattern")
        self.patterns = [a.encode() if isinstance(a, str) else a
                         for a in args]
        self.matches = 0

    def push(self, port: int, packet) -> PushResult:
        payload = getattr(packet, PAYLOAD, None) or b""
        if isinstance(payload, str):
            payload = payload.encode()
        for pattern in self.patterns:
            if pattern in payload:
                self.matches += 1
                return [(0, packet)]
        return [(1, packet)]


@register_element("TransparentProxy")
class TransparentProxy(Element):
    """Redirects matching traffic to a proxy address, transparently.

    ``TransparentProxy(PROXY_ADDR, PROXY_PORT)``.  Rewrites the
    destination of port-80 traffic to the proxy -- processing traffic
    that was *not* addressed to it, the defining property that makes it
    operator-only in Table 1.
    """

    stateful = True
    cycle_cost = 2.5

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 2)
        self.proxy_addr = parse_ip(args[0])
        if not args[1].strip().isdigit():
            raise ConfigError("bad proxy port %r" % (args[1],))
        self.proxy_port = int(args[1])
        self.redirects = 0
        # original destination by flow key, to restore on responses.
        self.original_dst = {}

    def push(self, port: int, packet) -> PushResult:
        if packet.tp_dst == 80:
            self.original_dst[packet.flow_key()] = packet.ip_dst
            packet.ip_dst = self.proxy_addr
            packet.tp_dst = self.proxy_port
            self.redirects += 1
        return [(0, packet)]


@register_element("HTTPOptimizer")
class HTTPOptimizer(Element):
    """Operator HTTP optimizer (Figure 3): normalizes HTTP headers.

    Models the application optimizers that alter HTTP headers (e.g.
    ``Accept-Encoding``), the behaviour the HTTP-vs-HTTPS use case in
    Section 8 wants to opt out of via a payload invariant.
    """

    cycle_cost = 2.8

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.rewrites = 0

    def push(self, port: int, packet) -> PushResult:
        payload = getattr(packet, PAYLOAD, None) or b""
        if isinstance(payload, str):
            payload = payload.encode()
        if b"Accept-Encoding:" in payload:
            packet.payload = payload.replace(
                b"Accept-Encoding: gzip", b"Accept-Encoding: identity"
            )
            self.rewrites += 1
        return [(0, packet)]


@register_element("WebCache")
class WebCache(Element):
    """Operator web cache (Figure 3): answers repeat GETs locally.

    Cache hits are answered directly out port 1 (towards the client,
    with source/destination swapped); misses pass through port 0.
    """

    n_outputs = 2
    stateful = True
    cycle_cost = 2.5

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.cache = set()
        self.hits = 0
        self.misses = 0

    def push(self, port: int, packet) -> PushResult:
        payload = getattr(packet, PAYLOAD, None) or b""
        if isinstance(payload, str):
            payload = payload.encode()
        if not payload.startswith(b"GET "):
            return [(0, packet)]
        key = (packet.ip_dst, payload.split(b"\r\n", 1)[0])
        if key in self.cache:
            self.hits += 1
            response = packet.copy()
            response.ip_src, response.ip_dst = packet.ip_dst, packet.ip_src
            response.tp_src, response.tp_dst = packet.tp_dst, packet.tp_src
            return [(1, response)]
        self.cache.add(key)
        self.misses += 1
        return [(0, packet)]
