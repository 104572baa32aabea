"""Application endpoints used in the paper's walkthroughs.

``EchoResponder`` is the content-provider server of Figure 2: it answers
each request by swapping the source and destination addresses of the
incoming packet -- the canonical case where symbolic execution proves
that an in-network deployment only replies to implicitly-authorized
destinations (``IPdst = IPsrc``).
"""

from __future__ import annotations

from typing import List

from repro.click.element import Element, PushResult, register_element
from repro.click.packet import PAYLOAD, UDP


@register_element("EchoResponder")
class EchoResponder(Element):
    """The Figure 2 server: reply to UDP by swapping src and dst.

    Non-UDP packets are dropped, exactly like the paper's pseudocode.
    An optional payload argument replaces the response payload.
    """

    cycle_cost = 1.0

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.response_payload = args[0].encode() if args else None
        self.replies = 0

    def push(self, port: int, packet) -> PushResult:
        if packet.ip_proto != UDP:
            return []
        packet.ip_src, packet.ip_dst = packet.ip_dst, packet.ip_src
        packet.tp_src, packet.tp_dst = packet.tp_dst, packet.tp_src
        if self.response_payload is not None:
            packet.payload = self.response_payload
        self.replies += 1
        return [(0, packet)]


@register_element("ReverseProxy")
class ReverseProxy(Element):
    """Stock reverse-HTTP-proxy processing module (squid-based in the
    paper).  Forwards requests to a configured origin, rewriting the
    destination; responses are relayed back to the original client.

    ``ReverseProxy(ORIGIN_ADDR, ORIGIN_PORT)``.
    """

    n_inputs = 2
    n_outputs = 2
    stateful = True
    cycle_cost = 2.5

    CLIENT_SIDE = 0
    ORIGIN_SIDE = 1

    def configure(self, args: List[str]) -> None:
        from repro.click.element import parse_int_arg
        from repro.common.addr import parse_ip

        self.require_args(args, 2)
        self.origin_addr = parse_ip(args[0])
        self.origin_port = parse_int_arg(args[1], "origin port")
        # upstream source port -> (client addr, client port, own addr);
        # the proxy reuses the client's source port upstream, so the
        # origin's response port identifies the session.
        self.sessions = {}

    def push(self, port: int, packet) -> PushResult:
        if port == self.CLIENT_SIDE:
            own_addr = packet.ip_dst  # the address the client contacted
            self.sessions[packet.tp_src] = (
                packet.ip_src, packet.tp_src, own_addr,
            )
            packet.ip_src = own_addr
            packet.ip_dst = self.origin_addr
            packet.tp_dst = self.origin_port
            return [(self.ORIGIN_SIDE, packet)]
        # Response from the origin: relay to the recorded client,
        # sourced from the proxy's own address.
        session = self.sessions.get(packet.tp_dst)
        if session is None:
            return []
        client_addr, client_port, own_addr = session
        packet.ip_src = own_addr
        packet.ip_dst = client_addr
        packet.tp_dst = client_port
        return [(self.CLIENT_SIDE, packet)]


@register_element("GeoDNSServer")
class GeoDNSServer(Element):
    """Stock geolocation DNS server: answers queries with the replica
    nearest to the querying client.

    ``GeoDNSServer(REPLICA1, REPLICA2, ...)``.  "Nearest" is modelled
    by numeric distance between address integers, standing in for the
    geolocation database of the real appliance; the CDN use case
    (:mod:`repro.usecases.cdn`) supplies a real latency matrix instead.
    """

    cycle_cost = 1.2

    def configure(self, args: List[str]) -> None:
        from repro.common.addr import parse_ip
        from repro.common.errors import ConfigError

        if not args:
            raise ConfigError("GeoDNSServer needs at least one replica")
        self.replicas = [parse_ip(a) for a in args]
        self.answers = 0

    def nearest_replica(self, client_addr: int) -> int:
        """The replica with minimal address distance to the client."""
        return min(self.replicas, key=lambda r: abs(r - client_addr))

    #: DNS responses are much larger than queries -- the property
    #: amplification attacks exploit (Section 7).
    RESPONSE_BYTES = 512

    def push(self, port: int, packet) -> PushResult:
        replica = self.nearest_replica(packet.ip_src)
        packet.ip_src, packet.ip_dst = packet.ip_dst, packet.ip_src
        packet.tp_src, packet.tp_dst = packet.tp_dst, packet.tp_src
        packet.payload = ("A %s" % replica).encode()
        packet.length = max(packet.length, self.RESPONSE_BYTES)
        self.answers += 1
        return [(0, packet)]


@register_element("LoadBalancer")
class LoadBalancer(Element):
    """Spreads flows across a fixed list of backend addresses.

    ``LoadBalancer(BACKEND1, BACKEND2, ...)``.  The backend is chosen
    per flow (hash of the 5-tuple), so a flow's packets stick to one
    backend.  Because the backend set is a static constant list,
    static analysis can check every possible destination against the
    requester's white-list -- a content provider may deploy one in
    front of its own replicas.
    """

    stateful = False  # flow->backend is a pure hash, no stored state
    cycle_cost = 1.6

    def configure(self, args: List[str]) -> None:
        from repro.common.addr import parse_ip
        from repro.common.errors import ConfigError

        if not args:
            raise ConfigError("LoadBalancer needs at least one backend")
        self.backends = [parse_ip(a) for a in args]
        self.assignments = {}

    def push(self, port: int, packet) -> PushResult:
        key = packet.flow_key()
        index = hash(key) % len(self.backends)
        self.assignments[key] = index
        packet.ip_dst = self.backends[index]
        return [(0, packet)]


@register_element("ExplicitProxy")
class ExplicitProxy(Element):
    """Stock explicit (forward) proxy: clients address it directly and
    it fetches arbitrary destinations on their behalf.

    ``ExplicitProxy(PROXY_ADDR)``.  The upstream destination is taken
    from the request payload at run time, so static analysis cannot
    bound it: allowed for the operator's own clients (who may reach any
    destination anyway) but sandboxed for third parties.
    """

    stateful = True
    cycle_cost = 2.5

    def configure(self, args: List[str]) -> None:
        from repro.common.addr import parse_ip

        self.require_args(args, 1)
        self.proxy_addr = parse_ip(args[0])
        self.fetches = 0

    def push(self, port: int, packet) -> PushResult:
        import re

        from repro.common.addr import parse_ip
        from repro.common.errors import ConfigError

        payload = getattr(packet, PAYLOAD, None) or b""
        if isinstance(payload, bytes):
            payload = payload.decode(errors="ignore")
        upstream = None
        for match in re.finditer(r"\d+\.\d+\.\d+\.\d+", payload):
            try:
                upstream = parse_ip(match.group())
                break
            except ConfigError:
                continue
        if upstream is None:
            return []
        packet.ip_src = self.proxy_addr
        packet.ip_dst = upstream
        self.fetches += 1
        return [(0, packet)]


@register_element("X86VM")
class X86VM(Element):
    """An opaque x86 virtual machine running arbitrary tenant code.

    The dataplane behaviour is a configurable passthrough, but the
    element's *symbolic model* is "anything can happen": every header
    field becomes unconstrained, so static analysis can never certify
    it and the controller always sandboxes it (Table 1, last row).
    """

    stateful = True
    cycle_cost = 10.0

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.image = args[0] if args else "generic"

    def push(self, port: int, packet) -> PushResult:
        return [(0, packet)]
