"""Header rewriting elements.

``IPRewriter`` follows Click's pattern syntax
(``pattern SADDR SPORT DADDR DPORT FOUTPUT ROUTPUT``) with ``-`` meaning
"leave unchanged"; it is the workhorse behind the paper's NAT, the
push-notification forwarder of Figure 4, and the Table 1 "NAT" row.
The constant setters (one ``SetField`` base) and TTL manipulation live
here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.click import columnar
from repro.click.element import (
    Element,
    PushBatchResult,
    PushColumnsResult,
    PushResult,
    parse_int_arg,
    register_element,
)
from repro.click.packet import IP_DST, IP_PROTO, IP_SRC, IP_TOS, IP_TTL, \
    TP_DST, TP_SRC
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError
from repro.common.intervals import IntervalSet
from repro.policy.flowspec import FIELD_UNIVERSES


@dataclass
class RewritePattern:
    """One parsed ``pattern`` clause of an IPRewriter."""

    src_addr: Optional[int]              # None = unchanged
    src_port: Optional[Tuple[int, int]]  # None = unchanged; (lo,hi) range
    dst_addr: Optional[int]
    dst_port: Optional[Tuple[int, int]]
    fwd_output: int
    rev_output: int

    @property
    def allocates_ports(self) -> bool:
        """Whether any port field maps to a range (needs per-flow state)."""
        for port_range in (self.src_port, self.dst_port):
            if port_range is not None and port_range[0] != port_range[1]:
                return True
        return False

    @property
    def rewrites_source(self) -> bool:
        """Whether the pattern changes the source address or port."""
        return self.src_addr is not None or self.src_port is not None


def _parse_addr_field(token: str, what: str) -> Optional[int]:
    if token == "-":
        return None
    try:
        return parse_ip(token)
    except Exception:
        raise ConfigError("bad %s %r in IPRewriter pattern" % (what, token))


def _parse_port_field(token: str, what: str) -> Optional[Tuple[int, int]]:
    if token == "-":
        return None
    if "-" in token:
        low_text, _, high_text = token.partition("-")
        if not (low_text.isdigit() and high_text.isdigit()):
            raise ConfigError("bad %s %r in IPRewriter pattern" % (what,
                                                                   token))
        low, high = int(low_text), int(high_text)
    else:
        if not token.isdigit():
            raise ConfigError("bad %s %r in IPRewriter pattern" % (what,
                                                                   token))
        low = high = int(token)
    if high > 65535 or low > high:
        raise ConfigError("bad %s %r in IPRewriter pattern" % (what, token))
    return (low, high)


def parse_rewrite_pattern(text: str) -> RewritePattern:
    """Parse ``pattern SADDR SPORT DADDR DPORT FOUT ROUT``."""
    tokens = text.split()
    if not tokens or tokens[0].lower() != "pattern":
        raise ConfigError("IPRewriter rule must start with 'pattern': %r"
                          % (text,))
    if len(tokens) != 7:
        raise ConfigError(
            "IPRewriter pattern needs 6 fields, got %d in %r"
            % (len(tokens) - 1, text)
        )
    return RewritePattern(
        src_addr=_parse_addr_field(tokens[1], "source address"),
        src_port=_parse_port_field(tokens[2], "source port"),
        dst_addr=_parse_addr_field(tokens[3], "destination address"),
        dst_port=_parse_port_field(tokens[4], "destination port"),
        fwd_output=parse_int_arg(tokens[5], "forward output"),
        rev_output=parse_int_arg(tokens[6], "reverse output"),
    )


@register_element("IPRewriter")
class IPRewriter(Element):
    """Click-style NAT rewriter.

    Each input port is configured by one argument.  Supported forms:

    * ``pattern SADDR SPORT DADDR DPORT FOUT ROUT`` -- rewrite the flow
      per pattern, remember the mapping, and emit on ``FOUT``; reply
      packets of a known mapping arriving on any input are inverse-
      rewritten and emitted on ``ROUT``.
    * ``drop`` -- drop packets arriving on that input.

    The element is *stateless in effect* when no pattern allocates ports
    from a range and none rewrites the source (the Figure 4 forwarder):
    in that case every packet is rewritten identically, no per-flow
    memory is needed, and the platform may consolidate the config.
    """

    n_inputs = None
    n_outputs = None
    cycle_cost = 2.0
    has_column_kernel = True
    column_fields = (IP_SRC, IP_DST, IP_PROTO, TP_SRC, TP_DST)

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ConfigError("IPRewriter needs at least one input spec")
        self.inputs: List[Optional[RewritePattern]] = []
        for arg in args:
            text = arg.strip()
            if text.lower() == "drop":
                self.inputs.append(None)
            else:
                self.inputs.append(parse_rewrite_pattern(text))
        # Per-flow mapping state: flow key -> (rewritten key, pattern).
        self.mappings: Dict[tuple, Tuple[tuple, RewritePattern]] = {}
        self.reverse_mappings: Dict[tuple, Tuple[tuple, RewritePattern]] = {}
        self._next_alloc_port: Dict[int, int] = {}

    @property
    def stateful(self) -> bool:  # type: ignore[override]
        """Per-flow state is only needed with port allocation or source
        rewriting (reply traffic must be un-mapped)."""
        return any(
            p is not None and (p.allocates_ports or p.rewrites_source)
            for p in self.inputs
        )

    def shard_unsafe_reason(self):
        # A purely static rewrite (the Figure 4 forwarder) maps each
        # packet independently of arrival order and needs no merge; a
        # pattern that allocates ports from a range hands out ports in
        # arrival order across *all* flows, which sharding would
        # permute.
        if self.stateful:
            return "allocates ports/mappings in cross-flow arrival order"
        return None

    def _allocate_port(self, index: int, port_range: Tuple[int, int]) -> int:
        low, high = port_range
        if low == high:
            return low
        cursor = self._next_alloc_port.get(index, low)
        if cursor > high:
            cursor = low
        self._next_alloc_port[index] = cursor + 1
        return cursor

    def _establish(
        self, port: int, key: tuple, pattern: RewritePattern
    ) -> Tuple[tuple, RewritePattern]:
        """Create (and remember) the mapping for a first-packet flow."""
        rewritten = (
            pattern.src_addr if pattern.src_addr is not None else key[0],
            pattern.dst_addr if pattern.dst_addr is not None else key[1],
            key[2],
            self._allocate_port(port, pattern.src_port)
            if pattern.src_port is not None else key[3],
            self._allocate_port(port, pattern.dst_port)
            if pattern.dst_port is not None else key[4],
        )
        mapping = self.mappings[key] = (rewritten, pattern)
        src, dst, _, sport, dport = rewritten
        # Reply key: traffic from the rewritten destination back to
        # the rewritten source.
        self.reverse_mappings[(dst, src, key[2], dport, sport)] = (
            key,
            pattern,
        )
        return mapping

    def push(self, port: int, packet) -> PushResult:
        if port >= len(self.inputs):
            raise ConfigError(
                "IPRewriter %r has no input %d" % (self.name, port)
            )
        key = packet.flow_key()
        # Reply direction of an established mapping?
        hit = self.reverse_mappings.get(key)
        if hit is not None:
            original_key, pattern = hit
            dst, src, _, dport, sport = original_key
            packet.ip_src, packet.tp_src = src, sport
            packet.ip_dst, packet.tp_dst = dst, dport
            return [(pattern.rev_output, packet)]
        pattern = self.inputs[port]
        if pattern is None:
            return []
        mapping = self.mappings.get(key)
        if mapping is None:
            mapping = self._establish(port, key, pattern)
        rewritten, pattern = mapping
        src, dst, _, sport, dport = rewritten
        packet.ip_src, packet.ip_dst = src, dst
        packet.tp_src, packet.tp_dst = sport, dport
        return [(pattern.fwd_output, packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        """Vectorized rewrite: mapping hits (the steady state of every
        flow after its first packet) are rewritten inline with hoisted
        dict lookups; mapping misses fall back to scalar :meth:`push`
        so allocation and mapping-establishment semantics stay exact.
        """
        if port >= len(self.inputs):
            raise ConfigError(
                "IPRewriter %r has no input %d" % (self.name, port)
            )
        rev_get = self.reverse_mappings.get
        fwd_get = self.mappings.get
        scalar_push = self.push
        groups = {}
        for packet in packets:
            key = (
                packet.ip_src, packet.ip_dst, packet.ip_proto,
                packet.tp_src, packet.tp_dst,
            )
            hit = rev_get(key)
            if hit is not None:
                original_key, pattern = hit
                dst, src, _, dport, sport = original_key
                packet.ip_src, packet.tp_src = src, sport
                packet.ip_dst, packet.tp_dst = dst, dport
                out = pattern.rev_output
            else:
                mapping = fwd_get(key)
                if mapping is not None:
                    rewritten, pattern = mapping
                    src, dst, _, sport, dport = rewritten
                    packet.ip_src, packet.ip_dst = src, dst
                    packet.tp_src, packet.tp_dst = sport, dport
                    out = pattern.fwd_output
                else:
                    results = scalar_push(port, packet)
                    if not results:
                        continue  # "drop" input
                    out, packet = results[0]
            try:
                groups[out].append(packet)
            except KeyError:
                groups[out] = [packet]
        return list(groups.items())

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        """Columnar rewrite: one dict lookup per *run* of equal
        5-tuples (in the steady state a batch is a handful of flows,
        often one), then slice-wide column writes.  Mapping
        establishment reuses the scalar :meth:`_establish` so
        allocation order stays exactly arrival order.
        """
        if port >= len(self.inputs):
            raise ConfigError(
                "IPRewriter %r has no input %d" % (self.name, port)
            )
        np = columnar.np
        rev_get = self.reverse_mappings.get
        fwd_get = self.mappings.get
        # Compact the key columns to alive rows, find runs of equal
        # 5-tuples, and look each run up once (a single-flow batch is
        # simply the one-run case: one lookup, whole-column writes).
        alive = cols.alive
        if alive is None:
            idx = None
            csrc = cols.column(IP_SRC)
            cdst = cols.column(IP_DST)
            cproto = cols.column(IP_PROTO)
            csp = cols.column(TP_SRC)
            cdp = cols.column(TP_DST)
        else:
            idx = np.flatnonzero(alive)
            csrc = cols.column(IP_SRC)[idx]
            cdst = cols.column(IP_DST)[idx]
            cproto = cols.column(IP_PROTO)[idx]
            csp = cols.column(TP_SRC)[idx]
            cdp = cols.column(TP_DST)[idx]
        m = len(csrc)
        change = np.ones(m, dtype=bool)
        if m > 1:
            np.not_equal(csrc[1:], csrc[:-1], out=change[1:])
            change[1:] |= cdst[1:] != cdst[:-1]
            change[1:] |= cproto[1:] != cproto[:-1]
            change[1:] |= csp[1:] != csp[:-1]
            change[1:] |= cdp[1:] != cdp[:-1]
        starts = np.flatnonzero(change).tolist()
        starts.append(m)
        port_order: List[int] = []
        port_runs: Dict[int, List[Tuple[int, int]]] = {}
        drop_runs: List[Tuple[int, int]] = []
        w_src = w_dst = w_sp = w_dp = False
        for r in range(len(starts) - 1):
            a, b = starts[r], starts[r + 1]
            key = (
                int(csrc[a]), int(cdst[a]), int(cproto[a]),
                int(csp[a]), int(cdp[a]),
            )
            hit = rev_get(key)
            if hit is not None:
                original_key, pattern = hit
                dst, src, _, dport, sport = original_key
                out = pattern.rev_output
            else:
                mapping = fwd_get(key)
                if mapping is None:
                    pattern = self.inputs[port]
                    if pattern is None:
                        drop_runs.append((a, b))
                        continue
                    mapping = self._establish(port, key, pattern)
                rewritten, pattern = mapping
                src, dst, _, sport, dport = rewritten
                out = pattern.fwd_output
            if src != key[0]:
                csrc[a:b] = src
                w_src = True
            if dst != key[1]:
                cdst[a:b] = dst
                w_dst = True
            if sport != key[3]:
                csp[a:b] = sport
                w_sp = True
            if dport != key[4]:
                cdp[a:b] = dport
                w_dp = True
            try:
                port_runs[out].append((a, b))
            except KeyError:
                port_runs[out] = [(a, b)]
                port_order.append(out)
        for name, arr, changed in (
            (IP_SRC, csrc, w_src), (IP_DST, cdst, w_dst),
            (TP_SRC, csp, w_sp), (TP_DST, cdp, w_dp),
        ):
            if changed:
                if idx is not None:
                    # The compacted array is a copy; scatter it back.
                    cols.column(name)[idx] = arr
                cols.mark_dirty(name)
        if drop_runs:
            keep = np.ones(cols.n, dtype=bool)
            for a, b in drop_runs:
                if idx is None:
                    keep[a:b] = False
                else:
                    keep[idx[a:b]] = False
            cols.kill(keep)
            if not cols.n_alive:
                return []
        if len(port_order) == 1:
            return [(port_order[0], cols)]
        groups = []
        for out in port_order:
            mask = np.zeros(cols.n, dtype=bool)
            for a, b in port_runs[out]:
                if idx is None:
                    mask[a:b] = True
                else:
                    mask[idx[a:b]] = True
            groups.append((out, mask))
        return cols.split(groups)


class SetField(Element):
    """Writes one header field to a configured constant.

    A setter is a declaration: the ``field`` it writes, how to
    ``parse`` its one argument, and, where the field's own universe
    (``FIELD_UNIVERSES``) is too wide, a narrower ``universe``.  A
    constant outside it is refused at configure time, so no executor
    can emit a value the symbolic model does not hold.
    """

    field = ""
    universe: Optional[IntervalSet] = None
    has_column_kernel = True

    def parse(self, text: str) -> int:
        return parse_int_arg(text, self.field)

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1)
        value = self.parse(args[0])
        universe = self.universe or FIELD_UNIVERSES[self.field]
        if value not in universe:
            (low, high), = universe.intervals
            raise ConfigError("%s: %s %d is outside %d..%d" % (
                self.class_name, self.field, value, low, high))
        self.value = value
        self.column_fields = (self.field,)

    def push(self, port: int, packet) -> PushResult:
        setattr(packet, self.field, self.value)
        return [(0, packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        field, value = self.field, self.value
        for packet in packets:
            setattr(packet, field, value)
        return [(0, packets)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        cols.set_all(self.field, self.value)
        return [(0, cols)]


@register_element("SetIPAddress")
class SetIPAddress(SetField):
    """Sets the destination IP address to a constant."""

    field = IP_DST
    parse = staticmethod(parse_ip)
    cycle_cost = 0.5


@register_element("SetIPSrc")
class SetIPSrc(SetField):
    """Sets the source IP address to a constant (spoofing primitive).

    Exists so tests and Table 1 can exercise the anti-spoofing security
    rule -- a third-party config containing this element must be refused
    unless the address equals the module's assigned address.
    """

    field = IP_SRC
    parse = staticmethod(parse_ip)
    cycle_cost = 0.5


@register_element("SetTPDst")
class SetTPDst(SetField):
    """Sets the transport destination port to a constant."""

    field = TP_DST
    cycle_cost = 0.4


@register_element("SetTPSrc")
class SetTPSrc(SetField):
    """Sets the transport source port to a constant."""

    field = TP_SRC
    cycle_cost = 0.4


@register_element("SetIPTTL")
class SetIPTTL(SetField):
    """Stamps a constant TTL (1..255: a TTL of 0 is already expired)."""

    field = IP_TTL
    universe = IntervalSet.from_interval(1, 255)
    cycle_cost = 0.3


@register_element("SetIPTOS")
class SetIPTOS(SetField):
    """Stamps a constant TOS/DSCP byte (traffic prioritization)."""

    field = IP_TOS
    cycle_cost = 0.3


@register_element("DecIPTTL")
class DecIPTTL(Element):
    """Decrements TTL; expired packets (TTL would hit 0) exit port 1 if
    connected, else are dropped."""

    n_outputs = None  # port 1 optional
    cycle_cost = 0.4
    has_column_kernel = True
    column_fields = (IP_TTL,)

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 0)
        self.expired = 0

    def push(self, port: int, packet) -> PushResult:
        ttl = packet.ip_ttl
        if ttl <= 1:
            self.expired += 1
            return [(1, packet)]
        packet.ip_ttl = ttl - 1
        return [(0, packet)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        np = columnar.np
        ttl = cols.column(IP_TTL)
        expired = ttl <= 1
        alive = cols.alive
        if alive is not None:
            expired &= alive
        n_expired = int(expired.sum())
        if not n_expired:
            if alive is None:
                ttl -= 1
            else:
                ttl[alive] -= 1
            cols.mark_dirty(IP_TTL)
            return [(0, cols)]
        self.expired += n_expired
        ok = ~expired if alive is None else (~expired & alive)
        if ok.any():
            ttl[ok] -= 1
        cols.mark_dirty(IP_TTL)
        if n_expired == cols.n_alive:
            return [(1, cols)]
        groups = [(0, ok), (1, expired)]
        # Emit groups in first-emission order, like scalar grouping.
        groups.sort(key=lambda g: int(np.argmax(g[1])))
        return cols.split(groups)


@register_element("CheckIPHeader")
class CheckIPHeader(Element):
    """Sanity-checks IP headers; malformed packets are dropped.

    Our packets are structurally valid by construction, so the check is
    over field ranges (zero/invalid addresses, TTL of 0).
    """

    cycle_cost = 0.8
    has_column_kernel = True
    column_fields = (IP_SRC, IP_TTL)

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.dropped = 0

    def push(self, port: int, packet) -> PushResult:
        valid = (
            0 < packet.ip_ttl <= 255
            and packet.ip_src != 0xFFFFFFFF
        )
        if not valid:
            self.dropped += 1
            return []
        return [(0, packet)]

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        out: List = []
        append = out.append
        dropped = 0
        for packet in packets:
            if 0 < packet.ip_ttl <= 255 and packet.ip_src != 0xFFFFFFFF:
                append(packet)
            else:
                dropped += 1
        if dropped:
            self.dropped += dropped
        if not out:
            return []
        return [(0, out)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        ttl = cols.column(IP_TTL)
        valid = (ttl > 0) & (ttl <= 255)
        valid &= cols.column(IP_SRC) != 0xFFFFFFFF
        before = cols.n_alive
        cols.kill(valid)
        killed = before - cols.n_alive
        if killed:
            self.dropped += killed
        if not cols.n_alive:
            return []
        return [(0, cols)]
