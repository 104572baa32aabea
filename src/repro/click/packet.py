"""The packet abstraction shared by the concrete and symbolic dataplanes.

A :class:`Packet` is a record of header fields plus an opaque payload,
read as attributes (``packet.ip_dst``) or as a mapping from field names
to values (``packet["ip_dst"]``, ``packet.fields``).  The field names
below are the canonical vocabulary used everywhere in the library -- by
concrete Click elements, by the symbolic models in
:mod:`repro.symexec`, and by the policy language -- so that a flow
specification written against ``tp_dst`` constrains the same thing the
dataplane rewrites.

Tunnel elements (``IPEncap``/``UDPIPEncap``) push the current headers onto
an encapsulation stack and install fresh outer headers; ``IPDecap`` pops
them back.  This mirrors the paper's tunnel use case, where the inner
destination address only becomes visible at decapsulation time.
"""

from __future__ import annotations

import itertools
from collections.abc import MutableMapping
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional

# Re-exported so `repro.click.packet` remains the natural import site for
# dataplane code; the constants themselves live in repro.common.fields to
# keep the policy and symbolic packages free of dataplane imports.
from repro.common.fields import (  # noqa: F401
    GRE,
    HEADER_FIELDS,
    ICMP,
    IP_DST,
    IP_PROTO,
    IP_SRC,
    IP_TOS,
    IP_TTL,
    PAYLOAD,
    PROTO_NAMES,
    PROTO_NUMBERS,
    SCTP,
    TCP,
    TCP_FLAGS,
    TH_ACK,
    TH_FIN,
    TH_RST,
    TH_SYN,
    TP_DST,
    TP_SRC,
    UDP,
)

_packet_ids = itertools.count(1)

_HEADER_SET = frozenset(HEADER_FIELDS)
_headers_of = attrgetter(*HEADER_FIELDS)
_FIVE_TUPLE = (IP_SRC, IP_DST, IP_PROTO, TP_SRC, TP_DST)

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a fixed, well-mixed 64-bit scrambler.

    Used by :meth:`Packet.flow_hash` because Python's builtin ``hash``
    is identity on small ints (terrible shard spread) and salted for
    strings (not stable across processes).
    """
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Packet:
    """A concrete network packet.

    Each of the nine :data:`HEADER_FIELDS` is a slot of its own, read
    and written as an attribute (``packet.ip_dst``); a header field a
    packet lacks (a tunnel header without ports) is an unset slot.
    Fields outside ``HEADER_FIELDS`` live in a dict that is created on
    their first write.  ``annotations`` holds Click-style annotations
    (paint color, firewall tag, ...), which travel with the packet but
    are not part of the wire format.

    The mapping protocol (``packet[name]``, ``name in packet``,
    :meth:`get`) and the :attr:`fields` view read and write the same
    state by name, and raise ``KeyError`` for a name that is not a
    field (``length``, ``copy``).  Any write is safe, by attribute or by
    name: :meth:`flow_hash` caches its value together with the 5-tuple
    it was computed from and reuses it only while the packet still
    carries that 5-tuple, so there is no cache to clear.

    A packet pays only for the state it carries: the custom-field
    dict, the annotation dict and the encapsulation stack are created
    on first write (their slots hold ``None`` until then), and ``uid``
    is drawn on first read.  The public ``annotations``/``encap_stack``
    attributes create their container on access; in-tree hot paths
    read through :meth:`annotation` and :attr:`encap_depth` instead,
    which never allocate.

    >>> from repro.common import parse_ip
    >>> p = Packet(ip_src=parse_ip("10.0.0.1"), ip_proto=UDP, tp_dst=1500)
    >>> p.tp_dst, p[TP_DST]
    (1500, 1500)
    """

    __slots__ = HEADER_FIELDS + (
        "_extra", "_annotations", "_encap", "length", "_uid",
        "_fkey", "_fhash",
    )

    def __init__(
        self,
        length: int = 64,
        annotations: Optional[Dict[str, Any]] = None,
        **fields: Any,
    ):
        pop = fields.pop
        self.ip_src = pop(IP_SRC, 0)
        self.ip_dst = pop(IP_DST, 0)
        self.ip_proto = pop(IP_PROTO, UDP)
        self.ip_ttl = pop(IP_TTL, 64)
        self.ip_tos = pop(IP_TOS, 0)
        self.tp_src = pop(TP_SRC, 0)
        self.tp_dst = pop(TP_DST, 0)
        self.tcp_flags = pop(TCP_FLAGS, 0)
        self.payload = pop(PAYLOAD, b"")
        self._extra = fields or None  # what is left: custom fields
        self._annotations = dict(annotations) if annotations else None
        self._encap = None
        self.length = length
        self._uid = None
        self._fkey = None
        self._fhash = None

    # -- lazily allocated state ----------------------------------------------
    @property
    def annotations(self) -> Dict[str, Any]:
        """The annotation dict, created empty on first access."""
        annotations = self._annotations
        if annotations is None:
            annotations = self._annotations = {}
        return annotations

    @annotations.setter
    def annotations(self, value: Dict[str, Any]) -> None:
        self._annotations = value

    def annotation(self, name: str, default: Any = None) -> Any:
        """One annotation, or ``default``; never creates the dict."""
        annotations = self._annotations
        if annotations is None:
            return default
        return annotations.get(name, default)

    def annotate(self, name: str, value: Any) -> None:
        """Set one annotation, creating the dict on the first write."""
        annotations = self._annotations
        if annotations is None:
            self._annotations = {name: value}
        else:
            annotations[name] = value

    @property
    def encap_stack(self) -> List[Dict[str, Any]]:
        """Saved inner headers, innermost last; created on access."""
        stack = self._encap
        if stack is None:
            stack = self._encap = []
        return stack

    @encap_stack.setter
    def encap_stack(self, value: List[Dict[str, Any]]) -> None:
        self._encap = value

    @property
    def uid(self) -> int:
        """A process-local identity, drawn from a counter on first read.

        Unique among the packets of one process; a packet that crossed
        a process boundary before its uid was read draws it there.
        """
        uid = self._uid
        if uid is None:
            uid = self._uid = next(_packet_ids)
        return uid

    @uid.setter
    def uid(self, value: int) -> None:
        self._uid = value

    # -- mapping-style access ---------------------------------------------
    @property
    def fields(self) -> "PacketFields":
        """A live mapping view of every field the packet carries."""
        return PacketFields(self)

    def __getitem__(self, field: str) -> Any:
        if field in _HEADER_SET:
            try:
                return getattr(self, field)
            except AttributeError:
                raise KeyError(field) from None
        extra = self._extra
        if extra is None:
            raise KeyError(field)
        return extra[field]

    def __setitem__(self, field: str, value: Any) -> None:
        if field in _HEADER_SET:
            setattr(self, field, value)
        else:
            extra = self._extra
            if extra is None:
                self._extra = {field: value}
            else:
                extra[field] = value

    def __contains__(self, field: str) -> bool:
        if field in _HEADER_SET:
            return hasattr(self, field)
        extra = self._extra
        return extra is not None and field in extra

    def get(self, field: str, default: Any = None) -> Any:
        """Return a field, or ``default`` if unset."""
        if field in _HEADER_SET:
            return getattr(self, field, default)
        extra = self._extra
        if extra is None:
            return default
        return extra.get(field, default)

    def _field_dict(self) -> Dict[str, Any]:
        """Every field as a new dict: header fields in ``HEADER_FIELDS``
        order, then custom fields in the order they were first set."""
        try:
            fields = dict(zip(HEADER_FIELDS, _headers_of(self)))
        except AttributeError:
            fields = {
                name: getattr(self, name)
                for name in HEADER_FIELDS if hasattr(self, name)
            }
        extra = self._extra
        if extra:
            fields.update(extra)
        return fields

    # -- lifecycle ----------------------------------------------------------
    def copy(self) -> "Packet":
        """Deep-enough copy: fields, annotations and encap stack.

        State the original does not carry (no custom field, no
        annotation, no encapsulation) is not allocated on the clone
        either, and the clone draws its own ``uid`` when that is first
        read.
        """
        extra = self._extra
        annotations = self._annotations
        stack = self._encap
        clone = Packet.__new__(Packet)
        try:
            clone.ip_src = self.ip_src
            clone.ip_dst = self.ip_dst
            clone.ip_proto = self.ip_proto
            clone.ip_ttl = self.ip_ttl
            clone.ip_tos = self.ip_tos
            clone.tp_src = self.tp_src
            clone.tp_dst = self.tp_dst
            clone.tcp_flags = self.tcp_flags
            clone.payload = self.payload
        except AttributeError:  # a header field the packet lacks
            for name in HEADER_FIELDS:
                if hasattr(self, name):
                    setattr(clone, name, getattr(self, name))
        clone._extra = dict(extra) if extra else None
        clone._annotations = dict(annotations) if annotations else None
        clone._encap = [dict(layer) for layer in stack] if stack else None
        clone.length = self.length
        clone._uid = None
        # Clones share the 5-tuple, so the cached flow hash carries
        # over -- the big win for bulk traffic generation, where one
        # hashed template fans out to thousands of pre-hashed clones.
        clone._fkey = self._fkey
        clone._fhash = self._fhash
        return clone

    def copy_many(self, n: int) -> List["Packet"]:
        """``n`` independent copies, cheaper than ``n`` ``copy()`` calls.

        Bulk traffic generation (benchmark and simulator injectors)
        clones one template packet thousands of times; this reads the
        template once and amortizes the lookups over the whole run.  A
        clone of a plain template is one ``Packet`` object and nothing
        else.
        """
        if n <= 0:
            return []
        # The first clone is an ordinary copy and the rest repeat its
        # header values; a template that lacks a header field (a tunnel
        # header without ports) is copied one clone at a time instead,
        # so the field stays unset on every clone.
        first = self.copy()
        clones = [first]
        try:
            src, dst, proto, ttl, tos, sport, dport, flags, payload = (
                _headers_of(first)
            )
        except AttributeError:
            clones.extend(self.copy() for _ in range(n - 1))
            return clones
        extra = self._extra or None
        annotations = self._annotations or None
        stack = self._encap or None
        length = self.length
        fkey = self._fkey
        fhash = self._fhash
        new = Packet.__new__
        append = clones.append
        for _ in range(n - 1):
            clone = new(Packet)
            clone.ip_src = src
            clone.ip_dst = dst
            clone.ip_proto = proto
            clone.ip_ttl = ttl
            clone.ip_tos = tos
            clone.tp_src = sport
            clone.tp_dst = dport
            clone.tcp_flags = flags
            clone.payload = payload
            clone._extra = None if extra is None else dict(extra)
            clone._annotations = (
                None if annotations is None else dict(annotations)
            )
            clone._encap = (
                None if stack is None else [dict(layer) for layer in stack]
            )
            clone.length = length
            clone._uid = None
            clone._fkey = fkey
            clone._fhash = fhash
            append(clone)
        return clones

    # -- tunneling -----------------------------------------------------------
    def encapsulate(self, **outer: Any) -> None:
        """Push current headers onto the encap stack, install outer ones.

        Fields not named in ``outer`` keep their current values in the new
        outer header (TTL, TOS...).
        """
        inner = self._field_dict()
        stack = self._encap
        if stack is None:
            self._encap = [inner]
        else:
            stack.append(inner)
        for name, value in outer.items():
            self[name] = value

    def decapsulate(self) -> None:
        """Pop the innermost saved header, restoring pre-encap fields."""
        stack = self._encap
        if not stack:
            raise ValueError("decapsulate() on a packet with no encap stack")
        inner = stack.pop()
        for name in HEADER_FIELDS:
            if name in inner:
                setattr(self, name, inner[name])
            elif hasattr(self, name):
                delattr(self, name)
        extra = {
            name: value for name, value in inner.items()
            if name not in _HEADER_SET
        }
        self._extra = extra or None

    @property
    def encap_depth(self) -> int:
        """Number of encapsulation layers currently on the packet."""
        stack = self._encap
        return 0 if stack is None else len(stack)

    # -- convenience -----------------------------------------------------------
    def is_tcp_syn(self) -> bool:
        """Whether this is a bare TCP SYN (connection-opening) packet."""
        flags = getattr(self, TCP_FLAGS, 0)
        return (
            getattr(self, IP_PROTO, None) == TCP
            and bool(flags & TH_SYN)
            and not flags & TH_ACK
        )

    def flow_key(self):
        """The 5-tuple identifying this packet's flow, read afresh.

        A packet that lacks one of the five fields raises ``KeyError``.
        """
        try:
            return (
                self.ip_src, self.ip_dst, self.ip_proto,
                self.tp_src, self.tp_dst,
            )
        except AttributeError as exc:
            raise KeyError(exc.name) from None

    def flow_hash(self) -> int:
        """A stable 64-bit hash of this packet's 5-tuple (RSS-style).

        Properties the sharded dataplane and any future RSS/ECMP logic
        rely on (see ``docs/dataplane.md``):

        * **Stable and seed-independent.**  The value is a pure
          function of the header fields -- no process state, no
          ``PYTHONHASHSEED``.  The same packet hashes identically in
          every worker process on every run, so a hash computed in one
          process can steer traffic in another.
        * **Direction-symmetric.**  The two endpoints are mixed
          commutatively, so a flow and its reverse flow share a hash
          -- both directions of a connection land on the same shard,
          which is what lets per-conversation elements (the stateful
          firewall) run sharded, like symmetric RSS in hardware.
        * **Missing-field tolerant.**  Fields that are absent or
          ``None`` (a half-built packet, a non-TCP/UDP packet without
          ports) contribute 0, matching a packet that carries explicit
          zeros.

        The value is cached with the 5-tuple it was computed from and
        reused only while the packet's current 5-tuple equals that
        key, so a write by any route (attribute, mapping, column
        write-back, encapsulation) can never leave it stale.  Clones
        inherit the cache -- so sharding a ``copy_many`` train rehashes
        nothing.
        """
        try:
            key = (
                self.ip_src, self.ip_dst, self.ip_proto,
                self.tp_src, self.tp_dst,
            )
        except AttributeError:  # a field the packet lacks counts as 0
            key = tuple(getattr(self, name, None) for name in _FIVE_TUPLE)
        if key == self._fkey:
            return self._fhash
        src, dst, proto, sport, dport = key
        a = _mix64(((src or 0) << 16) ^ (sport or 0))
        b = _mix64(((dst or 0) << 16) ^ (dport or 0))
        # xor and sum are both order-free, so (a, b) and (b, a) mix to
        # the same value without collapsing structure the way a bare
        # xor of equal endpoints would.
        value = _mix64(((a + b) & _MASK64) ^ _mix64((a ^ b) + (proto or 0)))
        self._fkey = key
        self._fhash = value
        return value

    def reverse_flow_key(self):
        """The 5-tuple of the reverse direction of this packet's flow."""
        src, dst, proto, sport, dport = self.flow_key()
        return (dst, src, proto, dport, sport)

    def __repr__(self) -> str:
        from repro.common.addr import format_ip

        get = self.get
        return "Packet(%s %s:%s -> %s:%s len=%d)" % (
            PROTO_NAMES.get(get(IP_PROTO), "?"),
            format_ip(get(IP_SRC, 0)),
            get(TP_SRC, 0),
            format_ip(get(IP_DST, 0)),
            get(TP_DST, 0),
            self.length,
        )


class PacketFields(MutableMapping):
    """The live mapping view :attr:`Packet.fields` returns.

    Reads and writes go through the packet's mapping protocol; deleting
    a header field unsets its slot.  Iteration yields the header fields a packet
    carries in ``HEADER_FIELDS`` order, then custom fields in the order
    they were first set.
    """

    __slots__ = ("_packet",)

    def __init__(self, packet: Packet):
        self._packet = packet

    def __getitem__(self, field: str) -> Any:
        return self._packet[field]

    def __setitem__(self, field: str, value: Any) -> None:
        self._packet[field] = value

    def __delitem__(self, field: str) -> None:
        packet = self._packet
        if field in _HEADER_SET:
            try:
                delattr(packet, field)
            except AttributeError:
                raise KeyError(field) from None
        else:
            extra = packet._extra
            if extra is None:
                raise KeyError(field)
            del extra[field]

    def __contains__(self, field: object) -> bool:
        return field in self._packet

    def get(self, field: str, default: Any = None) -> Any:
        return self._packet.get(field, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._packet._field_dict())

    def __len__(self) -> int:
        return len(self._packet._field_dict())

    def __repr__(self) -> str:
        return "PacketFields(%r)" % (self._packet._field_dict(),)
