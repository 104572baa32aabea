"""The packet abstraction shared by the concrete and symbolic dataplanes.

A :class:`Packet` is a mapping from header-field names to values plus an
opaque payload.  The field names below are the canonical vocabulary used
everywhere in the library -- by concrete Click elements, by the symbolic
models in :mod:`repro.symexec`, and by the policy language -- so that a
flow specification written against ``tp_dst`` constrains the same thing
the dataplane rewrites.

Tunnel elements (``IPEncap``/``UDPIPEncap``) push the current headers onto
an encapsulation stack and install fresh outer headers; ``IPDecap`` pops
them back.  This mirrors the paper's tunnel use case, where the inner
destination address only becomes visible at decapsulation time.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

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

#: The header fields every ``Packet()`` starts from.
_DEFAULT_FIELDS: Dict[str, Any] = {
    IP_SRC: 0,
    IP_DST: 0,
    IP_PROTO: UDP,
    IP_TTL: 64,
    IP_TOS: 0,
    TP_SRC: 0,
    TP_DST: 0,
    TCP_FLAGS: 0,
    PAYLOAD: b"",
}

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

    ``fields`` holds the canonical header fields; ``annotations`` holds
    Click-style annotations (paint color, firewall tag, ...), which travel
    with the packet but are not part of the wire format.

    A packet pays only for the state it carries: the annotation dict
    and the encapsulation stack are created on first write (their slots
    hold ``None`` until then), and ``uid`` is drawn on first read.  The
    public ``annotations``/``encap_stack`` attributes create their
    container on access; in-tree hot paths read through
    :meth:`annotation` and :attr:`encap_depth` instead, which never
    allocate.

    >>> from repro.common import parse_ip
    >>> p = Packet(ip_src=parse_ip("10.0.0.1"), ip_proto=UDP, tp_dst=1500)
    >>> p[TP_DST]
    1500
    """

    __slots__ = (
        "fields", "_annotations", "_encap", "length", "_uid",
        "_fkey", "_fhash",
    )

    #: Fields whose mutation invalidates the cached flow key/hash.
    _FLOW_FIELDS = frozenset((IP_SRC, IP_DST, IP_PROTO, TP_SRC, TP_DST))

    def __init__(
        self,
        length: int = 64,
        annotations: Optional[Dict[str, Any]] = None,
        **fields: Any,
    ):
        self.fields: Dict[str, Any] = {**_DEFAULT_FIELDS, **fields}
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
    def __getitem__(self, field: str) -> Any:
        return self.fields[field]

    def __setitem__(self, field: str, value: Any) -> None:
        self.fields[field] = value
        if field in self._FLOW_FIELDS:
            self._fkey = None
            self._fhash = None

    def __contains__(self, field: str) -> bool:
        return field in self.fields

    def get(self, field: str, default: Any = None) -> Any:
        """Return a header field, or ``default`` if unset."""
        return self.fields.get(field, default)

    # -- lifecycle ----------------------------------------------------------
    def copy(self) -> "Packet":
        """Deep-enough copy: fields, annotations and encap stack.

        State the original does not carry (no annotation, no
        encapsulation) is not allocated on the clone either, and the
        clone draws its own ``uid`` when that is first read.
        """
        annotations = self._annotations
        stack = self._encap
        clone = Packet.__new__(Packet)
        clone.fields = dict(self.fields)
        clone._annotations = dict(annotations) if annotations else None
        clone._encap = [dict(layer) for layer in stack] if stack else None
        clone.length = self.length
        clone._uid = None
        # Clones share the 5-tuple, so the cached flow key/hash carries
        # over -- the big win for bulk traffic generation, where one
        # hashed template fans out to thousands of pre-hashed clones.
        clone._fkey = self._fkey
        clone._fhash = self._fhash
        return clone

    def copy_many(self, n: int) -> List["Packet"]:
        """``n`` independent copies, cheaper than ``n`` ``copy()`` calls.

        Bulk traffic generation (benchmark and simulator injectors)
        clones one template packet thousands of times; this amortizes
        the attribute and method lookups of :meth:`copy` over the whole
        run and skips the default-field-dict construction that
        ``Packet()`` would redo per clone.  A clone of a plain template
        is one ``Packet`` plus one field dict.
        """
        fields = self.fields
        annotations = self._annotations or None
        stack = self._encap or None
        length = self.length
        fkey = self._fkey
        fhash = self._fhash
        new = Packet.__new__
        clones: List[Packet] = []
        append = clones.append
        for _ in range(n):
            clone = new(Packet)
            clone.fields = dict(fields)
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
        inner = dict(self.fields)
        stack = self._encap
        if stack is None:
            self._encap = [inner]
        else:
            stack.append(inner)
        for name, value in outer.items():
            self.fields[name] = value
        self._fkey = None
        self._fhash = None

    def decapsulate(self) -> None:
        """Pop the innermost saved header, restoring pre-encap fields."""
        stack = self._encap
        if not stack:
            raise ValueError("decapsulate() on a packet with no encap stack")
        self.fields = stack.pop()
        self._fkey = None
        self._fhash = None

    @property
    def encap_depth(self) -> int:
        """Number of encapsulation layers currently on the packet."""
        stack = self._encap
        return 0 if stack is None else len(stack)

    # -- convenience -----------------------------------------------------------
    def is_tcp_syn(self) -> bool:
        """Whether this is a bare TCP SYN (connection-opening) packet."""
        flags = self.fields.get(TCP_FLAGS, 0)
        return (
            self.fields.get(IP_PROTO) == TCP
            and bool(flags & TH_SYN)
            and not flags & TH_ACK
        )

    def flow_key(self):
        """The 5-tuple identifying this packet's flow.

        Cached per packet; the cache is invalidated by
        :meth:`__setitem__` on a 5-tuple field and by
        encapsulation/decapsulation.  Code that writes
        ``packet.fields`` directly (hot batch loops, columnar
        materialization) must clear ``_fkey``/``_fhash`` itself.
        """
        key = self._fkey
        if key is None:
            f = self.fields
            key = self._fkey = (
                f[IP_SRC], f[IP_DST], f[IP_PROTO], f[TP_SRC], f[TP_DST],
            )
        return key

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

        The value is cached per packet (invalidated the same way as
        :meth:`flow_key`), and clones inherit the cache -- so sharding
        a ``copy_many`` train rehashes nothing.
        """
        cached = self._fhash
        if cached is not None:
            return cached
        get = self.fields.get
        src = get(IP_SRC) or 0
        dst = get(IP_DST) or 0
        proto = get(IP_PROTO) or 0
        sport = get(TP_SRC) or 0
        dport = get(TP_DST) or 0
        a = _mix64((src << 16) ^ sport)
        b = _mix64((dst << 16) ^ dport)
        # xor and sum are both order-free, so (a, b) and (b, a) mix to
        # the same value without collapsing structure the way a bare
        # xor of equal endpoints would.
        value = _mix64(((a + b) & _MASK64) ^ _mix64((a ^ b) + proto))
        self._fhash = value
        return value

    def reverse_flow_key(self):
        """The 5-tuple of the reverse direction of this packet's flow."""
        f = self.fields
        return (f[IP_DST], f[IP_SRC], f[IP_PROTO], f[TP_DST], f[TP_SRC])

    def __repr__(self) -> str:
        from repro.common.addr import format_ip

        proto = PROTO_NAMES.get(self.fields.get(IP_PROTO), "?")
        return "Packet(%s %s:%s -> %s:%s len=%d)" % (
            proto,
            format_ip(self.fields.get(IP_SRC, 0)),
            self.fields.get(TP_SRC, 0),
            format_ip(self.fields.get(IP_DST, 0)),
            self.fields.get(TP_DST, 0),
            self.length,
        )
