"""tcpdump-style flow specifications.

The paper's API constrains flows with tcpdump syntax (Section 4.2), e.g.
``udp dst port 1500``, ``tcp src port 80``, ``dst 172.16.15.133``.  This
module parses that syntax into a :class:`FlowSpec`: a disjunction of
:class:`Clause` objects, each a conjunction of per-field
:class:`~repro.common.intervals.IntervalSet` constraints.

The same object serves three masters:

* the concrete dataplane (``IPFilter``/``IPClassifier`` call
  :meth:`FlowSpec.matches` per packet),
* the symbolic engine (classifier models call :meth:`Clause.constraints`
  to split symbolic flows),
* the controller's requirement checks (a symbolic flow *satisfies* a spec
  if its domains fit inside some clause; see
  :mod:`repro.symexec.reachability`).

Supported grammar::

    expr     := or_expr
    or_expr  := and_expr (("or" | "||") and_expr)*
    and_expr := unary (("and" | "&&")? unary)*      # juxtaposition = and
    unary    := ("not" | "!") unary | "(" expr ")" | primitive

Primitives: protocol names (``tcp udp icmp sctp gre ip``),
``proto N``, ``[src|dst] port N[-M]``, ``[src|dst] [host|net] ADDR[/LEN]``,
bare ``src ADDR`` / ``dst ADDR``, ``ttl N``, ``tos N``, ``syn``, and the
catch-alls ``any``/``all``/``true``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common import fields as pkt
from repro.common.addr import parse_ip, parse_prefix, prefix_range
from repro.common.errors import PolicyError
from repro.common.intervals import IntervalSet

#: Universe (full domain) for each canonical field, used to complement
#: constraints under negation and to decide when a constraint is vacuous.
FIELD_UNIVERSES: Dict[str, IntervalSet] = {
    pkt.IP_SRC: IntervalSet.from_interval(0, (1 << 32) - 1),
    pkt.IP_DST: IntervalSet.from_interval(0, (1 << 32) - 1),
    pkt.IP_PROTO: IntervalSet.from_interval(0, 255),
    pkt.IP_TTL: IntervalSet.from_interval(0, 255),
    pkt.IP_TOS: IntervalSet.from_interval(0, 255),
    pkt.TP_SRC: IntervalSet.from_interval(0, 65535),
    pkt.TP_DST: IntervalSet.from_interval(0, 65535),
    pkt.TCP_FLAGS: IntervalSet.from_interval(0, 255),
}

_PROTO_WORDS = {
    "tcp": pkt.TCP,
    "udp": pkt.UDP,
    "icmp": pkt.ICMP,
    "sctp": pkt.SCTP,
    "gre": pkt.GRE,
}

# Clause negation is a pure function of the clause's (immutable)
# constraint map, so the DNF complement each symbolic classifier model
# computes per flow can be cached on the clause itself.
_NEGATION_CACHE_HITS = 0


def negation_cache_hits() -> int:
    """How many times a memoized clause negation was reused."""
    return _NEGATION_CACHE_HITS


class Clause:
    """A conjunction of per-field membership constraints.

    An empty constraint map means "match everything".
    """

    __slots__ = ("_constraints", "_negated")

    def __init__(self, constraints: Optional[Dict[str, IntervalSet]] = None):
        self._constraints: Dict[str, IntervalSet] = dict(constraints or {})
        #: Memoized result of :meth:`negated_clauses` (None = not yet).
        self._negated: Optional[List["Clause"]] = None

    @property
    def constraints(self) -> Dict[str, IntervalSet]:
        """field name -> allowed IntervalSet."""
        return dict(self._constraints)

    def fields(self) -> Set[str]:
        """Fields this clause constrains."""
        return set(self._constraints)

    def conjoin(self, other: "Clause") -> Optional["Clause"]:
        """AND two clauses; None when the result is unsatisfiable."""
        merged = dict(self._constraints)
        for field, allowed in other._constraints.items():
            if field in merged:
                allowed = merged[field].intersect(allowed)
                if allowed.is_empty():
                    return None
            merged[field] = allowed
        return Clause(merged)

    def matches(self, packet) -> bool:
        """Whether a concrete packet satisfies every constraint."""
        for field, allowed in self._constraints.items():
            if getattr(packet, field, 0) not in allowed:
                return False
        return True

    def constraint_items(self) -> Tuple[Tuple[str, IntervalSet], ...]:
        """The (field, allowed IntervalSet) pairs, without copying.

        Hot-path accessor for vectorized packet classifiers: unlike the
        :attr:`constraints` property it does not rebuild a dict per
        call, so callers can hoist the tuple once per batch.
        """
        return tuple(self._constraints.items())

    def negated_clauses(self) -> List["Clause"]:
        """De Morgan: NOT(a AND b) = (NOT a) OR (NOT b).

        Memoized on the clause (constraints are fixed at construction);
        callers must treat the returned list as read-only.
        """
        global _NEGATION_CACHE_HITS
        if self._negated is not None:
            _NEGATION_CACHE_HITS += 1
            return self._negated
        out = []
        for field, allowed in self._constraints.items():
            universe = FIELD_UNIVERSES[field]
            complement = universe.subtract(allowed)
            out.append(Clause({field: complement}))
        self._negated = out
        return out

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s in %r" % (f, s) for f, s in sorted(self._constraints.items())
        )
        return "Clause(%s)" % (inner or "any",)


class FlowSpec:
    """A disjunction of clauses plus the source text it came from."""

    def __init__(self, clauses: Sequence[Clause], source: str = ""):
        self.clauses = [c for c in clauses]
        self.source = source

    @classmethod
    def any(cls) -> "FlowSpec":
        """The spec matching every packet."""
        return cls([Clause()], "any")

    def matches(self, packet) -> bool:
        """Whether a concrete packet satisfies some clause."""
        return any(clause.matches(packet) for clause in self.clauses)

    def compiled(self) -> Tuple[Tuple[Tuple[str, IntervalSet], ...], ...]:
        """The DNF as nested tuples of (field, IntervalSet) pairs.

        One tuple per clause, in clause order.  Vectorized matchers
        (``FirstMatch.push_batch`` and its column kernel) hoist this
        once and loop over plain tuples per packet instead of paying
        the ``matches()`` call and dict iteration per packet.
        """
        return tuple(
            clause.constraint_items() for clause in self.clauses
        )

    def is_satisfiable(self) -> bool:
        """Whether at least one clause is non-contradictory."""
        return bool(self.clauses)

    def __repr__(self) -> str:
        return "FlowSpec(%r)" % (self.source,)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<and>&&)
  | (?P<or>\|\|)
  | (?P<not>!)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<cidr>\d+\.\d+\.\d+\.\d+/\d+)
  | (?P<ip>\d+\.\d+\.\d+\.\d+)
  | (?P<range>\d+-\d+)
  | (?P<number>\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _WORD_RE.match(text, pos)
        if match is None:
            raise PolicyError(
                "unexpected character %r in flow spec %r" % (text[pos], text)
            )
        kind = match.lastgroup
        if kind == "word":
            word = match.group().lower()
            if word == "and":
                kind = "and"
            elif word == "or":
                kind = "or"
            elif word == "not":
                kind = "not"
            tokens.append((kind, word))
        elif kind != "ws":
            tokens.append((kind, match.group()))
        pos = match.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser (produces DNF directly)
# ---------------------------------------------------------------------------


class _SpecParser:
    def __init__(self, tokens: List[Tuple[str, str]], source: str):
        self.tokens = tokens
        self.index = 0
        self.source = source

    def _peek(self) -> Optional[Tuple[str, str]]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise PolicyError("flow spec %r ended unexpectedly" % self.source)
        self.index += 1
        return token

    def _error(self, message: str):
        raise PolicyError("%s in flow spec %r" % (message, self.source))

    # Each production returns a DNF: List[Clause].
    def parse(self) -> List[Clause]:
        dnf = self._or_expr()
        if self._peek() is not None:
            self._error("trailing tokens %r" % (self._peek()[1],))
        return dnf

    def _or_expr(self) -> List[Clause]:
        dnf = self._and_expr()
        while self._peek() is not None and self._peek()[0] == "or":
            self._next()
            dnf = dnf + self._and_expr()
        return dnf

    def _and_expr(self) -> List[Clause]:
        dnf = self._unary()
        while True:
            token = self._peek()
            if token is None or token[0] in ("or", "rparen"):
                break
            if token[0] == "and":
                self._next()
            dnf = _conjoin_dnf(dnf, self._unary())
        return dnf

    def _unary(self) -> List[Clause]:
        token = self._peek()
        if token is None:
            self._error("expected a predicate")
        if token[0] == "not":
            self._next()
            return _negate_dnf(self._unary())
        if token[0] == "lparen":
            self._next()
            dnf = self._or_expr()
            closing = self._next()
            if closing[0] != "rparen":
                self._error("expected ')'")
            return dnf
        return self._primitive()

    # -- primitives ----------------------------------------------------------
    def _primitive(self) -> List[Clause]:
        kind, text = self._next()
        if kind == "word":
            if text in _PROTO_WORDS:
                return [
                    Clause(
                        {pkt.IP_PROTO: IntervalSet.single(_PROTO_WORDS[text])}
                    )
                ]
            if text in ("ip", "any", "all", "true"):
                return [Clause()]
            if text == "syn":
                # Set is coarse: any flags value with the SYN bit; matching
                # exact bitmask sets is approximated by the common values.
                return [
                    Clause(
                        {
                            pkt.TCP_FLAGS: IntervalSet.from_values(
                                [
                                    v
                                    for v in range(256)
                                    if v & pkt.TH_SYN
                                ]
                            )
                        }
                    )
                ]
            if text in ("src", "dst"):
                return self._directional(text)
            if text in ("port", "host", "net"):
                return self._bidirectional(text)
            if text == "proto":
                return [Clause({pkt.IP_PROTO: self._number_set(255)})]
            if text == "ttl":
                return [Clause({pkt.IP_TTL: self._number_set(255)})]
            if text == "tos":
                return [Clause({pkt.IP_TOS: self._number_set(255)})]
            self._error("unknown predicate %r" % (text,))
        if kind in ("ip", "cidr"):
            # A bare address means "host ADDR" (either direction).
            addresses = _address_set(text)
            return [
                Clause({pkt.IP_SRC: addresses}),
                Clause({pkt.IP_DST: addresses}),
            ]
        self._error("unexpected token %r" % (text,))

    def _directional(self, direction: str) -> List[Clause]:
        """`src ...` / `dst ...` primitives."""
        token = self._peek()
        if token is None:
            self._error("dangling %r" % (direction,))
        kind, text = token
        if kind == "word" and text == "port":
            self._next()
            field = pkt.TP_SRC if direction == "src" else pkt.TP_DST
            return [Clause({field: self._number_set(65535)})]
        if kind == "word" and text in ("host", "net"):
            self._next()
            kind, text = self._peek() or (None, None)
        if kind in ("ip", "cidr"):
            self._next()
            field = pkt.IP_SRC if direction == "src" else pkt.IP_DST
            return [Clause({field: _address_set(text)})]
        self._error("expected port/host/net after %r" % (direction,))

    def _bidirectional(self, keyword: str) -> List[Clause]:
        """`port N` / `host A` / `net A` match either direction."""
        if keyword == "port":
            values = self._number_set(65535)
            return [
                Clause({pkt.TP_SRC: values}),
                Clause({pkt.TP_DST: values}),
            ]
        kind, text = self._next()
        if kind not in ("ip", "cidr"):
            self._error("expected address after %r" % (keyword,))
        addresses = _address_set(text)
        return [
            Clause({pkt.IP_SRC: addresses}),
            Clause({pkt.IP_DST: addresses}),
        ]

    def _number_set(self, maximum: int) -> IntervalSet:
        kind, text = self._next()
        if kind == "number":
            value = int(text)
            if value > maximum:
                self._error("value %d out of range" % value)
            return IntervalSet.single(value)
        if kind == "range":
            low_text, _, high_text = text.partition("-")
            low, high = int(low_text), int(high_text)
            if high > maximum or low > high:
                self._error("bad range %r" % (text,))
            return IntervalSet.from_interval(low, high)
        self._error("expected a number, got %r" % (text,))


def _address_set(text: str) -> IntervalSet:
    if "/" in text:
        network, plen = parse_prefix(text)
        low, high = prefix_range(network, plen)
        return IntervalSet.from_interval(low, high)
    return IntervalSet.single(parse_ip(text))


def _conjoin_dnf(
    left: List[Clause], right: List[Clause]
) -> List[Clause]:
    out: List[Clause] = []
    for a in left:
        for b in right:
            merged = a.conjoin(b)
            if merged is not None:
                out.append(merged)
    return out


def _negate_dnf(dnf: List[Clause]) -> List[Clause]:
    # NOT(c1 OR c2 ...) = NOT c1 AND NOT c2 ...; each NOT ci is a DNF.
    result: List[Clause] = [Clause()]
    for clause in dnf:
        result = _conjoin_dnf(result, clause.negated_clauses())
    return result


def parse_flowspec(text: str) -> FlowSpec:
    """Parse a tcpdump-style flow specification.

    >>> spec = parse_flowspec("udp dst port 1500")
    >>> from repro.click import Packet, UDP
    >>> spec.matches(Packet(ip_proto=UDP, tp_dst=1500))
    True
    """
    text = text.strip()
    if not text:
        return FlowSpec.any()
    clauses = _SpecParser(_tokenize(text), text).parse()
    return FlowSpec(clauses, text)


# ---------------------------------------------------------------------------
# const-field lists
# ---------------------------------------------------------------------------

#: Mapping from the paper's const-field vocabulary to canonical fields.
_CONST_FIELD_WORDS: Dict[str, Tuple[str, ...]] = {
    "proto": (pkt.IP_PROTO,),
    "payload": (pkt.PAYLOAD,),
    "ttl": (pkt.IP_TTL,),
    "tos": (pkt.IP_TOS,),
    "flags": (pkt.TCP_FLAGS,),
    "src port": (pkt.TP_SRC,),
    "dst port": (pkt.TP_DST,),
    "port": (pkt.TP_SRC, pkt.TP_DST),
    "src host": (pkt.IP_SRC,),
    "dst host": (pkt.IP_DST,),
    "src": (pkt.IP_SRC,),
    "dst": (pkt.IP_DST,),
    "host": (pkt.IP_SRC, pkt.IP_DST),
}


def parse_const_fields(text: str) -> Set[str]:
    """Parse a const-field list like ``proto && dst port && payload``.

    Returns the set of canonical field names that must stay invariant.

    >>> sorted(parse_const_fields("proto && dst port && payload"))
    ['ip_proto', 'payload', 'tp_dst']
    """
    fields: Set[str] = set()
    for chunk in re.split(r"&&|,| and ", text):
        chunk = " ".join(chunk.split()).lower()
        if not chunk:
            continue
        if chunk not in _CONST_FIELD_WORDS:
            raise PolicyError("unknown const field %r" % (chunk,))
        fields.update(_CONST_FIELD_WORDS[chunk])
    return fields
