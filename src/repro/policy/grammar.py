"""Parser for In-Net reachability requirements (Section 4.2).

The API supports checks of the form::

    reach from <node> [flow]
        {-> <node> [flow] [const <fields>]}+

where a *node* is an IP address or subnet, the keyword ``client``
(operator's residential clients), the keyword ``internet`` (arbitrary
outside traffic), a named operator middlebox, or a port of a Click
element in a processing module (``module:element:port``).

The ``flow`` after a node constrains the traffic *departing* that node in
tcpdump syntax; ``const`` names header fields that must be invariant on
the hop arriving at that node.  Example from the paper (Figure 4)::

    reach from internet udp
        -> Batcher:dst:0 dst 172.16.15.133
        -> client dst port 1500
           const proto && dst port && payload
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.common.addr import parse_prefix
from repro.common.errors import PolicyError
from repro.policy.flowspec import (
    FlowSpec,
    parse_const_fields,
    parse_flowspec,
)

# Node reference kinds.
KIND_ADDRESS = "address"      # IP or subnet
KIND_CLIENT = "client"        # operator's residential client subnets
KIND_INTERNET = "internet"    # arbitrary outside traffic
KIND_NAME = "name"            # a named node in the operator topology
KIND_ELEMENT = "element"      # module:element[:port] inside a module


@dataclass(frozen=True)
class NodeRef:
    """A reference to a vertex of the network graph in a requirement."""

    kind: str
    #: For KIND_ADDRESS: (network, prefix_len).
    prefix: Optional[Tuple[int, int]] = None
    #: For KIND_NAME: the node name.  For KIND_ELEMENT: the module name.
    name: Optional[str] = None
    #: For KIND_ELEMENT.
    element: Optional[str] = None
    port: int = 0

    def __str__(self) -> str:
        if self.kind == KIND_ADDRESS:
            from repro.common.addr import format_prefix

            network, plen = self.prefix
            if plen == 32:
                from repro.common.addr import format_ip

                return format_ip(network)
            return format_prefix(network, plen)
        if self.kind == KIND_ELEMENT:
            return "%s:%s:%d" % (self.name, self.element, self.port)
        if self.kind == KIND_NAME:
            return self.name
        return self.kind


@dataclass(frozen=True)
class Hop:
    """One node of a reach statement with its flow/const annotations."""

    node: NodeRef
    #: Constraint on the flow departing this node (None = unconstrained).
    flow: Optional[FlowSpec] = None
    #: Fields that must be invariant on the hop *arriving* at this node.
    const_fields: FrozenSet[str] = field(default_factory=frozenset)


#: Requirement modes.
MODE_REACH = "reach"       # EXISTS a conforming flow
MODE_ISOLATE = "isolate"   # NO flow realizes the hops
MODE_ALWAYS = "always"     # EVERY flow reaching the target traversed
#                            every waypoint, in order (Section 2.2's
#                            "all HTTP traffic must go through the
#                            HTTP middlebox")


@dataclass(frozen=True)
class ReachRequirement:
    """A parsed ``reach`` / ``isolate`` / ``always`` statement.

    * ``reach from ...``: satisfied when at least one symbolic flow
      conforms (the paper's API),
    * ``isolate from ...``: satisfied when NO symbolic flow realizes
      the hop sequence,
    * ``always from ...``: satisfied when every flow from the origin
      that reaches the final hop has traversed all waypoints in order
      -- universal waypointing, the Section 2.2 placement policy.
    """

    hops: Tuple[Hop, ...]
    source: str = ""
    #: False for `isolate` statements (kept for compatibility).
    expect_reachable: bool = True
    mode: str = MODE_REACH

    @property
    def origin(self) -> Hop:
        """The ``from`` node."""
        return self.hops[0]

    @property
    def waypoints(self) -> Tuple[Hop, ...]:
        """Intermediate nodes (everything between origin and target)."""
        return self.hops[1:-1]

    @property
    def target(self) -> Hop:
        """The final node traffic must reach."""
        return self.hops[-1]

    def __str__(self) -> str:
        return self.source or "reach from %s" % (self.hops[0].node,)


_NODE_TOKEN_RE = re.compile(r"^\S+")
_IP_LIKE_RE = re.compile(r"^\d+\.\d+\.\d+\.\d+(/\d+)?$")

#: Placeholder the controller substitutes with the module under
#: verification (Section 2.2: per-tenant placement policy).
MODULE_PLACEHOLDER = "$module"


def _parse_node(token: str) -> NodeRef:
    if token == "client":
        return NodeRef(KIND_CLIENT)
    if token == "internet":
        return NodeRef(KIND_INTERNET)
    if token == MODULE_PLACEHOLDER:
        return NodeRef(KIND_NAME, name=MODULE_PLACEHOLDER)
    if _IP_LIKE_RE.match(token):
        return NodeRef(KIND_ADDRESS, prefix=parse_prefix(token))
    if ":" in token:
        parts = token.split(":")
        if len(parts) == 2:
            module, element = parts
            port = 0
        elif len(parts) == 3:
            module, element, port_text = parts
            if not port_text.isdigit():
                raise PolicyError("bad element port in %r" % (token,))
            port = int(port_text)
        else:
            raise PolicyError("bad element reference %r" % (token,))
        if not module or not element:
            raise PolicyError("bad element reference %r" % (token,))
        return NodeRef(KIND_ELEMENT, name=module, element=element, port=port)
    if re.match(r"^[A-Za-z_][\w.-]*$", token):
        return NodeRef(KIND_NAME, name=token)
    raise PolicyError("cannot parse node reference %r" % (token,))


def _parse_segment(segment: str, is_origin: bool) -> Hop:
    segment = segment.strip()
    if not segment:
        raise PolicyError("empty hop in reach statement")
    node_match = _NODE_TOKEN_RE.match(segment)
    node = _parse_node(node_match.group())
    rest = segment[node_match.end():].strip()
    const_fields: FrozenSet[str] = frozenset()
    # `const` splits the remainder into flow-spec and const-field parts.
    const_match = re.search(r"(?:^|\s)const\s", rest)
    if const_match:
        const_text = rest[const_match.end():].strip()
        rest = rest[: const_match.start()].strip()
        if is_origin:
            raise PolicyError(
                "const fields are not allowed on the origin node"
            )
        const_fields = frozenset(parse_const_fields(const_text))
    flow = parse_flowspec(rest) if rest else None
    return Hop(node=node, flow=flow, const_fields=const_fields)


def parse_requirement(text: str) -> ReachRequirement:
    """Parse a ``reach from ...`` / ``isolate from ...`` statement.

    >>> req = parse_requirement(
    ...     "reach from internet udp -> client dst port 1500")
    >>> req.origin.node.kind, req.target.node.kind
    ('internet', 'client')
    >>> parse_requirement(
    ...     "isolate from internet -> client").expect_reachable
    False
    """
    source = " ".join(text.split())
    body = source
    mode = None
    for verb in (MODE_REACH, MODE_ISOLATE, MODE_ALWAYS):
        if body.startswith(verb):
            mode = verb
            body = body[len(verb):].strip()
            break
    if mode is None:
        raise PolicyError(
            "requirement must start with 'reach', 'isolate' or "
            "'always': %r" % text
        )
    if not body.startswith("from"):
        raise PolicyError("expected 'from': %r" % text)
    body = body[len("from"):].strip()
    segments = body.split("->")
    if len(segments) < 2:
        raise PolicyError(
            "requirement needs at least one '->' hop: %r" % text
        )
    hops = [_parse_segment(segments[0], is_origin=True)]
    hops.extend(_parse_segment(s, is_origin=False) for s in segments[1:])
    if mode == MODE_ALWAYS and len(hops) < 3:
        raise PolicyError(
            "'always' needs at least one waypoint between origin and "
            "target: %r" % text
        )
    return ReachRequirement(
        hops=tuple(hops), source=source,
        expect_reachable=(mode != MODE_ISOLATE),
        mode=mode,
    )


def split_statements(text: str) -> List[str]:
    """Split a policy block into normalised statement texts.

    Statements may span multiple lines; a new statement starts whenever
    a line begins with ``reach``, ``isolate`` or ``always``.  Blank
    lines and ``#`` comments are ignored.  Each statement comes back
    with its whitespace collapsed, which is exactly the
    :attr:`ReachRequirement.source` its parse carries.

    >>> split_statements('''
    ...     # two statements
    ...     reach from internet
    ...         -> client
    ...     isolate  from client -> internet''')
    ['reach from internet -> client', 'isolate from client -> internet']
    """
    statements: List[List[str]] = []
    for line in text.splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        if not statements or words[0].startswith(
            (MODE_REACH, MODE_ISOLATE, MODE_ALWAYS)
        ):
            statements.append([])
        statements[-1].extend(words)
    return [" ".join(words) for words in statements]


def parse_requirements(text: str) -> List[ReachRequirement]:
    """Parse a block of reach / isolate / always statements (cut as
    :func:`split_statements` cuts them)."""
    return [parse_requirement(s) for s in split_statements(text)]
