"""Symbolic packets and symbolic variables.

A symbolic packet represents a *set* of packets: each header field maps
to a :class:`SymVar`.  A variable is *free* when its domain is its whole
universe and *bound* otherwise; binding a field to another field's
variable (``p[ip_dst] = p[ip_src]``) makes both map to the same
:class:`SymVar` object, which is how the engine later proves facts like
"the response destination equals the request source" (Section 4.4) --
variable identity is the aliasing proof.

Domains are per-flow (two branches constrain the same variable
differently), so they live in the flow's constraint store, not on the
variable itself; the variable only knows its universe.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional

from repro.common import fields as F
from repro.common.intervals import IntervalSet
from repro.symexec.tuning import OPT

#: Universe of each canonical field (mirrors the policy language).
FIELD_UNIVERSES: Dict[str, IntervalSet] = {
    F.IP_SRC: IntervalSet.from_interval(0, (1 << 32) - 1),
    F.IP_DST: IntervalSet.from_interval(0, (1 << 32) - 1),
    F.IP_PROTO: IntervalSet.from_interval(0, 255),
    F.IP_TTL: IntervalSet.from_interval(0, 255),
    F.IP_TOS: IntervalSet.from_interval(0, 255),
    F.TP_SRC: IntervalSet.from_interval(0, 65535),
    F.TP_DST: IntervalSet.from_interval(0, 65535),
    F.TCP_FLAGS: IntervalSet.from_interval(0, 255),
    # The payload is opaque: we only track identity (was it rewritten?),
    # so it gets a token universe.
    F.PAYLOAD: IntervalSet.from_interval(0, (1 << 62) - 1),
}

#: Universe used for annotation-style fields (firewall tag, paint...).
DEFAULT_UNIVERSE = IntervalSet.from_interval(0, (1 << 32) - 1)


class SymVar:
    """A symbolic variable with a fixed universe.

    Identity (the object itself) is meaningful: two fields bound to the
    same ``SymVar`` are provably equal.
    """

    __slots__ = ("uid", "label", "universe")

    _ids = itertools.count(1)

    def __init__(self, label: str, universe: Optional[IntervalSet] = None):
        self.uid = next(SymVar._ids)
        self.label = label
        self.universe = universe if universe is not None else DEFAULT_UNIVERSE

    def __repr__(self) -> str:
        return "SymVar(%s#%d)" % (self.label, self.uid)


class VarFactory:
    """Creates fresh variables with readable, per-run labels."""

    def __init__(self, prefix: str = "v"):
        self.prefix = prefix
        self._counter = itertools.count(1)

    def fresh(
        self, hint: str, universe: Optional[IntervalSet] = None
    ) -> SymVar:
        """A brand-new variable (free until constrained)."""
        return SymVar(
            "%s%d_%s" % (self.prefix, next(self._counter), hint), universe
        )

    def fresh_for_field(self, field: str) -> SymVar:
        """A fresh variable with the universe canonical for ``field``."""
        return self.fresh(field, FIELD_UNIVERSES.get(field))


class SymPacket:
    """Mapping from field names to symbolic variables.

    Instances are mutated by element models via :meth:`bind`; flows copy
    them before branching (:meth:`copy` is shallow over variables, which
    are immutable).

    Copies share the binding dict copy-on-write -- a fork only pays for
    the dict when one side later rebinds a field -- and :meth:`snapshot`
    caches its field->uid dict until the next binding change.
    """

    __slots__ = ("vars", "encap_stack", "_shared", "_snapshot")

    def __init__(self, variables: Optional[Dict[str, SymVar]] = None):
        self.vars: Dict[str, SymVar] = dict(variables or {})
        self.encap_stack: List[Dict[str, SymVar]] = []
        #: True while ``vars`` may be shared with a copy (materialize
        #: before mutating).
        self._shared = False
        #: Cached :meth:`snapshot` dict (None = recompute).
        self._snapshot: Optional[Dict[str, int]] = None

    @classmethod
    def fresh(
        cls,
        factory: VarFactory,
        fields: Iterable[str] = F.HEADER_FIELDS,
    ) -> "SymPacket":
        """A fully-unconstrained symbolic packet over ``fields``."""
        return cls(
            {field: factory.fresh_for_field(field) for field in fields}
        )

    def var(self, field: str) -> Optional[SymVar]:
        """The variable currently bound to ``field`` (None if absent)."""
        return self.vars.get(field)

    def bind(self, field: str, variable: SymVar) -> None:
        """Bind ``field`` to ``variable`` (aliasing when shared)."""
        if self._shared:
            self.vars = dict(self.vars)
            self._shared = False
            OPT.cow_copies += 1
        self.vars[field] = variable
        self._snapshot = None

    def fields(self) -> List[str]:
        """All fields carried by this packet."""
        return list(self.vars)

    def copy(self) -> "SymPacket":
        clone = SymPacket.__new__(SymPacket)
        # Copy-on-write: share the binding dict (and the cached
        # snapshot, which only depends on it) until a bind().
        clone.vars = self.vars
        clone._shared = True
        self._shared = True
        clone._snapshot = self._snapshot
        clone.encap_stack = [dict(layer) for layer in self.encap_stack]
        return clone

    # -- tunneling ---------------------------------------------------------
    def encapsulate(self, outer: Dict[str, SymVar]) -> None:
        """Push current bindings, then install the outer header's."""
        self.encap_stack.append(dict(self.vars))
        if self._shared:
            self.vars = dict(self.vars)
            self._shared = False
            OPT.cow_copies += 1
        for field, variable in outer.items():
            self.vars[field] = variable
        self._snapshot = None

    def decapsulate(self) -> bool:
        """Restore the saved inner header; False when nothing to pop."""
        if not self.encap_stack:
            return False
        # Popped layers are private copies (pushed and cloned as fresh
        # dicts), so ownership transfers to this packet.
        self.vars = self.encap_stack.pop()
        self._shared = False
        self._snapshot = None
        return True

    @property
    def encap_depth(self) -> int:
        """Number of encapsulation layers currently tracked."""
        return len(self.encap_stack)

    def snapshot(self) -> Dict[str, int]:
        """field -> variable uid, used for invariant checking.

        The dict is cached (and shared between trace entries taken
        under the same bindings); treat it as read-only.
        """
        snap = self._snapshot
        if snap is None:
            snap = {field: var.uid for field, var in self.vars.items()}
            self._snapshot = snap
        return snap

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s=%s" % (f, v.label) for f, v in sorted(self.vars.items())
        )
        return "SymPacket(%s)" % inner
