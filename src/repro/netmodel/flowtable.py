"""An OpenFlow-style match/action flow table.

Section 4.3: "at the very least, [the controller] will install
forwarding rules on the target platform to ensure that the processing
module receives traffic destined for the IP address/protocol/port
combination.  In our implementation, we use Openflow rules to configure
Openvswitch running on each platform."

This is that switch table: prioritized rules whose matches are
per-field interval sets (so the *same* rule drives both the concrete
lookup and the symbolic split) and whose actions steer traffic to a
module, out a port, or to the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import fields as F
from repro.common.errors import ConfigError
from repro.common.intervals import IntervalSet
from repro.symexec.tuning import OPT

# Action kinds.
ACTION_TO_MODULE = "to-module"
ACTION_OUTPUT = "output"
ACTION_DROP = "drop"

#: Fields a rule may match on, with their universes.
MATCH_FIELDS: Dict[str, IntervalSet] = {
    F.IP_SRC: IntervalSet.from_interval(0, (1 << 32) - 1),
    F.IP_DST: IntervalSet.from_interval(0, (1 << 32) - 1),
    F.IP_PROTO: IntervalSet.from_interval(0, 255),
    F.TP_SRC: IntervalSet.from_interval(0, 65535),
    F.TP_DST: IntervalSet.from_interval(0, 65535),
}


@dataclass(frozen=True)
class Action:
    """What to do with a matching packet."""

    kind: str
    #: Module name for ACTION_TO_MODULE; port number for ACTION_OUTPUT.
    target: Optional[object] = None

    @classmethod
    def to_module(cls, module: str) -> "Action":
        return cls(ACTION_TO_MODULE, module)

    @classmethod
    def output(cls, port: int) -> "Action":
        return cls(ACTION_OUTPUT, port)

    @classmethod
    def drop(cls) -> "Action":
        return cls(ACTION_DROP)


@dataclass(frozen=True)
class FlowRule:
    """One prioritized match/action rule."""

    priority: int
    match: Tuple[Tuple[str, IntervalSet], ...]
    action: Action
    cookie: str = ""

    def matches(self, packet) -> bool:
        """Whether a concrete packet satisfies every match field."""
        for field_name, allowed in self.match:
            if getattr(packet, field_name, 0) not in allowed:
                return False
        return True

    def match_dict(self) -> Dict[str, IntervalSet]:
        return dict(self.match)


def _normalize_match(
    match: Dict[str, IntervalSet]
) -> Tuple[Tuple[str, IntervalSet], ...]:
    items = []
    for field_name, allowed in sorted(match.items()):
        if field_name not in MATCH_FIELDS:
            raise ConfigError(
                "flow rules cannot match on %r" % (field_name,)
            )
        if not isinstance(allowed, IntervalSet):
            raise ConfigError("match values must be IntervalSet")
        items.append((field_name, allowed))
    return tuple(items)


class FlowTable:
    """A prioritized flow table (highest priority wins; ties break by
    insertion order, like OVS)."""

    def __init__(self):
        self._rules: List[FlowRule] = []
        #: Bumped by every mutation; validates ``_branch_cache``.
        self._version = 0
        #: Memoized ``symbolic_branches`` result for ``_version``.
        self._branch_cache: Optional[tuple] = None
        #: Deferred-sort flag: installs only append, and the priority
        #: order is (re)established at the next read.  Python's sort is
        #: stable, so one batched sort yields the same tie order as
        #: sorting after every install -- but bulk-installing N rules
        #: (a controller shard seeding 10^5 residents) costs one
        #: O(N log N) sort instead of N of them.
        self._sorted = True

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._rules.sort(key=lambda r: -r.priority)
            self._sorted = True

    # -- management ---------------------------------------------------------
    def install(
        self,
        priority: int,
        match: Dict[str, IntervalSet],
        action: Action,
        cookie: str = "",
    ) -> FlowRule:
        """Install a rule; returns it (useful for later removal)."""
        rule = FlowRule(
            priority=priority,
            match=_normalize_match(match),
            action=action,
            cookie=cookie,
        )
        if self._rules and self._rules[-1].priority < priority:
            self._sorted = False
        self._rules.append(rule)
        self._version += 1
        return rule

    def remove(self, rule: FlowRule) -> bool:
        """Remove one rule; returns whether it was present."""
        try:
            self._rules.remove(rule)
            self._version += 1
            return True
        except ValueError:
            return False

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every rule with a cookie; returns how many."""
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.cookie != cookie]
        self._version += 1
        return before - len(self._rules)

    @property
    def rules(self) -> List[FlowRule]:
        self._ensure_sorted()
        return list(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    # -- concrete lookup ------------------------------------------------------
    def lookup(self, packet) -> Optional[FlowRule]:
        """Highest-priority rule matching a concrete packet."""
        self._ensure_sorted()
        for rule in self._rules:
            if rule.matches(packet):
                return rule
        return None

    # -- symbolic split -----------------------------------------------------------
    def symbolic_branches(
        self,
    ) -> List[Tuple[Action, Dict[str, IntervalSet]]]:
        """The table as (action, residual-match) branches.

        Like LPM's symbolic split: a rule's branch is its match minus
        what higher-priority rules already claimed.  Subtraction is
        exact when the shadowing rule matches on a *single* field (the
        controller's steering rules all do); a multi-field shadow is
        not expressible as one conjunction, so those branches are kept
        whole -- a sound over-approximation for may-reachability
        (extra possible flows, never missing ones).  One pass: per
        field, the union of the single-field shadows seen so far is
        subtracted once from each later rule that tests the field (a
        rule broader on it keeps it open); a rule with a field left
        empty is fully shadowed and has no branch.
        """
        cached = self._branch_cache
        if cached is not None and cached[0] == self._version:
            OPT.memo_hits += 1
            return cached[1]
        self._ensure_sorted()
        branches: List[Tuple[Action, Dict[str, IntervalSet]]] = []
        shadows: Dict[str, IntervalSet] = {}
        for rule in self._rules:
            residual: Dict[str, IntervalSet] = {}
            for name, allowed in rule.match:
                shadow = shadows.get(name)
                if shadow is not None:
                    allowed = allowed.subtract(shadow)
                    if allowed.is_empty():
                        break  # fully shadowed
                residual[name] = allowed
            else:
                branches.append((rule.action, residual))
            if len(rule.match) == 1:
                (name, allowed), = rule.match
                shadow = shadows.get(name)
                shadows[name] = (
                    allowed if shadow is None else shadow.union(allowed)
                )
        self._branch_cache = (self._version, branches)
        return branches


def module_steering_rule(
    table: FlowTable,
    address: int,
    module: str,
    proto: Optional[int] = None,
    port: Optional[int] = None,
) -> FlowRule:
    """Install the controller's steering rule for a module.

    The paper gives clients "an IP address, protocol and port
    combination that can be used to reach that module": with ``proto``
    and/or ``port`` set, only matching traffic is steered (everything
    else to that address is dropped by the table's default).
    """
    match: Dict[str, IntervalSet] = {
        F.IP_DST: IntervalSet.single(address)
    }
    if proto is not None:
        match[F.IP_PROTO] = IntervalSet.single(proto)
    if port is not None:
        match[F.TP_DST] = IntervalSet.single(port)
    return table.install(
        priority=100 + (10 if proto is not None or port is not None
                        else 0),
        match=match,
        action=Action.to_module(module),
        cookie=module,
    )
