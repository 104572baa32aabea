"""Checking that two configurations are symbolically equivalent.

Section 3 of the paper decides whether hosting a content provider's
server inside the operator's network is safe by running symbolic
execution on both placements: "Running symbolic execution on the
platform setup yields exactly the same symbolic packet, implying the
two configurations are equivalent."

Equivalence here means: the multisets of delivered symbolic flows
match, where each flow is reduced to a placement-independent
*signature*:

* per header field, either an **aliasing class** ("this field ends
  bound to the variable that entered as ``ip_src``") or a **fresh
  class** (rewritten; fresh variables that are mutually aliased share
  a class index) together with its final domain,
* node names do not participate (the two placements route through
  different boxes by construction).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import fields as F
from repro.symexec.engine import Exploration, SymFlow
from repro.symexec.reachability import domain_at

#: Fields compared by default (annotations are placement artifacts).
DEFAULT_FIELDS = F.HEADER_FIELDS


def canonical_flow(flow: SymFlow) -> Tuple:
    """A process-independent, hashable rendering of one flow.

    Variable uids come from a process-global counter, so two runs of
    the *same* exploration (e.g. a differential test's run against the
    recorded reference) bind different absolute uids.  This renames
    every uid in first-seen order -- scanning the trace snapshots hop
    by hop, then the write log -- which is stable across runs because
    the engine explores paths in a fixed order.  Two flows with equal
    canonical forms have byte-for-byte identical traces, write logs,
    final domains, and liveness up to uid renaming.
    """
    rename: Dict[int, int] = {}

    def canon(uid: Optional[int]) -> Optional[int]:
        if uid is None:
            return None
        if uid not in rename:
            rename[uid] = len(rename)
        return rename[uid]

    trace = tuple(
        (
            entry.node,
            entry.port,
            tuple(
                (name, canon(uid))
                for name, uid in entry.snapshot.items()
            ),
        )
        for entry in flow.trace
    )
    writes = tuple(
        (w.at, w.node, w.field, canon(w.old_uid), canon(w.new_uid))
        for w in flow.writes
    )
    domains = tuple(sorted(
        (canon(uid), value.intervals)
        for uid, value in flow.domains.items()
    ))
    return (trace, writes, domains, flow.alive)


def flow_signature(
    flow: SymFlow,
    fields: Tuple[str, ...] = DEFAULT_FIELDS,
) -> Tuple:
    """A placement-independent summary of one delivered flow."""
    ingress = flow.trace[0].snapshot
    egress = flow.trace[-1].snapshot
    ingress_by_uid = {}
    for name in fields:
        uid = ingress.get(name)
        if uid is not None and uid not in ingress_by_uid:
            ingress_by_uid[uid] = name
    fresh_classes: Dict[int, int] = {}
    parts: List[Tuple] = []
    for name in fields:
        uid = egress.get(name)
        if uid is None:
            parts.append((name, "absent"))
            continue
        domain = domain_at(flow, egress, name)
        domain_key = domain.intervals if domain is not None else None
        origin = ingress_by_uid.get(uid)
        if origin is not None:
            parts.append((name, "alias", origin, domain_key))
        else:
            class_index = fresh_classes.setdefault(
                uid, len(fresh_classes)
            )
            parts.append((name, "fresh", class_index, domain_key))
    return tuple(parts)


@dataclass
class EquivalenceResult:
    """Outcome of comparing two explorations."""

    equivalent: bool
    #: Signatures present in A but not B (with multiplicities).
    only_in_a: List[Tuple] = field(default_factory=list)
    only_in_b: List[Tuple] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent


def explorations_equivalent(
    a: Exploration,
    b: Exploration,
    fields: Tuple[str, ...] = DEFAULT_FIELDS,
) -> EquivalenceResult:
    """Compare the delivered flows of two explorations."""
    sig_a = Counter(flow_signature(f, fields) for f in a.delivered)
    sig_b = Counter(flow_signature(f, fields) for f in b.delivered)
    if sig_a == sig_b:
        return EquivalenceResult(equivalent=True)
    only_a = list((sig_a - sig_b).elements())
    only_b = list((sig_b - sig_a).elements())
    return EquivalenceResult(
        equivalent=False, only_in_a=only_a, only_in_b=only_b
    )


def configs_equivalent(
    source_a: str,
    source_b: str,
    fields: Tuple[str, ...] = DEFAULT_FIELDS,
    inject_a: Optional[str] = None,
    inject_b: Optional[str] = None,
) -> EquivalenceResult:
    """Compare two Click configurations end to end.

    Each is explored from its (single) FromNetfront source with an
    unconstrained symbolic packet; the delivered symbolic packets must
    match up to placement.
    """
    from repro.click import parse_config
    from repro.symexec.engine import SymbolicEngine, SymGraph

    explorations = []
    for source, inject in ((source_a, inject_a), (source_b, inject_b)):
        config = parse_config(source)
        engine = SymbolicEngine(SymGraph.from_click(config))
        entry = inject or config.sources()[0]
        explorations.append(engine.inject(entry))
    return explorations_equivalent(*explorations, fields=fields)
