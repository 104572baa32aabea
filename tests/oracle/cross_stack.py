"""Exhaustive cross-stack oracle: the verifier predicts every egress.

In-Net admits a configuration because its symbolic exploration bounds
what the dataplane will do.  :func:`check` tests that claim directly
on one configuration over a small header universe:

1. Explore the configuration once, symbolically, from its one source
   (``SymbolicEngine(SymGraph.from_click(config)).inject(source)``).
   Each delivered flow is a *path*: a sink plus, per header field, the
   domain the field held at ingress and the domain it holds at egress.
2. Push every packet of the universe through the concrete
   :class:`~repro.click.Runtime` three ways -- scalar ``inject``,
   ``inject_batch`` on the list executor, and ``inject_batch`` on the
   column plans -- and record, per packet, where it left and what it
   carried.
3. Check both directions:

   * **sound** -- every concrete egress lies in a predicted path at the
     same sink: the packet as it entered lies in the path's ingress
     domains and the packet as it left lies in its egress domains;
   * **tight on the universe** -- every predicted path has a concrete
     egress at its sink from a packet inside its ingress domains.

   The three executors must also agree with each other exactly.

A universe is the cross product of a few values per header field
(:func:`universe`); :func:`straddle` picks, for every constant a
configuration names, the constant and its neighbours, so each
branch boundary is crossed on both sides.  Fields left out keep the
``Packet`` defaults.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.click import Packet, Runtime, parse_config
from repro.click import columnar
from repro.common import fields as F
from repro.policy.flowspec import FIELD_UNIVERSES
from repro.symexec.engine import SymGraph, SymbolicEngine
from repro.symexec.sympacket import FIELD_UNIVERSES as SYM_UNIVERSES

#: Header fields whose values the oracle compares (the payload is an
#: opaque token to the verifier).
CHECKED = tuple(field for field in F.HEADER_FIELDS if field != F.PAYLOAD)

#: The executors every packet runs through.
MODES = ("scalar", "batch", "columns")


def straddle(field: str, *constants) -> List[int]:
    """Each constant and its two neighbours, inside ``field``'s universe.

    A constant may be an ``(low, high)`` pair, for a range or a
    prefix: both ends are straddled.
    """
    (low, high), = FIELD_UNIVERSES[field].intervals
    values = set()
    for constant in constants:
        ends = constant if isinstance(constant, tuple) else (constant,)
        for end in ends:
            values.update(v for v in (end - 1, end, end + 1)
                          if low <= v <= high)
    return sorted(values)


def universe(**values: Sequence[int]) -> List[Dict[str, int]]:
    """Every combination of the given per-field values."""
    names = sorted(values)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(values[name] for name in names))
    ]


class Path(NamedTuple):
    """One delivered symbolic flow, as the oracle reads it."""

    sink: str
    ingress: Dict[str, object]
    egress: Dict[str, object]

    def admits(self, before: Dict[str, int], after: Dict[str, int]) -> bool:
        return all(before[f] in self.ingress[f] for f in self.ingress) \
            and all(after[f] in self.egress[f] for f in self.egress)


class Report(NamedTuple):
    packets: int
    egress: int
    paths: int


def predicted_paths(config, source: str) -> List[Path]:
    """The delivered paths of one symbolic injection at ``source``."""
    exploration = SymbolicEngine(SymGraph.from_click(config)).inject(source)
    paths = []
    for flow in exploration.delivered:
        first = flow.trace[0].snapshot
        ingress = {
            field: flow.domains.get(first[field], SYM_UNIVERSES[field])
            for field in CHECKED if field in first
        }
        egress = {
            field: flow.field_domain(field)
            for field in CHECKED if flow.packet.var(field) is not None
        }
        paths.append(Path(flow.trace[-1].node, ingress, egress))
    return paths


def _headers(packet) -> Dict[str, int]:
    return {field: getattr(packet, field) for field in CHECKED}


def concrete_egress(
    config, source: str, headers: Iterable[Dict[str, int]], mode: str,
) -> List[Tuple[str, Tuple, Tuple]]:
    """``(sink, ingress, egress)`` per packet that left, sorted.

    Ingress and egress are tuples of :data:`CHECKED` values.
    """
    runtime = Runtime(config, use_columns=(mode == "columns"))
    packets = [Packet(**fields) for fields in headers]
    before = {packet.uid: _headers(packet) for packet in packets}
    if mode == "scalar":
        for packet in packets:
            runtime.inject(source, packet)
    else:
        runtime.inject_batch(source, packets)
    if mode == "columns" and columnar.available():
        assert runtime.columnar_batches > 0, "no batch took a column plan"
    out = []
    for record in runtime.output:
        ingress = before[record.packet.uid]
        egress = _headers(record.packet)
        out.append((
            record.element,
            tuple(ingress[f] for f in CHECKED),
            tuple(egress[f] for f in CHECKED),
        ))
    return sorted(out)


def check(
    source_text: str, headers: List[Dict[str, int]], source: str = "src",
) -> Report:
    """Run the oracle on one configuration; raise AssertionError on a
    disagreement, else report what was compared."""
    config = parse_config(source_text)
    paths = predicted_paths(config, source)
    runs = {
        mode: concrete_egress(config, source, headers, mode)
        for mode in MODES
    }
    egress = runs["scalar"]
    for mode in MODES[1:]:
        assert runs[mode] == egress, "%s disagrees with scalar" % (mode,)
    covered = set()
    for sink, before, after in egress:
        before = dict(zip(CHECKED, before))
        after = dict(zip(CHECKED, after))
        hits = [
            index for index, path in enumerate(paths)
            if path.sink == sink and path.admits(before, after)
        ]
        assert hits, "unpredicted egress at %s: %r -> %r" % (
            sink, before, after)
        covered.update(hits)
    missed = [path for index, path in enumerate(paths)
              if index not in covered]
    assert not missed, "predicted paths with no concrete egress: %r" % (
        missed,)
    return Report(len(headers), len(egress), len(paths))
