"""The symbolic fast path's switchboard and counters.

The engine's cold-verdict optimizations -- copy-on-write flow forking,
interval-set interning with cached algebra, per-element model
memoization, and infeasible-branch pruning -- are all *transparent*:
they change how much work a verdict costs, never what the verdict is.
This module is the single switch that turns the whole stack on or off,
plus the process-global counters that make its effect observable.

Three consumers:

* the engine and the element models read :data:`OPT` on their hot
  paths (one attribute load) and bump its counters.  A model's program
  is compiled once, when its element joins a graph, and reads the flag
  each time it runs -- never at compile time -- so a graph built in
  one mode explores in the other exactly as a graph built there would,
* :func:`seed_mode` lets the differential tests and the
  ``symexec_speedup_check`` benchmark run the byte-identical
  pre-optimization engine for comparison,
* :func:`stats` feeds ``Controller.stats()``, the CLI, and the
  examples.

See ``docs/symexec.md`` ("The fast path") for how the layers compose.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.common import intervals as _intervals
from repro.policy import flowspec as _flowspec


class OptState:
    """The global optimization flag plus monotonically growing counters.

    ``forks`` counts every :meth:`SymFlow.fork` regardless of mode (the
    structural branching factor of an exploration); the other counters
    only move while optimizations are enabled:

    * ``prunes`` -- branches proven infeasible *before* forking,
    * ``memo_hits`` -- reuses of a memoized per-element structure
      (router LPM splits, platform demux branches),
    * ``cow_copies`` -- copy-on-write materializations (a forked flow's
      first divergent write).
    """

    __slots__ = ("enabled", "forks", "prunes", "memo_hits", "cow_copies")

    def __init__(self):
        self.enabled = True
        self.forks = 0
        self.prunes = 0
        self.memo_hits = 0
        self.cow_copies = 0


#: The one process-wide optimization state (hot paths read it directly).
OPT = OptState()


def set_optimizations(enabled: bool) -> None:
    """Turn the whole fast-path stack on or off, in every layer at once.

    Also flips the interval-set result cache
    (:func:`repro.common.intervals.set_result_cache`) and the clause
    negation memo (:func:`repro.policy.flowspec.set_negation_cache`),
    which live below :mod:`repro.symexec` and keep their own switches.
    """
    OPT.enabled = bool(enabled)
    _intervals.set_result_cache(OPT.enabled)
    _flowspec.set_negation_cache(OPT.enabled)


def optimizations_enabled() -> bool:
    """Whether the fast path is currently on (the default)."""
    return OPT.enabled


@contextmanager
def seed_mode() -> Iterator[None]:
    """Run the byte-identical pre-optimization engine inside the block.

    Every layer's toggle is flipped off on entry and restored on exit:
    no segment replay, copy-on-write forking, interval interning or
    branch pruning.  Element nodes still run their compiled model
    programs -- a program is the element's one symbolic description,
    not an optimization layer.
    Used by the differential tests ("optimized == seed, bit for bit")
    and as the baseline side of ``benchmarks/symexec_speedup_check.py``.
    """
    previous = OPT.enabled
    set_optimizations(False)
    try:
        yield
    finally:
        set_optimizations(previous)


def counters() -> Dict[str, int]:
    """Snapshot of the engine-level counters (cheap, no cache walks)."""
    return {
        "forks": OPT.forks,
        "prunes": OPT.prunes,
        "memo_hits": OPT.memo_hits,
        "cow_copies": OPT.cow_copies,
    }


def reset_counters() -> None:
    """Zero the engine-level counters (the flag is left untouched)."""
    OPT.forks = 0
    OPT.prunes = 0
    OPT.memo_hits = 0
    OPT.cow_copies = 0


def stats() -> Dict[str, object]:
    """Everything: flag, counters, and the lower layers' cache stats."""
    out: Dict[str, object] = dict(counters())
    out["optimizations_enabled"] = OPT.enabled
    out["interval_cache"] = _intervals.result_cache_stats()
    out["negation_memo_hits"] = _flowspec.negation_cache_hits()
    return out
