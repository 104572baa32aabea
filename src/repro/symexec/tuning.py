"""The symbolic engine's work counters.

The engine's cost layers -- copy-on-write flow forking, interval-set
interning with cached algebra, per-element model memoization, and
infeasible-branch pruning -- change how much work a verdict costs,
never what the verdict is (the golden fixtures under ``tests/symexec/``
hold the engine to the seed engine's recorded output).  This module
holds the process-global counters that make that work observable:

* the engine and the element models bump :data:`OPT` on their hot
  paths (one attribute increment),
* :func:`stats` feeds ``Controller.stats()``, the CLI, the benchmark
  harness and the examples.

See ``docs/symexec.md`` ("The fast path") for how the layers compose.
"""

from __future__ import annotations

from typing import Dict

from repro.common import intervals as _intervals
from repro.policy import flowspec as _flowspec


class OptState:
    """Monotonically growing counters of the engine's work.

    * ``forks`` -- every :meth:`SymFlow.fork` (the structural branching
      factor of an exploration),
    * ``prunes`` -- forks a model declined after a test of its own
      (a branch a split index never offers is not one),
    * ``memo_hits`` -- reuses of a memoized per-element structure
      (router LPM splits, platform demuxes, flow-table branches),
    * ``cow_copies`` -- copy-on-write materializations (a forked flow's
      first divergent write).
    """

    __slots__ = ("forks", "prunes", "memo_hits", "cow_copies")

    def __init__(self):
        self.forks = 0
        self.prunes = 0
        self.memo_hits = 0
        self.cow_copies = 0


#: The one process-wide counter set (hot paths bump it directly).
OPT = OptState()


def counters() -> Dict[str, int]:
    """Snapshot of the engine-level counters (cheap, no cache walks)."""
    return {
        "forks": OPT.forks,
        "prunes": OPT.prunes,
        "memo_hits": OPT.memo_hits,
        "cow_copies": OPT.cow_copies,
    }


def stats() -> Dict[str, object]:
    """Everything: counters plus the lower layers' cache stats."""
    out: Dict[str, object] = dict(counters())
    out["interval_cache"] = _intervals.result_cache_stats()
    out["negation_memo_hits"] = _flowspec.negation_cache_hits()
    return out
