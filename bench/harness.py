"""Measurement plumbing shared by every workload.

* :class:`Recorder` times the harness's own calls into the program and
  keeps the durations; :class:`Tracer` additionally records each call
  as a span (name, start, end, parent, request id) and can wrap a
  public method of a live object so calls *between* layers show up as
  child spans.  All spans are harness-side: nothing in ``src/`` knows
  it is being traced.
* :class:`Segment` bounds a measured loop either by wall seconds (the
  end-to-end runs) or by a fixed operation count (the traced runs, so
  per-layer counts repeat exactly for one seed).
"""

from __future__ import annotations

import functools
import gc
import json
import os
import resource
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

clock = time.perf_counter


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- timing -----------------------------------------------------------------


class Recorder:
    """Times calls by name; the untraced (end-to-end) recorder."""

    tracing = False

    def __init__(self):
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Identifier stamped on spans recorded from now on.
        self.request = None

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        self.samples[name].append(clock() - start)
        return result

    def wrap(self, obj, attr: str, name: str) -> None:
        """Untraced runs time only the harness's own calls."""

    def quiesce(self) -> None:
        """:func:`quiesce` inside a measured loop, as a span of its own."""
        self.timed("harness.quiesce", gc.collect)

    def total(self, name: str) -> float:
        return sum(self.samples.get(name, ()))


class Tracer(Recorder):
    """A recorder that also keeps the span tree."""

    tracing = True

    def __init__(self):
        super().__init__()
        #: [name, start, end, parent index or -1, request id]
        self.spans: List[list] = []
        self._open: List[int] = []

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                self.request]
        self.spans.append(span)
        self._open.append(index)
        span[1] = start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = end = clock()
            self._open.pop()
            self.samples[name].append(end - start)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record every call of ``obj.attr`` as a span called ``name``.

        Shadows the bound method with an instance attribute, so only
        this object is affected and only for as long as it lives.
        """
        setattr(obj, attr, functools.partial(
            self.timed, name, getattr(obj, attr)
        ))

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        totals: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            totals[span[0]] += seconds
        return dict(totals)

    def coverage(self) -> float:
        """Share of the traced wall (first span start to last span end)
        spent inside spans; the rest is the harness's own bookkeeping."""
        roots = [span for span in self.spans if span[3] < 0]
        if not roots:
            return 0.0
        covered = sum(span[2] - span[1] for span in roots)
        return covered / (roots[-1][2] - roots[0][1])

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(dict(
                extra,
                span_fields=["name", "start", "end", "parent", "request"],
                spans=self.spans,
            ), handle)


class Segment:
    """One measured loop: ``while segment.more(): ...``.

    ``seconds`` bounds it by wall time; ``ops`` by a fixed number of
    iterations.  ``wall`` is the elapsed time between the first
    ``more()`` and the one that returned False.
    """

    def __init__(self, seconds: Optional[float] = None,
                 ops: Optional[int] = None):
        self.seconds = seconds
        self.ops = ops
        self.done = 0
        self.wall = 0.0
        self._start: Optional[float] = None

    def more(self) -> bool:
        now = clock()
        if self._start is None:
            self._start = now
        self.wall = now - self._start
        if self.ops is not None:
            go = self.done < self.ops
        else:
            go = self.wall < self.seconds
        self.done += go
        return go


class Budget:
    """What a run may spend: wall seconds, or fixed op counts.

    A workload asks for each of its segments with the share of the
    wall budget it gets and the op count it runs in a traced pass.
    """

    def __init__(self, seconds: Optional[float] = None, scale: float = 1.0):
        self.seconds = seconds
        self.scale = scale

    def segment(self, share: float, ops: int) -> Segment:
        if self.seconds is not None:
            return Segment(seconds=self.seconds * share)
        return Segment(ops=max(1, int(round(ops * self.scale))))


def quiesce() -> None:
    """Collect garbage before a timed region (GC itself stays on)."""
    gc.collect()


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest rank; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the forked dataplane shards), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# -- probes that survive refactors -------------------------------------------


def guarded(probes):
    """Run per-layer probes: ``[(names, fn), ...]`` with ``fn`` returning
    ``{name: value}``.  A probe whose public name or stats key has gone
    yields ``None`` for its names plus the reason, and never aborts.
    """
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}
    for names, probe in probes:
        try:
            measured = probe()
            for name in names:
                values[name] = float(measured[name])
        except Exception as exc:  # boundary: the run must go on
            reason = "%s: %s" % (type(exc).__name__, exc)
            for name in names:
                values[name] = None
                reasons[name] = reason
    return values, reasons


class AdmissionLedger:
    """Sums over admissions of what ``DeploymentResult`` makes public."""

    def __init__(self):
        self.admissions = 0
        self.accepted = 0
        self.compile_seconds = 0.0
        self.check_seconds = 0.0
        #: Residents already on the admitting controller, summed over
        #: the admissions that ran a symbolic check.
        self.checked_residents = 0
        self.checked_seconds = 0.0

    def note(self, result, residents: int) -> None:
        self.admissions += 1
        self.accepted += bool(result.accepted)
        self.compile_seconds += result.compile_seconds
        self.check_seconds += result.check_seconds
        if result.check_seconds and residents:
            self.checked_residents += residents
            self.checked_seconds += result.check_seconds
