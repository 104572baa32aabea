"""Metric primitives and the registry (the ``repro.obs`` data model).

Three metric kinds, deliberately mirroring the Prometheus vocabulary so
the text exporter in :mod:`repro.obs.export` is a direct serialization:

* :class:`Counter` -- a monotonically increasing count (packets seen,
  cache hits, VMs booted),
* :class:`Gauge`   -- a value that goes up and down (queue depth,
  resident VMs, per-platform density),
* :class:`Histogram` -- fixed-bucket distribution of observations
  (admission latency, boot time, egress latency).

Metrics are created through a :class:`MetricsRegistry`.  Creation is
idempotent: asking twice for the same name returns the same family, so
independent components (several runtimes, several platforms) can share
one registry without coordination.

**Disabled mode.**  A registry built with ``enabled=False`` hands out a
single shared :data:`NULL_METRIC` whose mutators are empty methods.  The
hot path of instrumented code therefore costs one attribute lookup and
one no-op call -- no branches, no allocation -- and code never needs
``if metrics is not None`` guards.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_METRIC",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets, in seconds (latency-shaped workloads).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _NullMetric:
    """Shared sink for disabled registries: every operation is a no-op.

    ``labels(...)`` returns the same instance, so pre-binding code like
    ``registry.counter(...).labels(name)`` works identically whether the
    registry is enabled or not.
    """

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def labels(self, *values):
        return self

    @property
    def value(self):
        return 0


#: The one instance every disabled registry hands out.
NULL_METRIC = _NullMetric()


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def snapshot_value(self):
        return self.value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount

    def snapshot_value(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram of float observations.

    ``counts[i]`` holds observations that fell in
    ``(bounds[i-1], bounds[i]]``; the final slot is the overflow
    (``+Inf``) bucket.  :meth:`cumulative` produces the Prometheus-style
    running totals.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        # bisect_left keeps bounds inclusive (Prometheus ``le``): an
        # observation equal to a bound lands in that bound's bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_count(self, value, n):
        """Record ``n`` identical observations with one bucket search.

        Deferred-accounting instrumentation (see
        ``repro.click.accounting``) batches repeated values this way.
        """
        self.counts[bisect_left(self.bounds, value)] += n
        self.sum += value * n
        self.count += n

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(upper_bound, running_count), ...]``, ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def snapshot_value(self):
        return {
            "buckets": {
                _format_bound(bound): total
                for bound, total in self.cumulative()
            },
            "count": self.count,
            "sum": self.sum,
        }


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    text = repr(bound)
    return text


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric plus its labelled children.

    An unlabelled family still has exactly one child (at the empty label
    tuple); :class:`MetricsRegistry` returns that child directly so the
    common case reads ``registry.counter("x").inc()``.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "children", "_args")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Tuple[str, ...] = (),
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.children: Dict[Tuple[str, ...], object] = {}
        self._args = (buckets,) if kind == "histogram" else ()

    def labels(self, *values) -> object:
        """The child metric for one label-value tuple (created lazily)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                "metric %r takes %d label(s) %r, got %r"
                % (self.name, len(self.labelnames), self.labelnames, values)
            )
        key = tuple(str(v) for v in values)
        child = self.children.get(key)
        if child is None:
            if self.kind == "histogram":
                buckets = self._args[0]
                child = Histogram(
                    buckets if buckets is not None else DEFAULT_BUCKETS
                )
            else:
                child = _KINDS[self.kind]()
            self.children[key] = child
        return child

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in insertion order."""
        return self.children.items()


class MetricsRegistry:
    """Creates, owns, and snapshots metric families.

    >>> reg = MetricsRegistry()
    >>> reg.counter("requests_total", "Requests seen").inc()
    >>> reg.counter("requests_total").value
    1
    >>> MetricsRegistry(enabled=False).counter("x") is NULL_METRIC
    True
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: "Dict[str, MetricFamily]" = {}
        self._collectors: List[Callable[[], None]] = []
        self._keyed_collectors: Dict[object, Callable[[], None]] = {}

    # -- creation ----------------------------------------------------------
    def counter(self, name, help="", labels=()):
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name, help="", labels=()):
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(self, name, help="", labels=(), buckets=None):
        return self._get_or_create(
            name, "histogram", help, labels, buckets=buckets
        )

    def _get_or_create(self, name, kind, help, labels, buckets=None):
        if not self.enabled:
            return NULL_METRIC
        labels = tuple(labels)
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(
                name, kind, help=help, labelnames=labels,
                buckets=tuple(buckets) if buckets is not None else None,
            )
            self._families[name] = family
        elif family.kind != kind or family.labelnames != labels:
            raise ValueError(
                "metric %r re-registered as %s%r; it is a %s%r"
                % (name, kind, labels, family.kind, family.labelnames)
            )
        if not labels:
            return family.labels()
        return family

    # -- merging -----------------------------------------------------------
    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """Fold other registries' metrics into this one; returns self.

        The merge semantics are what a sharded dataplane needs to
        combine per-worker registries into one coherent view
        (:mod:`repro.click.sharding`):

        * **counters** sum,
        * **histograms** sum bucket-by-bucket (bucket bounds must
          match, otherwise ``ValueError``), plus ``sum`` and ``count``,
        * **gauges** take the other registry's value (last write wins,
          in merge argument order),
        * **keyed collectors** union (the other registry's collector
          replaces any of this registry's under the same key), so a
          merged view keeps sampling live gauges; unkeyed collectors
          are appended.

        Each other registry's collector pass runs first, so sampled
        gauges are current as of the merge.  A family whose name is
        already registered here with a different kind or label set
        raises ``ValueError`` (same rule as re-registration).
        Disabled registries merge as empty; merging *into* a disabled
        registry is a no-op.
        """
        if not self.enabled:
            return self
        for other in others:
            if other is self or not other.enabled:
                continue
            for family in other.families():
                buckets = (
                    family._args[0] if family.kind == "histogram" else None
                )
                mine = self._families.get(family.name)
                if mine is None:
                    mine = MetricFamily(
                        family.name, family.kind, help=family.help,
                        labelnames=family.labelnames, buckets=buckets,
                    )
                    self._families[family.name] = mine
                elif (mine.kind != family.kind
                        or mine.labelnames != family.labelnames):
                    raise ValueError(
                        "cannot merge metric %r: %s%r into %s%r"
                        % (family.name, family.kind, family.labelnames,
                           mine.kind, mine.labelnames)
                    )
                for label_values, child in family.samples():
                    target = mine.labels(*label_values)
                    if family.kind == "counter":
                        target.value += child.value
                    elif family.kind == "gauge":
                        target.value = child.value
                    else:
                        if target.bounds != child.bounds:
                            raise ValueError(
                                "cannot merge histogram %r: bucket "
                                "bounds differ" % (family.name,)
                            )
                        for index, count in enumerate(child.counts):
                            target.counts[index] += count
                        target.sum += child.sum
                        target.count += child.count
            self._collectors.extend(other._collectors)
            self._keyed_collectors.update(other._keyed_collectors)
        return self

    # -- transport ---------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: ship values, drop collector callbacks.

        Collectors are closures over live objects (runtimes, platforms)
        and cannot cross a process boundary; running one last collector
        pass first means sampled gauges are current as of pickling.
        Worker processes in the sharded dataplane rely on this to send
        their registries back for merging.
        """
        if self.enabled:
            self.families()
        return {"enabled": self.enabled, "_families": self._families,
                "_collectors": [], "_keyed_collectors": {}}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- collection --------------------------------------------------------
    def register_collector(
        self, collector: Callable[[], None], key: object = None,
    ) -> None:
        """Register a callback run before every snapshot/export.

        Collectors pull state that is cheaper to sample than to track
        (queue depths, resident-VM counts) into gauges at read time.
        A non-None ``key`` makes registration idempotent: a later
        collector with the same key replaces the earlier one (used when
        a component is re-provisioned against the same registry).
        """
        if not self.enabled:
            return
        if key is not None:
            self._keyed_collectors[key] = collector
        else:
            self._collectors.append(collector)

    def families(self) -> List[MetricFamily]:
        """All families, name-sorted, after running collectors."""
        for collector in self._collectors:
            collector()
        for collector in self._keyed_collectors.values():
            collector()
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name`` (no collector pass)."""
        return self._families.get(name)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """A stable-keyed, JSON-serializable view of every metric."""
        out: Dict[str, dict] = {}
        for family in self.families():
            values = {
                _label_key(family.labelnames, label_values):
                    child.snapshot_value()
                for label_values, child in family.samples()
            }
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "values": {k: values[k] for k in sorted(values)},
            }
        return out


def _label_key(labelnames: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    return ",".join(
        "%s=%s" % (n, v) for n, v in zip(labelnames, values)
    )
