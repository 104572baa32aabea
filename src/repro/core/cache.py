"""Admission fast path: verdict caching for the controller (Section 4.3).

The controller re-runs the security analysis for every candidate
platform of every request, yet the analysis depends only on the module's
*structure* (its canonical fingerprint), the requester's trust role and
white-list, and -- sometimes -- the address the candidate platform
assigned.  Popular stock modules are requested over and over with
identical configurations, so the paper's amortization applies: verify
once, reuse the verdict.

Two layers make the per-candidate cost collapse to one cache probe:

* an **address-independent pre-pass**: the analysis is first run with no
  module address at all.  Supplying an address only ever *removes*
  spoofing findings (it widens the set of acceptable egress sources), so
  an ``allow`` verdict without an address is an ``allow`` for every
  address -- one cached report covers all candidate platforms and all
  future identical requests;
* a per-address **LRU verdict cache** keyed by
  ``(config fingerprint, role, whitelist, address)`` for configurations
  whose verdict genuinely depends on the assigned address.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Optional

from repro.core.requests import ROLE_OPERATOR
from repro.core.security import (
    SecurityAnalyzer,
    SecurityReport,
    VERDICT_ALLOW,
)


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    def record_eviction(self) -> None:
        self.evictions += 1

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class RegistryCacheStats:
    """:class:`CacheStats` backed by ``repro.obs`` registry counters.

    Same read interface (``hits``/``misses``/``evictions``/``probes``/
    ``hit_rate``), but every increment lands in the shared
    :class:`~repro.obs.MetricsRegistry` under
    ``cache_{hits,misses,evictions}_total{cache=<name>}`` -- the cache
    no longer keeps private counters once instrumented.
    """

    __slots__ = ("_hits", "_misses", "_evictions")

    def __init__(self, metrics, name: str):
        self._hits = metrics.counter(
            "cache_hits_total", "Cache probes that hit",
            labels=("cache",),
        ).labels(name)
        self._misses = metrics.counter(
            "cache_misses_total", "Cache probes that missed",
            labels=("cache",),
        ).labels(name)
        self._evictions = metrics.counter(
            "cache_evictions_total", "Entries evicted past capacity",
            labels=("cache",),
        ).labels(name)

    def record_hit(self) -> None:
        self._hits.inc()

    def record_miss(self) -> None:
        self._misses.inc()

    def record_eviction(self) -> None:
        self._evictions.inc()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A small least-recently-used map with hit/miss accounting."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.stats = CacheStats()

    def instrument(self, metrics, name: str) -> None:
        """Move accounting into a metrics registry (carrying over any
        counts already accumulated on the private counters)."""
        stats = RegistryCacheStats(metrics, name)
        for _ in range(self.stats.hits):
            stats.record_hit()
        for _ in range(self.stats.misses):
            stats.record_miss()
        for _ in range(self.stats.evictions):
            stats.record_eviction()
        self.stats = stats

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """The cached value, or None; refreshes recency and counters."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.record_miss()
            return None
        self._entries.move_to_end(key)
        self.stats.record_hit()
        return value

    def put(self, key: Hashable, value) -> Optional[Hashable]:
        """Insert/refresh a value, evicting the oldest past capacity;
        returns the evicted key, if any."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            evicted, _value = self._entries.popitem(last=False)
            self.stats.record_eviction()
            return evicted
        return None

    def clear(self) -> None:
        self._entries.clear()


class CachingSecurityAnalyzer:
    """A :class:`SecurityAnalyzer` front-end with verdict memoization.

    Drop-in for the controller's ``analyzer`` attribute: ``analyze``
    has the same signature and returns reports identical (verdict,
    findings, egress flow count) to an uncached run.
    """

    def __init__(
        self,
        analyzer: Optional[SecurityAnalyzer] = None,
        capacity: int = 256,
    ):
        self.analyzer = analyzer if analyzer is not None else (
            SecurityAnalyzer()
        )
        self.cache = LRUCache(capacity)

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def instrument(self, metrics, name: str = "verdict") -> None:
        """Expose this cache's accounting through a metrics registry."""
        self.cache.instrument(metrics, name)

    def analyze(
        self,
        config,
        role: str,
        module_address: Optional[int] = None,
        whitelist: FrozenSet[int] = frozenset(),
    ) -> SecurityReport:
        if role == ROLE_OPERATOR:
            # Trusted and address-free: the analyzer short-circuits
            # anyway, caching would only add bookkeeping.
            return self.analyzer.analyze(
                config, role,
                module_address=module_address,
                whitelist=whitelist,
            )
        fingerprint = config.fingerprint()
        whitelist = frozenset(whitelist)
        # Address-independent pre-pass: an `allow` with no address
        # assigned is an `allow` for every address (the address only
        # widens the set of acceptable egress sources).
        base_key = (fingerprint, role, whitelist, None)
        base = self.cache.get(base_key)
        if base is None:
            base = self.analyzer.analyze(
                config, role, module_address=None, whitelist=whitelist,
            )
            self.cache.put(base_key, base)
        if base.verdict == VERDICT_ALLOW or module_address is None:
            return base
        key = (fingerprint, role, whitelist, module_address)
        report = self.cache.get(key)
        if report is None:
            report = self.analyzer.analyze(
                config, role,
                module_address=module_address,
                whitelist=whitelist,
            )
            self.cache.put(key, report)
        return report

    def clear(self) -> None:
        self.cache.clear()
