"""Gossip-shared security-verdict cache across controller shards.

A security verdict depends only on the configuration's canonical
fingerprint, the requester's role and white-list, and (sometimes) the
assigned address -- never on the network snapshot
(:class:`repro.core.security.SecurityAnalyzer`).  So a verdict computed
on one shard is *valid on every other*, and popular stock modules
should be verified exactly once federation-wide.

:class:`GossipBus` implements that sharing with an epidemic protocol
over the shards' existing :class:`~repro.core.cache.LRUCache` verdict
caches:

* every **locally computed** verdict is published as a rumor into each
  peer's bounded inbox (:meth:`GossipingVerdictCache.put`),
* a **gossip round** drains a shard's inbox into its cache
  (:meth:`GossipBus.drain` / :meth:`GossipBus.drain_all`); the control
  plane runs one automatically every ``gossip_every`` admissions, which
  bounds staleness: a verdict is at most ``gossip_every`` admissions
  old before every live shard has it,
* an **anti-entropy round** (:meth:`GossipBus.anti_entropy`) does a
  full pairwise sync -- entries dropped from an overflowing inbox or
  missed while a shard was down are reconciled here, the classic
  rumor-mongering + anti-entropy split.

Rumors carry the exact report object, so a warm remote hit is
byte-for-byte the decision the origin shard made (the cross-shard test
asserts this).  This is an in-process bus; a multi-host deployment
would serialize ``(key, report)`` pairs over its message fabric with
the same protocol.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.core.cache import CachingSecurityAnalyzer, LRUCache


class GossipBus:
    """The shards' rumor fabric: bounded inboxes + anti-entropy."""

    def __init__(self, obs=None, inbox_limit: int = 4096):
        from repro.obs import NULL_OBSERVABILITY

        if inbox_limit < 1:
            raise ValueError("inbox limit must be positive")
        self.inbox_limit = inbox_limit
        self._members: Dict[str, "GossipingVerdictCache"] = {}
        self._inboxes: Dict[
            str, Deque[Tuple[int, str, Hashable, object]]
        ] = {}
        self._seq = itertools.count(1)
        #: Rumors silently shed per shard by bounded-inbox overflow
        #: (survives a member leaving: the operator can still see who
        #: was losing rumors after a failover).
        self.dropped: Dict[str, int] = {}
        #: Cumulative rumor accounting (available without obs).
        self.published_total = 0
        self.applied_total = 0
        self.duplicate_total = 0
        #: Entries the last / all anti-entropy rounds reconciled back.
        self.last_recovered = 0
        self.recovered_total = 0
        obs = obs if obs is not None else NULL_OBSERVABILITY
        self._c_rumors = obs.metrics.counter(
            "fedctl_gossip_rumors_total",
            "Verdict rumors by event",
            labels=("event",),
        )
        self._c_dropped = obs.metrics.counter(
            "fedctl_gossip_dropped_total",
            "Rumors shed by bounded-inbox overflow, per shard",
            labels=("shard",),
        )
        self._c_rounds = obs.metrics.counter(
            "fedctl_gossip_rounds_total",
            "Gossip rounds by kind",
            labels=("kind",),
        )

    # -- membership ---------------------------------------------------------
    def join(self, shard_id: str, cache: "GossipingVerdictCache") -> None:
        if shard_id in self._members:
            raise ConfigError(
                "shard %r joined the gossip bus twice" % (shard_id,)
            )
        self._members[shard_id] = cache
        self._inboxes[shard_id] = deque()

    def leave(self, shard_id: str) -> None:
        """Drop a dead member: no more rumors are queued for it."""
        self._members.pop(shard_id, None)
        self._inboxes.pop(shard_id, None)

    def members(self) -> List[str]:
        return list(self._members)

    # -- rumor mongering ----------------------------------------------------
    def publish(
        self, origin: str, key: Hashable, value: object
    ) -> None:
        """Queue a locally computed verdict to every peer's inbox."""
        seq = next(self._seq)
        self.published_total += 1
        self._c_rumors.labels("published").inc()
        for shard_id, inbox in self._inboxes.items():
            if shard_id == origin:
                continue
            inbox.append((seq, origin, key, value))
            if len(inbox) > self.inbox_limit:
                # Overflow drops the *oldest* rumor; anti-entropy is
                # the backstop that reconciles what rumor-mongering
                # lost.  The loss is counted per shard, never silent.
                inbox.popleft()
                self.dropped[shard_id] = self.dropped.get(shard_id, 0) + 1
                self._c_rumors.labels("dropped").inc()
                self._c_dropped.labels(shard_id).inc()

    def pending(self, shard_id: str) -> int:
        """Rumors queued for a shard and not yet applied."""
        return len(self._inboxes.get(shard_id, ()))

    def drain(self, shard_id: str) -> int:
        """Apply a shard's queued rumors to its cache; returns how many
        were newly applied (duplicates are counted separately)."""
        inbox = self._inboxes.get(shard_id)
        cache = self._members.get(shard_id)
        if inbox is None or cache is None:
            raise ConfigError("unknown gossip member %r" % (shard_id,))
        applied = 0
        while inbox:
            _seq, _origin, key, value = inbox.popleft()
            if cache.apply_remote(key, value):
                applied += 1
                self.applied_total += 1
                self._c_rumors.labels("applied").inc()
            else:
                self.duplicate_total += 1
                self._c_rumors.labels("duplicate").inc()
        return applied

    def drain_all(self) -> int:
        """One gossip round: every shard applies its queued rumors."""
        self._c_rounds.labels("gossip").inc()
        return sum(self.drain(shard_id) for shard_id in self._members)

    # -- anti-entropy -------------------------------------------------------
    def anti_entropy(self) -> int:
        """Full pairwise sync: every cache learns every entry any peer
        holds (inboxes are drained first).

        Returns how many entries reconciliation recovered -- verdicts a
        member was missing because an overflowing inbox shed them or
        because the member (re)joined after they were rumored.  The
        count is also kept on :attr:`last_recovered` /
        :attr:`recovered_total` and surfaces in :meth:`stats`.
        """
        self._c_rounds.labels("anti-entropy").inc()
        for shard_id in self._members:
            self.drain(shard_id)
        union: Dict[Hashable, object] = {}
        for cache in self._members.values():
            union.update(cache.entries())
        copied = 0
        for cache in self._members.values():
            for key, value in union.items():
                if cache.apply_remote(key, value):
                    copied += 1
                    self.applied_total += 1
                    self._c_rumors.labels("applied").inc()
        self.last_recovered = copied
        self.recovered_total += copied
        return copied

    # -- accounting ---------------------------------------------------------
    def stats(self) -> dict:
        """Operator-facing rumor accounting (works without obs).

        ``dropped`` is per shard and includes shards that have since
        left the bus; ``pending`` covers current members only.
        """
        return {
            "members": list(self._members),
            "pending": {
                shard_id: len(inbox)
                for shard_id, inbox in self._inboxes.items()
            },
            "dropped": dict(self.dropped),
            "published": self.published_total,
            "applied": self.applied_total,
            "duplicates": self.duplicate_total,
            "anti_entropy_last_recovered": self.last_recovered,
            "anti_entropy_recovered": self.recovered_total,
        }


class GossipingVerdictCache(LRUCache):
    """An :class:`LRUCache` that publishes local inserts to the bus.

    Drop-in replacement for a
    :class:`~repro.core.cache.CachingSecurityAnalyzer`'s ``cache``
    attribute: the analyzer's probe/compute/store logic is reused
    unchanged, and the pub/sub rides on ``put`` (local computation ->
    publish) vs. :meth:`apply_remote` (gossip -> silent insert).
    """

    def __init__(
        self, bus: GossipBus, shard_id: str, capacity: int = 4096
    ):
        super().__init__(capacity)
        self.bus = bus
        self.shard_id = shard_id
        #: Keys whose cached value arrived via gossip (vs. computed
        #: here); a hit on one is a verification this shard never ran.
        self._remote_keys = set()
        #: Hits served from gossiped entries (the cross-shard win).
        self.remote_hits = 0
        bus.join(shard_id, self)

    def get(self, key: Hashable):
        value = super().get(key)
        if value is not None and key in self._remote_keys:
            self.remote_hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """A locally computed verdict: cache it and tell the peers."""
        self._remote_keys.discard(key)
        self._remote_keys.discard(super().put(key, value))
        self.bus.publish(self.shard_id, key, value)

    def apply_remote(self, key: Hashable, value) -> bool:
        """Insert a gossiped verdict without re-publishing it.

        Returns False for duplicates (the key is already cached --
        keeping the incumbent preserves determinism: both copies
        decide identically, by construction of the cache key).
        """
        if key in self._entries:
            return False
        self._remote_keys.add(key)
        self._remote_keys.discard(LRUCache.put(self, key, value))
        return True

    def entries(self) -> Dict[Hashable, object]:
        """A snapshot of the cached entries (anti-entropy source)."""
        return dict(self._entries)


def attach_gossip_cache(
    analyzer: CachingSecurityAnalyzer,
    bus: GossipBus,
    shard_id: str,
    capacity: int = 4096,
) -> GossipingVerdictCache:
    """Swap a caching analyzer's LRU for a gossiping one.

    Carries over nothing (fresh shard, fresh cache) but keeps any
    registry instrumentation semantics: callers should re-run
    ``analyzer.instrument(...)`` after attaching if they want the new
    cache's accounting in a metrics registry.
    """
    cache = GossipingVerdictCache(bus, shard_id, capacity=capacity)
    analyzer.cache = cache
    return cache
