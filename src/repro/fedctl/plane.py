"""The federated control plane: sharded controllers behind one front-end.

The paper's controller (Section 4.3) is one machine verifying every
request; Figure 10 shows its per-request cost growing with resident
state.  :class:`FederatedControlPlane` is the production shape hinted
at in "Scaling the controller": N :class:`~repro.core.controller.Controller`
shards, each owning a slice of the operator's platforms and tenants,
behind a deterministic admission front-end.

* **Routing** -- a consistent-hash :class:`~repro.fedctl.shardmap.ShardMap`
  over tenant ids (per-tenant ordering: one tenant always talks to one
  shard), plus an :class:`~repro.fedctl.shardmap.AddressRangeIndex`
  over platform pools for cross-domain requests that name an address.
* **Verdict sharing** -- each shard's
  :class:`~repro.core.cache.CachingSecurityAnalyzer` gets a
  :class:`~repro.fedctl.gossip.GossipingVerdictCache`, so a config
  fingerprint verified anywhere is a warm hit everywhere (bounded
  staleness: a gossip round runs every ``gossip_every`` admissions).
* **Failover** -- every shard journals to its own write-ahead
  :class:`~repro.resilience.journal.DeploymentJournal`; when a shard
  dies, the deterministic heir (ring successor) replays the journal
  with :meth:`Controller.recover`, adopts the dead shard's platforms,
  address ranges, and tenants as a **segment**, and the shard map
  delegates the dead shard's ring range to the heir.
* **Federation seam** -- :meth:`frontend` returns a Controller-like
  facade (``request``/``kill``/``ledger``), so the existing
  :class:`repro.core.federation.Federation` (and the CDN/DoS usecases
  on top of it) can treat the whole federation as one operator.

Instrumentation: per-shard admission latency and outcome counters,
gossip hit/miss accounting, failover MTTR, and a ``fedctl`` span tree
(``fedctl.submit`` > ``admit`` > ``compile``/``security``/``check``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.addr import prefix_range
from repro.common.errors import ConfigError, DeploymentError
from repro.core.controller import Controller, DeploymentResult
from repro.core.requests import ClientRequest
from repro.fedctl.gossip import GossipBus, attach_gossip_cache
from repro.fedctl.shardmap import AddressRangeIndex, ShardMap
from repro.netmodel.topology import Network
from repro.resilience.invariants import (
    InvariantViolation, controller_state_digest,
)
from repro.resilience.journal import DeploymentJournal


def shard_network(
    index: int,
    capacity: int = 8,
    resident_capacity: int = 0,
) -> Network:
    """The default per-shard operator view.

    Every shard sees the shared client subnet and the internet, and
    owns two platforms with federation-wide disjoint pools.  With
    ``resident_capacity`` set, a third platform with a /14 pool holds
    pre-seeded resident modules (benchmark rigs); its pool octets are
    disjoint across shards too.

    ::

        internet -- r1 -- p<i>-a / p<i>-b [/ res<i>]
                     |
                    r2 -- clients (172.16/16)
    """
    net = Network("shard-%d" % index)
    net.add_internet()
    net.add_router("r1")
    net.add_router("r2")
    net.add_client_subnet("clients", "172.16.0.0/16")
    net.add_platform(
        "p%d-a" % index, "10.%d.0.0/24" % (1 + 2 * index),
        capacity=capacity,
    )
    net.add_platform(
        "p%d-b" % index, "10.%d.0.0/24" % (2 + 2 * index),
        capacity=capacity,
    )
    net.link("internet", "r1")
    net.link("r1", "p%d-a" % index)
    net.link("r1", "p%d-b" % index)
    if resident_capacity:
        net.add_platform(
            "res%d" % index, "10.%d.0.0/14" % (64 + 4 * index),
            capacity=resident_capacity,
        )
        net.link("r1", "res%d" % index)
    net.link("r1", "r2")
    net.link("r2", "clients")
    net.compute_routes()
    return net


@dataclass
class ShardSegment:
    """One journaled controller domain: a shard's unit of failover.

    A healthy shard holds exactly its *home* segment.  After adopting a
    dead peer, the heir additionally holds the victim's segment(s) --
    same ``segment_id``, same network and journal objects, a freshly
    recovered controller.  Keeping segments separate (instead of
    merging state into the heir's own controller) is what makes a
    later hand-back, and per-segment digest comparison, possible.
    """

    segment_id: str
    network: Network
    journal: DeploymentJournal
    controller: Controller
    #: Tenants with state in this segment.
    tenants: Set[str] = field(default_factory=set)


@dataclass
class ControllerShard:
    """One member of the federation: a shard id plus its segments."""

    shard_id: str
    alive: bool = True
    #: segment id -> segment; the home segment's id == shard_id.
    segments: Dict[str, ShardSegment] = field(default_factory=dict)

    @property
    def home(self) -> ShardSegment:
        return self.segments[self.shard_id]

    def segment_for(self, client_id: str) -> ShardSegment:
        """The segment holding a tenant (adopted segments first)."""
        for segment in self.segments.values():
            if segment.segment_id != self.shard_id and (
                client_id in segment.tenants
            ):
                return segment
        return self.segments[self.shard_id]

    def deployed_count(self) -> int:
        return sum(
            len(s.controller.deployed) for s in self.segments.values()
        )


@dataclass
class FederatedDecision:
    """What the front-end returns for one submitted request."""

    shard: str
    segment: str
    result: DeploymentResult

    def __bool__(self) -> bool:
        return bool(self.result)


@dataclass
class FailoverOutcome:
    """Report of one shard failover."""

    victim: str
    heir: str
    adopted_segments: List[str] = field(default_factory=list)
    adopted_modules: int = 0
    adopted_tenants: int = 0
    #: Detection latency + journal replay, the federation's MTTR.
    mttr_s: float = 0.0


@dataclass
class HandbackOutcome:
    """Report of one shard revival: segments handed back to it."""

    revived: str
    #: segment id -> the heir it was reclaimed from.
    handed_back: Dict[str, str] = field(default_factory=dict)
    modules: int = 0
    tenants: int = 0
    #: Per-segment replay proved byte-for-byte state equality with the
    #: heir's copy (the hand-back loses nothing).
    digest_equal: bool = True
    #: Detection latency + replay + adoption, the hand-back MTTR.
    mttr_s: float = 0.0


@dataclass
class ReshardOutcome:
    """Report of one live reshard (shard added or removed)."""

    kind: str                     # "add" | "remove"
    shard: str
    moved_tenants: List[str] = field(default_factory=list)
    moved_modules: int = 0
    #: (module id, reason) for moves that failed re-verification.
    failures: List[Tuple[str, str]] = field(default_factory=list)
    duration_s: float = 0.0


class _AggregateInvoice:
    """Sum of a client's invoices across every segment."""

    __slots__ = ("total", "parts")

    def __init__(self, parts):
        self.parts = list(parts)
        self.total = sum(p.total for p in self.parts)


class _FederatedLedger:
    """Ledger facade over every live segment (the Federation seam only
    needs ``invoice(client_id, now).total``)."""

    def __init__(self, plane: "FederatedControlPlane"):
        self._plane = plane

    def invoice(self, client_id: str, now: float) -> _AggregateInvoice:
        return _AggregateInvoice(
            segment.controller.ledger.invoice(client_id, now)
            for segment in self._plane.segments()
        )


class FederationFrontend:
    """Controller-like adapter: the whole federation as one operator.

    Implements the slice of the :class:`Controller` API the
    :class:`repro.core.federation.Federation` seam uses --
    ``request``, ``kill``, and ``ledger`` -- so CDN/DoS usecases run
    unchanged on top of a sharded control plane.
    """

    def __init__(self, plane: "FederatedControlPlane"):
        self._plane = plane
        self.ledger = _FederatedLedger(plane)

    def request(
        self,
        request: ClientRequest,
        pinned_platform: Optional[str] = None,
        dry_run: bool = False,
    ) -> DeploymentResult:
        return self._plane.submit(
            request, pinned_platform=pinned_platform, dry_run=dry_run
        ).result

    def kill(self, module_id: str) -> bool:
        return self._plane.kill(module_id)

    @property
    def deployed(self) -> Dict[str, object]:
        """module id -> deployment record, across every live segment
        (Federation-side placement pruning reads this)."""
        out: Dict[str, object] = {}
        for segment in self._plane.segments():
            out.update(segment.controller.deployed)
        return out


class FederatedControlPlane:
    """N controller shards, one deterministic admission front-end."""

    def __init__(
        self,
        shard_count: int = 4,
        network_factory: Optional[Callable[[int], Network]] = None,
        operator_requirements: str = "",
        obs=None,
        clock=None,
        gossip_every: int = 8,
        verdict_capacity: int = 4096,
        vnodes: int = 64,
    ):
        from repro.obs import NULL_OBSERVABILITY

        if shard_count < 1:
            raise ValueError("need at least one shard")
        self.operator_requirements = operator_requirements
        self.gossip_every = gossip_every
        self.verdict_capacity = verdict_capacity
        self._clock = clock if clock is not None else time.time
        self._obs_arg = obs
        self._obs = obs if obs is not None else NULL_OBSERVABILITY
        self._tracer = self._obs.tracer
        metrics = self._obs.metrics
        self._h_admission = metrics.histogram(
            "fedctl_admission_seconds",
            "Front-end wall-clock seconds per admission",
            labels=("shard",),
        )
        self._c_requests = metrics.counter(
            "fedctl_requests_total",
            "Admissions through the front-end by shard and outcome",
            labels=("shard", "outcome"),
        )
        self._c_failovers = metrics.counter(
            "fedctl_failovers_total",
            "Shard failovers by outcome", labels=("outcome",),
        )
        self._h_failover = metrics.histogram(
            "fedctl_failover_seconds",
            "Shard failover MTTR (detection + journal replay)",
        )
        self._c_handbacks = metrics.counter(
            "fedctl_handbacks_total",
            "Shard revivals handing segments back, by outcome",
            labels=("outcome",),
        )
        self._h_handback = metrics.histogram(
            "fedctl_handback_seconds",
            "Shard revival hand-back MTTR "
            "(detection + replay + adoption)",
        )
        self._c_reshards = metrics.counter(
            "fedctl_reshards_total",
            "Live reshard operations by kind", labels=("kind",),
        )
        self._c_reshard_moves = metrics.counter(
            "fedctl_reshard_moves_total",
            "Cross-shard module moves during resharding, by outcome",
            labels=("outcome",),
        )
        network_factory = (
            network_factory if network_factory is not None
            else shard_network
        )
        self._network_factory = network_factory
        #: Next network index for shards added at runtime; also keeps
        #: pool octets disjoint from every shard ever built.
        self._next_index = shard_count
        shard_ids = ["shard-%d" % i for i in range(shard_count)]
        self.shard_map = ShardMap(shard_ids, vnodes=vnodes)
        self.bus = GossipBus(obs=obs)
        self.address_index = AddressRangeIndex()
        self.shards: Dict[str, ControllerShard] = {}
        for index, shard_id in enumerate(shard_ids):
            network = network_factory(index)
            segment = self._make_segment(shard_id, network)
            self.shards[shard_id] = ControllerShard(
                shard_id=shard_id,
                segments={shard_id: segment},
            )
            for platform in network.platforms():
                low, high = prefix_range(
                    platform.pool_network, platform.pool_plen
                )
                self.address_index.register(low, high, shard_id)
        #: module id -> (holding shard id, segment id); federation-wide
        #: module ids are unique (the front-end enforces it).
        self.placements: Dict[str, Tuple[str, str]] = {}
        self.failovers: List[FailoverOutcome] = []
        self.handbacks: List[HandbackOutcome] = []
        self.reshards: List[ReshardOutcome] = []
        self._admissions = 0
        if self._obs.enabled:
            metrics.register_collector(
                self._collect_gauges, key=("fedctl", id(self)),
            )

    # -- construction helpers -----------------------------------------------
    def _make_segment(
        self,
        segment_id: str,
        network: Network,
        journal: Optional[DeploymentJournal] = None,
        recover: bool = False,
        cache_member: Optional[str] = None,
    ) -> ShardSegment:
        journal = (
            journal if journal is not None
            else DeploymentJournal(obs=self._obs_arg)
        )
        if recover:
            controller = Controller.recover(
                network, journal,
                operator_requirements=self.operator_requirements,
                clock=self._clock, obs=self._obs_arg,
            )
        else:
            controller = Controller(
                network,
                operator_requirements=self.operator_requirements,
                clock=self._clock, obs=self._obs_arg, journal=journal,
            )
        member = cache_member if cache_member is not None else segment_id
        attach_gossip_cache(
            controller.analyzer, self.bus, member,
            capacity=self.verdict_capacity,
        )
        if self._obs.enabled:
            controller.analyzer.instrument(
                self._obs.metrics, "verdict:%s" % member
            )
        tenants: Set[str] = set()
        if recover:
            tenants.update(
                record.client_id
                for record in journal.live_state().values()
            )
            tenants.update(journal.registered_addresses())
        return ShardSegment(
            segment_id=segment_id, network=network,
            journal=journal, controller=controller, tenants=tenants,
        )

    # -- admission front-end ------------------------------------------------
    def submit(
        self,
        request: ClientRequest,
        pinned_platform: Optional[str] = None,
        dry_run: bool = False,
    ) -> FederatedDecision:
        """Route one request to its shard and admit it there.

        Per-tenant ordering holds by construction: a tenant's requests
        always resolve to the same live shard (via delegation after a
        failover), and each shard serializes its own admissions.
        """
        started = time.perf_counter()
        with self._tracer.span(
            "fedctl.submit",
            client_id=request.client_id, dry_run=dry_run,
        ) as span:
            shard_id = self.shard_map.route(request.client_id)
            span.set("shard", shard_id)
            shard = self.shards[shard_id]
            segment = shard.segment_for(request.client_id)
            span.set("segment", segment.segment_id)
            result = self._admit_on(
                segment, request, pinned_platform, dry_run
            )
            span.set("accepted", result.accepted)
        self._h_admission.labels(shard_id).observe(
            time.perf_counter() - started
        )
        self._c_requests.labels(
            shard_id, "accepted" if result.accepted else "rejected"
        ).inc()
        if result.accepted and not dry_run:
            self.placements[result.module_id] = (
                shard_id, segment.segment_id
            )
            segment.tenants.add(request.client_id)
        self._admissions += 1
        if self.gossip_every and (
            self._admissions % self.gossip_every == 0
        ):
            self.gossip_round()
        return FederatedDecision(
            shard=shard_id, segment=segment.segment_id, result=result
        )

    def _admit_on(
        self,
        segment: ShardSegment,
        request: ClientRequest,
        pinned_platform: Optional[str],
        dry_run: bool,
    ) -> DeploymentResult:
        # Module ids are federation-wide handles (kill/migrate route by
        # them), so enforce global uniqueness before the shard's local
        # check.
        if request.module_name and (
            request.module_name in self.placements
        ):
            holder, _segment = self.placements[request.module_name]
            return DeploymentResult(
                accepted=False,
                reason="module name %r already in use on %s"
                       % (request.module_name, holder),
            )
        return segment.controller.request(
            request, pinned_platform=pinned_platform, dry_run=dry_run
        )

    def kill(self, module_id: str) -> bool:
        """Tear a module down wherever it runs in the federation."""
        placed = self.placements.get(module_id)
        if placed is None:
            return False
        shard_id, segment_id = placed
        segment = self.shards[shard_id].segments[segment_id]
        killed = segment.controller.kill(module_id)
        if killed:
            self.placements.pop(module_id, None)
        return killed

    def resolve_address(self, address: int) -> Optional[str]:
        """The shard whose platforms own an address (cross-domain
        requests that name a target address instead of a tenant)."""
        return self.address_index.owner_of(address)

    # -- gossip -------------------------------------------------------------
    def gossip_round(self) -> int:
        """Drain every shard's rumor inbox (bounded-staleness tick)."""
        with self._tracer.span("fedctl.gossip", kind="round"):
            return self.bus.drain_all()

    def anti_entropy_round(self) -> int:
        """Full pairwise verdict sync (reconciles dropped rumors)."""
        with self._tracer.span("fedctl.gossip", kind="anti-entropy"):
            return self.bus.anti_entropy()

    # -- failover -----------------------------------------------------------
    def fail_shard(
        self,
        shard_id: str,
        heir_id: Optional[str] = None,
        failed_at: Optional[float] = None,
    ) -> FailoverOutcome:
        """A whole controller shard died: the heir adopts its tenants.

        For every segment the victim held (its home, plus anything it
        had itself adopted), the heir replays the segment's write-ahead
        journal with :meth:`Controller.recover` -- reconciling trial
        placements orphaned mid-deploy -- and takes over the segment's
        platforms, address ranges, and tenants.  The shard map then
        delegates the victim's ring range to the heir, so the victim's
        tenants keep their per-tenant ordering on a single live shard.

        ``failed_at`` (on the plane's clock) models detection latency;
        MTTR = detection + replay.
        """
        victim = self.shards.get(shard_id)
        if victim is None:
            raise ConfigError("unknown shard %r" % (shard_id,))
        if not victim.alive:
            raise ConfigError("shard %r is already down" % (shard_id,))
        detection = 0.0
        if failed_at is not None:
            detection = max(0.0, self._clock() - failed_at)
        victim.alive = False
        heir_id = (
            heir_id if heir_id is not None
            else self.shard_map.successor(shard_id)
        )
        heir = self.shards[heir_id]
        if not heir.alive:
            raise ConfigError(
                "heir shard %r is not alive" % (heir_id,)
            )
        started = time.perf_counter()
        outcome = FailoverOutcome(victim=shard_id, heir=heir_id)
        with self._tracer.span(
            "fedctl.failover", victim=shard_id, heir=heir_id,
        ):
            self.shard_map.delegate(shard_id, heir_id)
            # The dead shard's caches stop receiving rumors.
            for segment in victim.segments.values():
                self.bus.leave(
                    segment.controller.analyzer.cache.shard_id
                )
            # Stale placements (e.g. an intent that never committed)
            # are rebuilt from the journals below.
            for module_id in [
                m for m, (holder, _s) in self.placements.items()
                if holder == shard_id
            ]:
                del self.placements[module_id]
            for segment_id, segment in sorted(victim.segments.items()):
                with self._tracer.span(
                    "fedctl.replay", segment=segment_id,
                ):
                    adopted = self._make_segment(
                        segment_id, segment.network,
                        journal=segment.journal, recover=True,
                        cache_member="%s@%s" % (segment_id, heir_id),
                    )
                heir.segments[segment_id] = adopted
                outcome.adopted_segments.append(segment_id)
                outcome.adopted_modules += len(
                    adopted.controller.deployed
                )
                outcome.adopted_tenants += len(adopted.tenants)
                for module_id in adopted.controller.deployed:
                    self.placements[module_id] = (heir_id, segment_id)
            victim.segments = {}
            self.address_index.reassign(shard_id, heir_id)
            # Catch-up: the recovered segments joined the bus with
            # empty caches; one anti-entropy round re-warms them with
            # every verdict the federation already holds.
            self.bus.anti_entropy()
        outcome.mttr_s = detection + (time.perf_counter() - started)
        self._c_failovers.labels("adopted").inc()
        self._h_failover.observe(outcome.mttr_s)
        self.failovers.append(outcome)
        return outcome

    # -- revival hand-back ---------------------------------------------------
    def revive_shard(
        self,
        shard_id: str,
        strict: bool = True,
        repaired_at: Optional[float] = None,
    ) -> HandbackOutcome:
        """A repaired shard rejoins: its heir hands the state back.

        The inverse of :meth:`fail_shard`.  The shard map drops the
        delegation (the revived shard resumes ownership of its ring
        range), and every segment whose range the revived shard now
        serves again -- its own home segment, plus any segment whose
        delegation *chain* ends at it (reviving B after A->B, B->C
        reclaims both "A" and "B" from C) -- is replayed from its
        write-ahead journal into a fresh controller on the revived
        shard.  The heir's copy and the replayed copy must agree
        byte-for-byte (``controller_state_digest``); with ``strict``
        a mismatch raises instead of just being reported.

        The replayed segments join the gossip bus with cold caches;
        one anti-entropy round re-warms them with every verdict the
        federation already holds, so nothing is re-verified.

        ``repaired_at`` (on the plane's clock) models how long the
        health monitor took to notice the repair; hand-back MTTR =
        detection + replay + adoption.
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise ConfigError("unknown shard %r" % (shard_id,))
        if shard.alive:
            raise ConfigError(
                "shard %r is already alive" % (shard_id,)
            )
        detection = 0.0
        if repaired_at is not None:
            detection = max(0.0, self._clock() - repaired_at)
        started = time.perf_counter()
        self.shard_map.revive(shard_id)
        shard.alive = True
        outcome = HandbackOutcome(revived=shard_id)
        reclaim: List[Tuple[str, ControllerShard]] = []
        for holder in self.live_shards():
            if holder.shard_id == shard_id:
                continue
            for segment_id in list(holder.segments):
                if segment_id == holder.shard_id:
                    continue
                if self.shard_map.resolve(segment_id) == shard_id:
                    reclaim.append((segment_id, holder))
        with self._tracer.span(
            "fedctl.handback", revived=shard_id,
        ):
            for segment_id, holder in sorted(
                reclaim, key=lambda entry: entry[0]
            ):
                segment = holder.segments[segment_id]
                before = controller_state_digest(segment.controller)
                self.bus.leave(
                    segment.controller.analyzer.cache.shard_id
                )
                member = (
                    segment_id if segment_id == shard_id
                    else "%s@%s" % (segment_id, shard_id)
                )
                with self._tracer.span(
                    "fedctl.replay", segment=segment_id,
                ):
                    reclaimed = self._make_segment(
                        segment_id, segment.network,
                        journal=segment.journal, recover=True,
                        cache_member=member,
                    )
                after = controller_state_digest(reclaimed.controller)
                if before != after:
                    outcome.digest_equal = False
                    if strict:
                        self._c_handbacks.labels(
                            "digest-mismatch"
                        ).inc()
                        raise InvariantViolation(
                            "hand-back of segment %r to %r diverged "
                            "from the heir %r's copy (journal replay "
                            "is not exact)"
                            % (segment_id, shard_id, holder.shard_id)
                        )
                del holder.segments[segment_id]
                shard.segments[segment_id] = reclaimed
                for module_id in [
                    m for m, placed in self.placements.items()
                    if placed == (holder.shard_id, segment_id)
                ]:
                    del self.placements[module_id]
                for module_id in reclaimed.controller.deployed:
                    self.placements[module_id] = (shard_id, segment_id)
                for platform in segment.network.platforms():
                    low, high = prefix_range(
                        platform.pool_network, platform.pool_plen
                    )
                    self.address_index.reassign_exact(
                        low, high, shard_id
                    )
                outcome.handed_back[segment_id] = holder.shard_id
                outcome.modules += len(reclaimed.controller.deployed)
                outcome.tenants += len(reclaimed.tenants)
            # Cold caches re-warm from the federation's verdicts; no
            # configuration is re-verified because of the revival.
            self.bus.anti_entropy()
        outcome.mttr_s = detection + (time.perf_counter() - started)
        self._c_handbacks.labels(
            "ok" if outcome.digest_equal else "digest-mismatch"
        ).inc()
        self._h_handback.observe(outcome.mttr_s)
        self.handbacks.append(outcome)
        return outcome

    # -- live resharding -----------------------------------------------------
    def add_shard(
        self,
        shard_id: Optional[str] = None,
        network: Optional[Network] = None,
    ) -> ReshardOutcome:
        """Grow the federation by one shard, live.

        The new shard's virtual nodes claim ~1/N of the ring; exactly
        the tenants whose route changed -- and, by the consistent-hash
        movement bound, *only* tenants that now route to the new shard
        (checked, violations raise) -- have their modules migrated
        over through the journaled adopt fast path
        (:meth:`Controller.adopt_module`): each move trial-places the
        module on the destination and journals its deploy intent and
        commit around the install, so a crash mid-reshard leaves an
        orphan placement the next recovery reconciles away.
        """
        from repro.fedctl.invariants import (
            reshard_movement_violations,
        )

        index = self._next_index
        shard_id = (
            shard_id if shard_id is not None else "shard-%d" % index
        )
        if shard_id in self.shards:
            raise ConfigError(
                "shard %r already exists" % (shard_id,)
            )
        started = time.perf_counter()
        routes_before = self._tenant_routes()
        self.shard_map.add_shard(shard_id)
        self._next_index = index + 1
        network = (
            network if network is not None
            else self._network_factory(index)
        )
        segment = self._make_segment(shard_id, network)
        self.shards[shard_id] = ControllerShard(
            shard_id=shard_id, segments={shard_id: segment},
        )
        for platform in network.platforms():
            low, high = prefix_range(
                platform.pool_network, platform.pool_plen
            )
            self.address_index.register(low, high, shard_id)
        routes_after = {
            tenant: self.shard_map.route(tenant)
            for tenant in routes_before
        }
        problems = reshard_movement_violations(
            routes_before, routes_after, added=shard_id
        )
        if problems:
            raise InvariantViolation(
                "adding %r broke the movement bound:\n  %s"
                % (shard_id, "\n  ".join(problems))
            )
        outcome = ReshardOutcome(kind="add", shard=shard_id)
        moved = sorted(
            tenant for tenant in routes_before
            if routes_after[tenant] != routes_before[tenant]
        )
        with self._tracer.span(
            "fedctl.reshard", kind="add", shard=shard_id,
        ):
            for tenant in moved:
                self._move_tenant(
                    tenant, routes_before[tenant], shard_id, outcome
                )
            # Warm the new shard's cold verdict cache.
            self.bus.anti_entropy()
        outcome.duration_s = time.perf_counter() - started
        self._c_reshards.labels("add").inc()
        self.reshards.append(outcome)
        return outcome

    def remove_shard(self, shard_id: str) -> ReshardOutcome:
        """Gracefully decommission a live shard.

        The shard's virtual nodes leave the ring, so exactly its own
        tenants move -- each to the live shard that now serves its
        key (checked against the movement bound).  Their modules
        migrate out through the journaled adopt fast path before the
        shard's gossip membership, address ranges, and controller are
        retired.  A shard still holding adopted segments cannot be
        removed (revive their owners first), and the shard map
        refuses to remove a delegation heir or the last live shard.

        A module move that fails re-verification aborts the
        decommission with :class:`InvariantViolation`; the shard is
        retired from routing but retained (with its remaining
        modules) for the operator to inspect.
        """
        from repro.fedctl.invariants import (
            reshard_movement_violations,
        )

        shard = self.shards.get(shard_id)
        if shard is None:
            raise ConfigError("unknown shard %r" % (shard_id,))
        if not shard.alive:
            raise ConfigError(
                "shard %r is dead; revive it (hand its state back) "
                "before removing it" % (shard_id,)
            )
        adopted = sorted(
            s for s in shard.segments if s != shard_id
        )
        if adopted:
            raise ConfigError(
                "shard %r still holds adopted segment(s) %s; revive "
                "their owners before removing it"
                % (shard_id, ", ".join(adopted))
            )
        started = time.perf_counter()
        routes_before = self._tenant_routes()
        self.shard_map.remove_shard(shard_id)
        routes_after = {
            tenant: self.shard_map.route(tenant)
            for tenant in routes_before
        }
        problems = reshard_movement_violations(
            routes_before, routes_after, removed=shard_id
        )
        if problems:
            raise InvariantViolation(
                "removing %r broke the movement bound:\n  %s"
                % (shard_id, "\n  ".join(problems))
            )
        outcome = ReshardOutcome(kind="remove", shard=shard_id)
        moved = sorted(
            tenant for tenant in routes_before
            if routes_after[tenant] != routes_before[tenant]
        )
        with self._tracer.span(
            "fedctl.reshard", kind="remove", shard=shard_id,
        ):
            for tenant in moved:
                self._move_tenant(
                    tenant, shard_id, routes_after[tenant], outcome
                )
        if outcome.failures:
            self.reshards.append(outcome)
            raise InvariantViolation(
                "decommission of %r stranded modules:\n  "
                % (shard_id,)
                + "\n  ".join(
                    "%s: %s" % (module_id, reason)
                    for module_id, reason in outcome.failures
                )
            )
        self.bus.leave(shard.home.controller.analyzer.cache.shard_id)
        self.address_index.unregister_shard(shard_id)
        del self.shards[shard_id]
        outcome.duration_s = time.perf_counter() - started
        self._c_reshards.labels("remove").inc()
        self.reshards.append(outcome)
        return outcome

    def _tenant_routes(self) -> Dict[str, str]:
        """tenant -> serving live shard, for every tenant with state."""
        routes: Dict[str, str] = {}
        for shard in self.live_shards():
            for segment in shard.segments.values():
                for tenant in segment.tenants:
                    routes[tenant] = self.shard_map.route(tenant)
        return routes

    def _move_tenant(
        self,
        tenant: str,
        src_shard_id: str,
        dst_shard_id: str,
        outcome: ReshardOutcome,
    ) -> None:
        """Move one tenant's modules (and membership) between shards."""
        src_segment = self.shards[src_shard_id].segment_for(tenant)
        dst_segment = self.shards[dst_shard_id].home
        module_ids = sorted(
            module_id
            for module_id, record in
            src_segment.controller.deployed.items()
            if record.client_id == tenant
        )
        all_moved = True
        for module_id in module_ids:
            if not self._migrate_module_across(
                module_id, src_segment, dst_shard_id, outcome
            ):
                all_moved = False
        if all_moved:
            src_segment.tenants.discard(tenant)
            dst_segment.tenants.add(tenant)
            outcome.moved_tenants.append(tenant)
        elif module_ids != sorted(
            module_id
            for module_id, record in
            src_segment.controller.deployed.items()
            if record.client_id == tenant
        ):
            # Partial move: the tenant has state on both sides.
            dst_segment.tenants.add(tenant)

    def _migrate_module_across(
        self,
        module_id: str,
        src_segment: ShardSegment,
        dst_shard_id: str,
        outcome: ReshardOutcome,
    ) -> bool:
        """One cross-shard module move through the adopt fast path."""
        dst_segment = self.shards[dst_shard_id].home
        record = src_segment.controller.export_module(module_id)
        result = dst_segment.controller.adopt_module(
            record, origin="reshard:%s" % src_segment.segment_id,
        )
        if not result:
            outcome.failures.append((module_id, result.reason))
            self._c_reshard_moves.labels("failed").inc()
            return False
        src_segment.controller.kill(module_id)
        self.placements[module_id] = (
            dst_shard_id, dst_segment.segment_id
        )
        outcome.moved_modules += 1
        self._c_reshard_moves.labels("moved").inc()
        return True

    # -- views --------------------------------------------------------------
    def frontend(self) -> FederationFrontend:
        """The Controller-like facade for the Federation seam."""
        return FederationFrontend(self)

    def segments(self) -> List[ShardSegment]:
        """Every live segment, in shard order."""
        return [
            segment
            for shard in self.shards.values() if shard.alive
            for segment in shard.segments.values()
        ]

    def live_shards(self) -> List[ControllerShard]:
        return [s for s in self.shards.values() if s.alive]

    def stats(self) -> dict:
        """Operator-facing counters (available without observability)."""
        shards = {}
        for shard_id, shard in self.shards.items():
            shards[shard_id] = {
                "alive": shard.alive,
                "segments": {
                    segment_id: {
                        "deployed": len(segment.controller.deployed),
                        "tenants": len(segment.tenants),
                        "journal_records": len(segment.journal),
                    }
                    for segment_id, segment in shard.segments.items()
                },
            }
        remote_hits = sum(
            getattr(s.controller.analyzer.cache, "remote_hits", 0)
            for s in self.segments()
        )
        return {
            "admissions": self._admissions,
            "placements": len(self.placements),
            "failovers": len(self.failovers),
            "handbacks": len(self.handbacks),
            "reshards": len(self.reshards),
            "gossip_remote_hits": remote_hits,
            "gossip": self.bus.stats(),
            "shards": shards,
        }

    def _collect_gauges(self) -> None:
        metrics = self._obs.metrics
        g_live = metrics.gauge(
            "fedctl_live_shards", "Shards currently alive",
        )
        g_live.set(len(self.live_shards()))
        g_modules = metrics.gauge(
            "fedctl_deployed_modules",
            "Deployed modules by holding shard", labels=("shard",),
        )
        g_tenants = metrics.gauge(
            "fedctl_tenants",
            "Tenants with state by holding shard", labels=("shard",),
        )
        g_remote = metrics.gauge(
            "fedctl_gossip_remote_hits",
            "Verdict-cache hits served from gossiped entries",
            labels=("shard",),
        )
        for shard_id, shard in self.shards.items():
            g_modules.labels(shard_id).set(shard.deployed_count())
            g_tenants.labels(shard_id).set(sum(
                len(s.tenants) for s in shard.segments.values()
            ))
            g_remote.labels(shard_id).set(sum(
                getattr(s.controller.analyzer.cache, "remote_hits", 0)
                for s in shard.segments.values()
            ))
