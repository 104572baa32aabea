"""Verdict reuse and model maintenance are invisible -- and bounded.

Three properties of the admission path under tenant churn, each driven
by the same seeded operation sequence built from ``repro.core.catalog``
(admit / kill-oldest / dry-run / rejected and unsatisfiable requests,
with migrations -- one refused for a full target -- an export -> adopt
-> kill round trip through a sibling controller, and an out-of-band
``flow_table`` bump sprinkled in):

* **differential** -- after every operation the controller under test
  is indistinguishable from an oracle controller that flushes its
  compiled model, summary tables and verdict cache before every
  request (so the oracle explores every requirement on a from-scratch
  compile, every time);
* **maintained == recompiled** -- after every operation, exploring from
  each operator-policy origin over the maintained model gives exactly
  the flows a fresh ``NetworkCompiler(network).compile()`` gives,
  pseudo-ports included;
* **retention** -- in steady state no container in the control plane
  grows with the number of admissions served, and no admission, move
  or adoption recompiles the residents.
"""

import random
from collections import Counter

from repro.core import (
    CachingSecurityAnalyzer,
    ClientRequest,
    Controller,
    ROLE_CLIENT,
    ROLE_THIRD_PARTY,
)
from repro.core.catalog import catalog_source
from repro.core.security import addresses_to_whitelist
from repro.fedctl import GossipBus, attach_gossip_cache, shard_network
from repro.netmodel.symgraph import NetworkCompiler
from repro.policy import parse_requirements
from repro.resilience import DeploymentJournal, controller_state_digest
from repro.symexec import canonical_flow

POLICY = (
    "reach from internet tcp src port 80 -> r1 -> client\n"
    "reach from client -> internet"
)
#: Plus a universal statement, which no trial may answer from cache.
POLICY_WITH_ALWAYS = (
    POLICY + "\nalways from internet tcp src port 80 -> r1 -> client"
)
RESIDENTS = 16

BATCHER = """
    FromNetfront() ->
    IPFilter(allow udp port %d) ->
    IPRewriter(pattern - - %s - 0 0)
    -> TimedUnqueue(120, 100)
    -> dst :: ToNetfront();
"""

PINNED = ("batcher", "firewall", "flow_meter", "rate_limiter", "multicast")
REJECTED = ("nat", "ip_router", "dpi")
OPEN = ("tunnel", "x86_vm", "dns_server")
#: (share, kinds); ``unsatisfiable`` is a firewall whose client demands
#: a path its own filter forbids, so every candidate platform is tried.
MIX = (
    (0.62, PINNED), (0.13, REJECTED), (0.13, OPEN),
    (0.12, ("unsatisfiable",)),
)


def tenant_request(rng: random.Random, index: int):
    """``(kind, ClientRequest)`` for the ``index``-th tenant."""
    draw = rng.random()
    for share, kinds in MIX:
        if draw < share:
            break
        draw -= share
    kind = rng.choice(kinds)
    if rng.random() < 0.5:
        addr, port = "172.16.15.133", 1500
    else:
        addr = "172.16.%d.%d" % (rng.randrange(16, 250), rng.randrange(1, 250))
        port = rng.randrange(1024, 65000)
    role = (
        ROLE_THIRD_PARTY if kind == "tunnel"
        else rng.choice((ROLE_CLIENT, ROLE_THIRD_PARTY))
    )
    name = "m%05d" % index
    owned = (addr,)
    requirements = ""
    if kind == "batcher":
        source = BATCHER % (port, addr)
        requirements = (
            "reach from internet udp -> %s:dst:0 -> client dst port %d"
            % (name, port)
        )
    elif kind in ("firewall", "flow_meter", "rate_limiter"):
        source = catalog_source(kind, client_addr=addr)
        requirements = "reach from internet tcp -> %s:out:0 -> client" % name
    elif kind == "unsatisfiable":
        source = catalog_source("firewall", client_addr=addr)
        requirements = (
            "reach from internet icmp -> %s:out:0 -> client" % name
        )
    elif kind == "multicast":
        head, last = addr.rsplit(".", 1)
        owned = (addr, "%s.%d" % (head, int(last) + 1))
        source = catalog_source(kind, destinations=owned)
        requirements = "reach from internet udp -> %s:out:0 -> client" % name
    elif kind == "x86_vm":
        source = catalog_source(kind, image="image%d" % (index % 3))
    else:
        source = catalog_source(kind, module_addr=addr)
    return kind, ClientRequest(
        client_id="t%05d" % index,
        role=role,
        config_source=source,
        requirements=requirements,
        owned_addresses=owned,
        module_name=name,
    )


def new_controller(policy: str = POLICY, shard: int = 0) -> Controller:
    return Controller(
        shard_network(shard, capacity=RESIDENTS), policy,
        journal=DeploymentJournal(),
    )


def round_trip(controller, sibling, module_id):
    """Export -> adopt -> kill, there and back: the module leaves for
    ``sibling`` and returns, as a live reshard would move it."""
    away = sibling.adopt_module(
        controller.export_module(module_id), origin="churn"
    )
    assert away, away.reason
    assert controller.kill(module_id)
    back = controller.adopt_module(sibling.export_module(module_id))
    assert back, back.reason
    assert sibling.kill(module_id)
    return away.target, away.new_address, back.target, back.new_address


def reach_view(results):
    return [(r.satisfied, str(r.requirement), r.reason) for r in results]


def admission_view(result):
    return (
        result.accepted, result.platform, result.address,
        result.sandboxed, result.reason, reach_view(result.reach_results),
    )


def canonical_exploration(exploration):
    return (
        tuple(canonical_flow(f) for f in exploration.delivered),
        tuple(canonical_flow(f) for f in exploration.dropped),
        exploration.steps,
    )


class Churn:
    """One seeded churn over the controller under test and, optionally,
    an oracle controller that trusts nothing it computed before:
    ``invalidate_model_cache()`` precedes its every operation."""

    def __init__(self, seed: int, policy: str, with_oracle: bool):
        self.rng = random.Random(seed)
        self.subject = new_controller(policy)
        self.oracle = new_controller(policy) if with_oracle else None
        #: Each controller's own sibling for adoption round trips.
        self.siblings = {
            controller: new_controller(policy, shard=1)
            for controller in (self.subject, self.oracle)
            if controller is not None
        }

    def both(self, operation, view):
        """Apply ``operation(controller)`` to the subject and the
        oracle; their ``view`` of the outcome must agree."""
        outcome = operation(self.subject)
        if self.oracle is not None:
            self.oracle.invalidate_model_cache()
            assert view(outcome) == view(operation(self.oracle))
        return outcome

    def run(self, tenants: int):
        """Yields the kind of each operation after performing it."""
        rng = self.rng
        residents = []
        platforms = [p.name for p in self.subject.network.platforms()]
        for index in range(tenants):
            kind, request = tenant_request(rng, index)
            dry_run = rng.random() < 0.1
            result = self.both(
                lambda c: c.request(request, dry_run=dry_run),
                admission_view,
            )
            yield "admit"
            if result.accepted and not dry_run:
                victim = result.module_id
                if kind not in OPEN:
                    residents.append(victim)
                    victim = (
                        residents.pop(0) if len(residents) > RESIDENTS
                        else None
                    )
                if victim is not None:
                    assert self.both(lambda c: c.kill(victim), bool)
                    yield "kill"
            if index % 97 == 96:
                module_id = rng.choice(residents)
                here = self.subject.deployed[module_id].platform
                target = next(p for p in platforms if p != here)
                self.both(
                    lambda c: c.migrate(module_id, target),
                    lambda r: (r.migrated, r.new_address, r.reason),
                )
                yield "migrate"
                # The same kind of move against a full target: refused.
                module_id = rng.choice(residents)
                here = self.subject.deployed[module_id].platform
                target = next(p for p in platforms if p != here)

                def refused(controller):
                    full = controller.network.node(target)
                    capacity, full.capacity = full.capacity, len(full.modules)
                    try:
                        return controller.migrate(module_id, target)
                    finally:
                        full.capacity = capacity

                outcome = self.both(
                    refused, lambda r: (r.migrated, r.reason),
                )
                assert outcome.reason == "target platform is at capacity"
                yield "migrate"
            if index % 89 == 88:
                module_id = rng.choice(residents)
                self.both(
                    lambda c: round_trip(c, self.siblings[c], module_id),
                    lambda view: view,
                )
                yield "adopt"
            if index % 131 == 130:
                name = rng.choice(platforms)

                def bump(controller):
                    controller.network.node(name).flow_table._version += 1

                self.both(bump, bool)
                yield "bump"
            if index % 50 == 49:
                self.both(lambda c: c.verify_snapshot(), reach_view)
                yield "snapshot"


def same_model(maintained, fresh) -> bool:
    """Structural identity of two compiled models: same vertices with
    the same element configurations, same wiring (pseudo-ports
    included), same module table and demux slots."""
    def payload_view(payload):
        return (
            type(payload).__name__,
            getattr(payload, "class_name", None),
            tuple(getattr(payload, "args", ())),
            getattr(payload, "slots", None),
        )

    def view(compiled):
        graph = compiled.graph
        return (
            graph.edges, graph.sinks, compiled.modules,
            {n: payload_view(p) for n, p in graph.payloads.items()},
        )

    return view(maintained) == view(fresh)


class TestChurnDifferential:
    def test_reuse_is_invisible_over_1000_tenants(self):
        churn = Churn(seed=23, policy=POLICY_WITH_ALWAYS, with_oracle=True)
        seen = set()
        for op in churn.run(tenants=1000):
            seen.add(op)
            assert controller_state_digest(churn.subject) == \
                controller_state_digest(churn.oracle)
        assert seen == {
            "admit", "kill", "migrate", "adopt", "bump", "snapshot",
        }
        # The run did exercise what it claims to: verdicts were reused,
        # the model was maintained, and universal verdicts kept their
        # whole-exploration anchor.
        stats = churn.subject.stats()
        assert stats["verification_cache"]["hits"] > 1000
        assert stats["verification_cache"]["anchors"]["witness"] > 0
        assert stats["verification_cache"]["anchors"]["skipped"] > 0
        assert stats["model_splices"]["commit"] > 500
        assert stats["model_splices"]["kill"] > 500
        # Moves and adoptions followed the model too: no recompile.
        assert stats["model_splices"]["migrate"] > 0
        assert stats["model_splices"]["adopt"] > 0
        assert stats["model_rebuilds"]["signature"] == 0

    def test_maintained_model_equals_a_fresh_compile(self):
        # After *every* operation the maintained model is structurally
        # identical to a from-scratch compile.  Exploration is a
        # function of that structure and the live network, so the
        # flow-by-flow comparison (an order of magnitude dearer) runs
        # after every operation of the first 100 tenants and every
        # tenth operation from there on.
        churn = Churn(seed=29, policy=POLICY, with_oracle=False)
        subject = churn.subject
        origins = {
            str(requirement.origin): requirement.origin
            for requirement in parse_requirements(POLICY)
        }
        assert len(origins) == 2
        tenants_seen = 0
        for count, op in enumerate(churn.run(tenants=1000)):
            tenants_seen += op == "admit"
            maintained = subject._ensure_compiled()
            fresh = NetworkCompiler(subject.network).compile()
            assert same_model(maintained, fresh), (count, op)
            if tenants_seen > 100 and count % 10:
                continue
            for origin in origins.values():
                assert canonical_exploration(
                    maintained.explore_from(origin.node, origin.flow)
                ) == canonical_exploration(
                    fresh.explore_from(origin.node, origin.flow)
                ), (count, op)


class TestRetention:
    def test_steady_state_keeps_nothing_per_admission(self):
        bus = GossipBus()
        subject = new_controller()
        cache = attach_gossip_cache(subject.analyzer, bus, "shard-0")
        cache.capacity = 64  # small enough for eviction to be at work
        # A peer shard that analyzes every config first: the subject's
        # security verdicts all arrive by gossip, as on a busy
        # federation.
        peer = CachingSecurityAnalyzer()
        attach_gossip_cache(peer, bus, "shard-1")
        rng = random.Random(31)
        residents = []
        index = 0
        sibling = new_controller(shard=1)
        platforms = [p.name for p in subject.network.platforms()]
        moves = Counter()

        def rounds(count):
            nonlocal index
            done = 0
            while done < count:
                kind, request = tenant_request(rng, index)
                index += 1
                if kind not in PINNED:
                    continue
                peer.analyze(
                    request.parse_click_config(), request.role,
                    whitelist=addresses_to_whitelist(
                        request.owned_addresses
                    ),
                )
                bus.drain_all()
                assert subject.request(request).accepted
                residents.append(request.module_name)
                if len(residents) > RESIDENTS:
                    assert subject.kill(residents.pop(0))
                done += 1
                if done % 7 == 0:
                    mover = residents[len(residents) // 2]
                    here = subject.deployed[mover].platform
                    there = next(p for p in platforms if p != here)
                    assert subject.migrate(mover, there)
                    moves["migrate"] += 1
                if done % 50 == 0:
                    round_trip(subject, sibling, residents[-1])
                    moves["adopt"] += 1

        def sizes():
            return {
                "journal": len(subject.journal.records),
                "client_addresses": len(subject.client_addresses),
                "remote_keys": len(cache._remote_keys),
                "graph_nodes": len(subject._ensure_compiled().graph.models),
            }

        rounds(300)
        before, stats_before = sizes(), subject.stats()
        appended_before = len(subject.journal)
        moves_before = moves.copy()
        rounds(1000)
        after, stats_after = sizes(), subject.stats()
        moved = moves - moves_before
        assert moved["migrate"] > 100 and moved["adopt"] == 20
        for name, size in after.items():
            assert size <= before[name] + 40, (name, before, after)
        # ``len(journal)`` still counts history: two records per admit,
        # two per kill, two per migration, and an adoption round trip
        # is a kill plus an adopt.
        assert len(subject.journal) - appended_before == \
            4000 + 2 * moved["migrate"] + 4 * moved["adopt"]
        # No admission, move or adoption recompiled the residents...
        assert stats_after["model_rebuilds"] == stats_before["model_rebuilds"]
        splices = Counter(stats_after["model_splices"])
        splices.subtract(stats_before["model_splices"])
        assert splices["commit"] == 1000
        assert splices["migrate"] == moved["migrate"]
        assert splices["adopt"] == moved["adopt"]
        # ... and the summary tables grew by each trial module's nodes,
        # not by the graph's.
        summarized = (
            stats_after["symexec_summaries"]["nodes_summarized"]
            - stats_before["symexec_summaries"]["nodes_summarized"]
        )
        assert summarized <= 1000 * 6
