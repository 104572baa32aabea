"""``admit_churn``: the control plane in steady state.

A four-shard in-process federation under a two-line operator policy;
one closed-loop client submits the seeded Table 1 tenant mix.  Every
shard is held at 16 residents (the oldest is killed when one more is
admitted) and open-egress modules are killed as soon as their
admission has been timed, so no shard ever holds two of them (README,
"The excluded input").  The dataplane does nothing here.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict, deque

from repro.fedctl import (
    FederatedControlPlane,
    check_federation_invariants,
    shard_network,
)

from bench import harness, layers
from bench.inputs import decision_of, tenant_stream, tenants

NAME = "admit_churn"
#: What each end-to-end metric measures here (and the name the
#: issue that defined this benchmark gave it).
MEANING = {
    "throughput_per_s": "submits / time in submit+kill (admissions_per_s)",
    "p50_ms": "plane.submit latency, rejects included (admit_p50_ms)",
    "p95_ms": "plane.submit latency, rejects included (admit tail)",
    "alt_path_per_s": "submits / submit time, never-seen configs only",
    "cold_start_ms": "fresh 4-shard federation + its first 16 admissions",
}
SHARDS = 4
RESIDENTS_PER_SHARD = 16
#: Both exploration origins on every admission: inbound web traffic
#: must cross the border router, and clients must keep their way out.
POLICY = (
    "reach from internet tcp src port 80 -> r1 -> client\n"
    "reach from client -> internet"
)
#: Admissions before timing starts: shards full, caches in steady state.
WARMUP = 150
#: Fresh federations timed per set-up for ``cold_start_ms``, and the
#: tenants each one admits.
COLD_STARTS = 7
COLD_TENANTS = 16
#: Seed whose verdict sequence is committed under ``golden/``.
GOLDEN_SEED = 1
GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "golden", "admit_churn-seed%d.verdicts" % GOLDEN_SEED,
)

SUBMIT = "fedctl.plane.submit"
KILL = "fedctl.plane.kill"
SUBMIT_UNIQUE = "fedctl.plane.submit[unique]"


def build_plane() -> FederatedControlPlane:
    return FederatedControlPlane(
        shard_count=SHARDS,
        network_factory=lambda i: shard_network(
            i, capacity=RESIDENTS_PER_SHARD
        ),
        operator_requirements=POLICY,
    )


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.plane = build_plane()
        self.stream = tenant_stream(seed)
        self.residents = defaultdict(deque)
        self.per_shard = Counter()
        self.ledger = harness.AdmissionLedger()
        #: One letter per decision since the plane was built.
        self.verdicts = []
        self.attempted = 0
        self.problems = []
        self.cold_seconds = []
        self.unwrapped = {}

    def step(self, rec: harness.Recorder) -> None:
        tenant = next(self.stream)
        rec.request = tenant.index
        plane = self.plane
        decision = rec.timed(SUBMIT, plane.submit, tenant.request)
        if tenant.unique:
            rec.samples[SUBMIT_UNIQUE].append(rec.samples[SUBMIT][-1])
        result = decision.result
        queue = self.residents[decision.shard]
        self.ledger.note(result, len(queue))
        self.per_shard[decision.shard] += 1
        self.attempted += 1
        got = decision_of(result)
        self.verdicts.append(got[0])
        if got != tenant.expected:
            self.problems.append(
                "tenant %d (%s, %s): %s, Table 1 says %s: %s" % (
                    tenant.index, tenant.kind, tenant.request.role, got,
                    tenant.expected, result.reason,
                ))
        if not result.accepted:
            return
        victim = result.module_id
        if not tenant.open_egress:
            queue.append(victim)
            if len(queue) <= RESIDENTS_PER_SHARD:
                return
            victim = queue.popleft()
        if not rec.timed(KILL, plane.kill, victim):
            self.problems.append("kill of %s refused" % victim)


def cold_start(requests) -> float:
    """A fresh federation admits its first tenants: nothing compiled,
    nothing cached, nothing resident."""
    start = harness.clock()
    plane = build_plane()
    for request in requests:
        if not plane.submit(request).result.accepted:
            raise AssertionError("cold start refused %s" % request.client_id)
    return harness.clock() - start


def setup(seed: int) -> State:
    # One kind only, so the cold start costs the same on every seed.
    batchers = tenants(seed, COLD_TENANTS, mix=((1.0, ("batcher",)),))
    requests = [tenant.request for tenant in batchers]
    cold = [cold_start(requests) for _ in range(COLD_STARTS)]
    state = State(seed)
    state.cold_seconds = cold
    warm = harness.Recorder()
    for _ in range(WARMUP):
        state.step(warm)
    state.attempted = 0
    return state


def segments(state: State):
    for shard in state.plane.shards.values():
        yield from shard.segments.values()


def instrument(state: State, rec: harness.Recorder) -> None:
    """Child spans at the layer boundaries a submit crosses."""
    plane = state.plane
    targets = [
        (plane.shard_map, "route", "fedctl.shardmap.route"),
        (plane, "gossip_round", "fedctl.gossip.round"),
    ]
    for segment in segments(state):
        controller = segment.controller
        targets += [
            (controller, "request", layers.REQUEST_SPAN),
            (controller, "kill", "core.controller.kill"),
            (controller.analyzer, "analyze", "core.security.analyze"),
            (controller.journal, "append", "resilience.journal.append"),
        ]
    for obj, attr, name in targets:
        try:
            rec.wrap(obj, attr, name)
        except AttributeError as exc:
            state.unwrapped[name] = str(exc)


def run(state: State, rec: harness.Recorder, budget: harness.Budget) -> None:
    state.ledger = harness.AdmissionLedger()
    state.journal_before = sum(len(s.journal) for s in segments(state))
    harness.quiesce()
    segment = budget.segment(1.0, ops=600)
    while segment.more():
        state.step(rec)


def verify(state: State) -> list:
    problems = list(state.problems)
    try:
        check_federation_invariants(state.plane)
    except Exception as exc:
        problems.append("federation invariants: %s" % exc)
    held = max(
        (len(queue) for queue in state.residents.values()), default=0
    )
    if held > RESIDENTS_PER_SHARD:
        problems.append("a shard holds %d residents" % held)
    if state.seed == GOLDEN_SEED:
        with open(GOLDEN_PATH) as handle:
            golden = handle.read().strip()
        got = "".join(state.verdicts[:len(golden)])
        if got != golden[:len(got)]:
            problems.append("verdict sequence differs from %s" % GOLDEN_PATH)
    return problems


def end_to_end(state: State, rec: harness.Recorder) -> dict:
    submit = rec.samples[SUBMIT]
    unique = rec.samples[SUBMIT_UNIQUE]
    return {
        "throughput_per_s": harness.ratio(
            len(submit), sum(submit) + rec.total(KILL)
        ),
        "p50_ms": harness.median(submit) * 1e3,
        "p95_ms": harness.percentile(submit, 0.95) * 1e3,
        "alt_path_per_s": harness.ratio(len(unique), sum(unique)),
        "cold_start_ms": harness.median(state.cold_seconds) * 1e3,
    }


def layer_probes(state: State, rec: harness.Recorder, before, after):
    """Cache ratios are cumulative since the federation was built: the
    warm-up is the same seeded mix, so they still repeat exactly."""
    controllers = [s.controller for s in segments(state)]

    def micros(span):
        return layers.median_probe(rec, span, 1e6)

    def remote_hit_share():
        hits = sum(c.stats()["verdict_cache"]["hits"] for c in controllers)
        return harness.ratio(state.plane.stats()["gossip_remote_hits"], hits)

    def imbalance():
        counts = list(state.per_shard.values())
        return harness.ratio(max(counts) * len(counts), sum(counts))

    single = {
        "core.controller.kill_us": micros("core.controller.kill"),
        "resilience.journal.append_us": micros("resilience.journal.append"),
        "resilience.journal.records_per_admit": lambda: harness.ratio(
            sum(len(s.journal) for s in segments(state))
            - state.journal_before,
            state.ledger.accepted,
        ),
        "fedctl.gossip_round_us": micros("fedctl.gossip.round"),
        "fedctl.gossip_remote_hit_share": remote_hit_share,
        "fedctl.shard_imbalance": imbalance,
    }
    return layers.controller_probes(
        rec, controllers, state.ledger, before, after
    ) + layers.single_probes(single)
