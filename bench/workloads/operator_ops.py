"""``operator_ops``: the same verifier, used three different ways.

Three operator-side operations in rotation, each timed on its own:

(a) **cold admit** -- a fresh ``Controller`` over ``linear_network(63)``
    dry-runs the Figure 4 batcher under a two-statement policy: every
    cache is cold and the network compile is on the path;
(b) **re-verify** -- on a primed 200-platform star with one localized
    requirement per platform, one seeded line is retracted (untimed)
    and put back: ``set_operator_requirements`` + ``verify_snapshot``
    re-explore one requirement and answer 199 from the caches;
(c) **full verify** -- ``invalidate_model_cache`` + ``verify_snapshot``:
    recompile and re-explore all 200.

A cache change that helps (b) but taxes (a) or (c) -- or the reverse --
shows here and not in ``admit_churn``.
"""

from __future__ import annotations

import random

from repro.core import Controller
from repro.netmodel import linear_network, star_network

from bench import harness, layers
from bench.inputs import tenant_stream

NAME = "operator_ops"
MEANING = {
    "throughput_per_s": "operator ops / time in ops (a)+(b)+(c)",
    "p50_ms": "(b) policy edit + re-verify (reverify_p50_ms)",
    "p95_ms": "(b) policy edit + re-verify, tail",
    "alt_path_per_s": "(c) full verifies / time in them (full_verify)",
    "cold_start_ms": "(a) fresh controller + dry-run admit"
                     " (cold_admit_p50_ms)",
}
MIDDLEBOXES = 63
PLATFORMS = 200
LINEAR_POLICY = (
    "reach from internet tcp src port 80 -> r0 -> client\n"
    "reach from client -> internet"
)

BUILD = "netmodel.examples.linear_network"
COLD = "operator.cold_admit"
RETRACT = "operator.retract"
REVERIFY = "operator.reverify"
FULL = "operator.full_verify"


def policy_lines() -> list:
    """One requirement per platform, each with a three-node footprint,
    so editing one line leaves every other cached verdict valid."""
    return [
        "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
        % (index + 1, index)
        for index in range(PLATFORMS)
    ]


def verdicts(results) -> list:
    return [(bool(r), str(r.requirement)) for r in results]


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.batchers = tenant_stream(seed, mix=((1.0, ("batcher",)),))
        self.lines = policy_lines()
        self.controller = Controller(
            star_network(PLATFORMS), "\n".join(self.lines)
        )
        self.ledger = harness.AdmissionLedger()
        self.attempted = 0
        self.problems = []

    def cold_admit(self, rec, network, tenant):
        controller = Controller(network, LINEAR_POLICY)
        return rec.timed(
            layers.REQUEST_SPAN, controller.request, tenant.request,
            dry_run=True,
        )

    def reverify(self, text: str):
        self.controller.set_operator_requirements(text)
        return self.controller.verify_snapshot()

    def full_verify(self):
        self.controller.invalidate_model_cache()
        return self.controller.verify_snapshot()

    def rotation(self, rec: harness.Recorder) -> None:
        tenant = next(self.batchers)
        rec.request = tenant.index
        network = rec.timed(BUILD, linear_network, MIDDLEBOXES)
        result = rec.timed(COLD, self.cold_admit, rec, network, tenant)
        self.ledger.note(result, 0)
        if not result.accepted:
            self.problems.append("cold admit refused: %s" % result.reason)
        edited = self.rng.randrange(PLATFORMS)
        rec.timed(
            RETRACT, self.controller.set_operator_requirements,
            "\n".join(
                line for index, line in enumerate(self.lines)
                if index != edited
            ),
        )
        warm = rec.timed(REVERIFY, self.reverify, "\n".join(self.lines))
        full = rec.timed(FULL, self.full_verify)
        if verdicts(warm) != verdicts(full):
            self.problems.append(
                "re-verify and full verify disagree (line %d)" % edited
            )
        if len(full) != PLATFORMS or not all(full):
            self.problems.append(
                "operator policy not satisfied (line %d)" % edited
            )
        self.attempted += 3


def setup(seed: int) -> State:
    state = State(seed)
    if not all(state.controller.verify_snapshot()):
        raise AssertionError("star policy does not hold")
    state.rotation(harness.Recorder())
    if state.problems:
        raise AssertionError(state.problems[0])
    state.attempted = 0
    return state


def run(state: State, rec: harness.Recorder, budget: harness.Budget) -> None:
    state.ledger = harness.AdmissionLedger()
    harness.quiesce()
    segment = budget.segment(1.0, ops=20)
    while segment.more():
        state.rotation(rec)


def verify(state: State) -> list:
    return list(state.problems)


def end_to_end(state: State, rec: harness.Recorder) -> dict:
    samples = rec.samples
    cold, warm, full = samples[COLD], samples[REVERIFY], samples[FULL]
    return {
        "throughput_per_s": harness.ratio(
            len(cold) + len(warm) + len(full),
            sum(cold) + sum(warm) + sum(full),
        ),
        "p50_ms": harness.median(warm) * 1e3,
        "p95_ms": harness.percentile(warm, 0.95) * 1e3,
        "alt_path_per_s": harness.ratio(len(full), sum(full)),
        "cold_start_ms": harness.median(cold) * 1e3,
    }


def layer_probes(state: State, rec: harness.Recorder, before, after):
    return layers.controller_probes(
        rec, [state.controller], state.ledger, before, after
    )
