"""Every trial boundary, swept: a failed trial leaves no trace.

Admission, dry-run admission, migration and adoption all run through
one trial: take an address, (vacate the source,) deploy, splice,
verify, commit.  For each operation a failure is injected at each
boundary the trial crosses -- address allocation, the security
analysis, the platform deploy, the model splice, and verification
raising a ``VerificationError``, raising anything else, or coming back
unsatisfied.  Afterwards the controller must be exactly where it
started: same digest, every pool balanced, no journal record written,
and a model that is either dropped (the next use recompiles and counts
``error``) or identical to a fresh compile.  A crash in the middle of
each operation's verification, replayed by ``Controller.recover``,
converges to the state before the operation.
"""

import copy
from dataclasses import replace

import pytest

from repro.common.errors import VerificationError
from repro.core.controller import Controller
from repro.netmodel.symgraph import NetworkCompiler
from repro.resilience import DeploymentJournal
from repro.resilience.chaos import _module_request, chaos_network
from repro.resilience.invariants import (
    collect_violations,
    controller_state_digest,
)
from tests.core.test_churn_maintenance import same_model

OPERATIONS = ("admit", "dry-run", "migrate", "adopt")


class World:
    """A journaled controller with one resident (``m1`` on ``pa``) and,
    for adoption, a record exported by a sibling controller."""

    def __init__(self, op):
        self.op = op
        self.network = chaos_network()
        self.controller = Controller(
            self.network, journal=DeploymentJournal()
        )
        assert self.controller.request(
            _module_request("mobile1", "m1"), pinned_platform="pa"
        )
        sibling = Controller(chaos_network())
        assert sibling.request(_module_request("mobile3", "m3"))
        self.exported = sibling.export_module("m3")
        self.controller._ensure_compiled()

    def run(self):
        controller = self.controller
        if self.op in ("admit", "dry-run"):
            return controller.request(
                _module_request("mobile2", "m2"),
                dry_run=self.op == "dry-run",
            )
        if self.op == "migrate":
            return controller.migrate("m1", "pb")
        return controller.adopt_module(self.exported)

    def trial_targets(self):
        """Platforms a trial of this operation deploys onto (a
        migration's source must stay deployable: the undo needs it)."""
        if self.op == "migrate":
            return [self.network.node("pb")]
        return self.network.platforms()

    def state(self):
        journal = self.controller.journal
        return (
            controller_state_digest(self.controller),
            [r.seq for r in journal.pending_intents()],
            len(journal),
        )


def raise_(exc):
    def boom(*args, **kwargs):
        raise exc
    return boom


def inject(boundary, world, monkeypatch):
    controller = world.controller
    if boundary == "allocate_address":
        for platform in world.network.platforms():
            monkeypatch.setattr(
                platform, "allocate_address",
                raise_(RuntimeError("pool offline")),
            )
    elif boundary == "analyze":
        monkeypatch.setattr(
            controller.analyzer, "analyze",
            raise_(RuntimeError("analyzer crashed")),
        )
    elif boundary == "deploy":
        for platform in world.trial_targets():
            monkeypatch.setattr(
                platform, "deploy",
                raise_(RuntimeError("toolstack died mid-deploy")),
            )
    elif boundary == "splice":
        monkeypatch.setattr(
            controller._compiled, "splice",
            raise_(RuntimeError("splice crashed")),
        )
    elif boundary == "verify-verification-error":
        monkeypatch.setattr(
            controller, "_verify_all",
            raise_(VerificationError("unmodelled element")),
        )
    elif boundary == "verify-runtime-error":
        monkeypatch.setattr(
            controller, "_verify_all",
            raise_(RuntimeError("verifier crashed")),
        )
    else:
        assert boundary == "verify-unsatisfied"
        real = controller._verify_all

        def unsatisfied(*args, **kwargs):
            return [
                replace(r, satisfied=False, reason="injected")
                for r in real(*args, **kwargs)
            ]

        monkeypatch.setattr(controller, "_verify_all", unsatisfied)


#: boundary -> the outcome its trials are counted under (None: the
#: pool refused the address, so no trial ran).
OUTCOMES = {
    "allocate_address": None,
    "analyze": "error",
    "deploy": "error",
    "splice": "error",
    "verify-verification-error": "verification-error",
    "verify-runtime-error": "error",
    "verify-unsatisfied": "unsatisfied",
}
BOUNDARIES = tuple(OUTCOMES)
CASES = [
    (op, boundary)
    for op in OPERATIONS
    for boundary in BOUNDARIES
    # Adoption and migration run no security stage.
    if boundary != "analyze" or op in ("admit", "dry-run")
]


@pytest.mark.parametrize("op,boundary", CASES)
def test_a_failed_trial_leaves_no_trace(op, boundary, monkeypatch):
    world = World(op)
    controller, network = world.controller, world.network
    before = world.state()
    rebuilds = controller.stats()["model_rebuilds"]["error"]
    trials_before = controller._trials.copy()
    inject(boundary, world, monkeypatch)
    try:
        outcome = world.run()
    except RuntimeError:
        outcome = None  # admission and migration let it propagate
    monkeypatch.undo()
    assert not outcome
    assert world.state() == before
    for platform in network.platforms():
        assert platform.outstanding_addresses() == len(platform.modules)
    assert collect_violations(controller) == []
    if controller._compiled is None:
        controller._ensure_compiled()
        stats = controller.stats()["model_rebuilds"]
        assert stats["error"] == rebuilds + 1
    else:
        assert controller._compiled_signature == network.model_signature()
        assert same_model(
            controller._compiled, NetworkCompiler(network).compile()
        )
    # Every trial was counted once, with the boundary's outcome.
    counted = set(controller._trials - trials_before)
    expected = OUTCOMES[boundary]
    trial_op = "admit" if op == "dry-run" else op
    assert counted == ({(trial_op, expected)} if expected else set())


@pytest.mark.parametrize("op", OPERATIONS)
def test_a_crash_mid_verification_recovers_the_state_before(
    op, monkeypatch
):
    world = World(op)
    controller = world.controller
    before = controller_state_digest(controller)
    real = controller._verify_all
    crashed = []

    def crash_here(*args, **kwargs):
        crashed.append(copy.deepcopy((world.network, controller.journal)))
        return real(*args, **kwargs)

    monkeypatch.setattr(controller, "_verify_all", crash_here)
    assert world.run()
    network, journal = crashed[0]
    recovered = Controller.recover(network, journal)
    assert controller_state_digest(recovered) == before
    assert journal.pending_intents() == []
    assert collect_violations(recovered) == []


class TestNoPhantomIntents:
    def test_failed_moves_write_nothing(self):
        # Five migrations that fail verification and three adoptions
        # no platform can satisfy once wrote one intent per trial,
        # which pending_intents() reported as in-flight forever.
        net = chaos_network()
        controller = Controller(net, journal=DeploymentJournal())
        assert controller.request(
            _module_request("mobile1", "m1"), pinned_platform="pa"
        )
        net.unlink("r1", "pb")
        dark = chaos_network()
        for name in ("pa", "pb", "pc"):
            dark.unlink("r1", name)
        sibling = Controller(dark, journal=DeploymentJournal())
        record = controller.export_module("m1")

        def views():
            return [
                (c.journal.pending_intents(), len(c.journal.records),
                 len(c.journal))
                for c in (controller, sibling)
            ]

        before = views()
        for _ in range(5):
            assert not controller.migrate("m1", "pb")
        for _ in range(3):
            assert not sibling.adopt_module(record)
        assert views() == before
        for subject in (controller, sibling):
            recovered = Controller.recover(
                *copy.deepcopy((subject.network, subject.journal))
            )
            assert controller_state_digest(recovered) == \
                controller_state_digest(subject)
