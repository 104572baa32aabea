"""Failure model and self-healing control plane.

The paper's deployability argument (Sections 2 and 5) treats failure as
a cheap, routine event: ClickOS VMs boot in ~30 ms, so churn is
absorbed by re-instantiating processing rather than by heroics.  This
package supplies the machinery that argument presumes:

* :mod:`repro.resilience.faults` -- a deterministic, seeded
  :class:`FaultInjector` plus declarative :class:`FaultPlan` scripts
  that fail lifecycle operations, crash platforms and VMs, and flap
  links on the simulated clock,
* :mod:`repro.resilience.retry` -- a configurable
  :class:`RetryPolicy` (exponential backoff + jitter + deadline)
  wrapped around platform lifecycle calls, so transient faults are
  absorbed and permanent ones surface as typed
  :class:`~repro.common.errors.FaultError` subclasses,
* :mod:`repro.resilience.journal` -- the controller's write-ahead
  :class:`DeploymentJournal`; a restarted controller replays it and
  converges to the pre-crash state,
* :mod:`repro.resilience.health` -- a :class:`HealthMonitor` running
  periodic liveness probes on the event loop,
* :mod:`repro.resilience.failover` -- the :class:`FailoverEngine`
  that evacuates a dead platform via the controller's migrate fast
  path, re-verifies requirements, and records MTTR,
* :mod:`repro.resilience.invariants` -- the system invariants (no
  lost/duplicated module, no leaked address, routes consistent with
  deployments, ledger balanced) checked after every chaos event,
* :mod:`repro.resilience.chaos` -- the scripted chaos scenarios run
  by the ``repro chaos`` CLI and the ``chaos`` CI job.

See ``docs/resilience.md`` for the fault model and the scenario DSL.
"""

from __future__ import annotations

from repro.common.errors import (
    FaultError,
    FaultTimeoutError,
    PlatformDownError,
    RetryExhaustedError,
    TransientFaultError,
)
from repro.resilience.chaos import (
    ChaosReport,
    SCENARIOS,
    run_all,
    run_scenario,
)
from repro.resilience.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    KIND_CRASH,
    KIND_TIMEOUT,
)
from repro.resilience.health import HealthMonitor
from repro.resilience.failover import FailoverEngine, FailoverReport
from repro.resilience.invariants import (
    InvariantViolation,
    check_switch_invariants,
    collect_violations,
    controller_state_digest,
)
from repro.resilience.journal import (
    DeploymentJournal,
    JournalRecord,
    NULL_JOURNAL,
)
from repro.resilience.retry import (
    DEFAULT_LIFECYCLE_POLICY,
    RetryPolicy,
    call_with_retries,
)

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "KIND_CRASH",
    "KIND_TIMEOUT",
    "RetryPolicy",
    "DEFAULT_LIFECYCLE_POLICY",
    "call_with_retries",
    "DeploymentJournal",
    "JournalRecord",
    "NULL_JOURNAL",
    "HealthMonitor",
    "FailoverEngine",
    "FailoverReport",
    "InvariantViolation",
    "check_switch_invariants",
    "collect_violations",
    "controller_state_digest",
    "ChaosReport",
    "SCENARIOS",
    "run_scenario",
    "run_all",
    "FaultError",
    "TransientFaultError",
    "FaultTimeoutError",
    "RetryExhaustedError",
    "PlatformDownError",
]
