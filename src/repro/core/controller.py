"""The In-Net controller (Section 4.3).

The controller takes client requests and statically verifies them on a
snapshot of the network.  For each request it:

1. parses the Click configuration (or instantiates a stock module), the
   requirements and the listen spec, and refuses anything built from
   unknown elements,
2. iterates through the available platforms; at each candidate it
   *pretends* to install the module (assigning it a platform address),
   recomputes the snapshot, and checks **all** operator requirements and
   the client's own requirements with symbolic execution,
3. runs the security analysis for the requester's trust role
   (anti-spoofing, default-off); `reject` denies the request, `sandbox`
   transparently wraps the module with ChangeEnforcer instances on every
   netfront path (billed to the client, Section 4.4),
4. on success, deploys: the module keeps its assigned address, flow
   rules steering that address to the module are recorded (our stand-in
   for the Openflow rules installed on Open vSwitch), and the client is
   told how to reach its module.

Every placement -- an admission candidate, a migration (processing
follows the user, Section 2), the adoption of a module another
controller exported -- is one :class:`_Trial`: take an address, vacate
the old platform when the module moves, place it (deploy, recompute
routes, splice it into the maintained model), verify, and commit
(journal intent, install, journal commit).  Leaving a trial without a
commit undoes exactly the steps that ran.  The model follows every
placement: a commit keeps its splice, a kill un-splices, and a move is
an un-splice plus a splice, never a recompile.

Timing of the two verification stages (model *compilation* = building
the symbolic graph; *checking* = exploration) is recorded per request --
these are the quantities Figure 10 plots.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.click.config import ClickConfig, Edge
from repro.common.addr import format_ip
from repro.common.errors import (
    ConfigError, DeploymentError, VerificationError)
from repro.core.requests import ClientRequest
from repro.core.security import (
    SecurityReport,
    VERDICT_REJECT,
    VERDICT_SANDBOX,
    addresses_to_whitelist,
)
from repro.netmodel.symgraph import CompiledNetwork, NetworkCompiler
from repro.netmodel.topology import Network, Platform
from repro.policy.grammar import (
    Hop, KIND_ELEMENT, KIND_NAME, MODULE_PLACEHOLDER, NodeRef,
    ReachRequirement, parse_requirement, parse_requirements,
    split_statements,
)
from repro.symexec.reachability import ReachabilityChecker, ReachResult
from repro.symexec.summaries import (
    UNCHANGED_SCOPE,
    ChangedScope,
    SummaryCache,
    VerificationCache,
)


@dataclass
class DeploymentResult:
    """What the client gets back for a deployment request."""

    accepted: bool
    module_id: Optional[str] = None
    platform: Optional[str] = None
    #: The externally reachable address of the processing module.
    address: Optional[str] = None
    sandboxed: bool = False
    security: Optional[SecurityReport] = None
    reach_results: List[ReachResult] = field(default_factory=list)
    reason: str = ""
    #: Seconds spent building symbolic graphs ("compilation", Fig. 10).
    compile_seconds: float = 0.0
    #: Seconds spent exploring and checking ("checking", Fig. 10).
    check_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.accepted


@dataclass
class _DeployedModule:
    module_id: str
    client_id: str
    platform: str
    address: int
    config: ClickConfig
    sandboxed: bool
    requirements: List[ReachRequirement] = field(default_factory=list)
    #: Listen steering (None = steer the whole address): kept so a
    #: migration or rollback re-installs the *same* flow-table rule.
    proto: Optional[int] = None
    port: Optional[int] = None


@dataclass
class MigrationResult:
    """Outcome of moving a module to another platform."""

    migrated: bool
    module_id: str
    source: Optional[str] = None
    target: Optional[str] = None
    new_address: Optional[str] = None
    #: Downtime model: suspend + state transfer + resume.
    downtime_seconds: float = 0.0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.migrated


class _NoAddress(DeploymentError):
    """A candidate platform's pool had no address: no trial ran."""


class _Trial:
    """One trial placement, undone on exit unless committed.

    Entering takes an address on ``platform``; :meth:`place` vacates
    the ``source`` record's platform (a move), deploys, recomputes
    routes and splices into the maintained ``model``; :meth:`verify`;
    :meth:`commit`.  The trial itself is never journaled: a crash
    mid-trial leaves a platform orphan :meth:`Controller.recover`
    reconciles away.  Leaving without a commit undoes exactly the steps
    that ran, in reverse; an exception other than
    :class:`VerificationError` also drops the model.  Each trial is
    counted once, on exit, in ``controller_trials_total{op,outcome}``.
    """

    def __init__(self, controller, op, platform, model, spent=None,
                 source=None):
        self.controller, self.op, self.platform = controller, op, platform
        self.model, self.source = model, source
        #: Seconds per stage, shared by an operation's trials.
        self.spent = Counter() if spent is None else spent
        #: committed / dry-run / unsatisfied / security-reject /
        #: bad-configuration / verification-error / error.
        self.outcome = "unsatisfied"
        self.done: Set[str] = set()

    def __enter__(self) -> "_Trial":
        try:
            self.address = self.platform.allocate_address()
        except Exception as exc:
            raise _NoAddress("platform %s: %s" % (self.platform.name, exc)) \
                from exc
        return self

    def place(self, module: _DeployedModule) -> None:
        network, model = self.controller.network, self.model
        name, self.module = self.platform.name, module
        if self.source is not None:
            network.node(self.source.platform).undeploy(module.module_id)
            self.done.add("vacated")
            model.unsplice(module.module_id)
            self.done.add("unspliced")
            self._settle()
        self.platform.deploy(module.module_id, self.address, module.config,
                             proto=module.proto, port=module.port)
        self.done.add("deployed")
        # A placement never alters inter-node links, so the epoch-aware
        # compute_routes() elides the recompute.
        network.compute_routes()
        tracer, started = self.controller._tracer, time.perf_counter()
        with tracer.span("graft", platform=name):
            model.splice(name, module.module_id, self.address,
                         module.config)
        self.done.add("spliced")
        self.compiled = model
        self.spent["compile"] += time.perf_counter() - started

    def verify(self) -> List[ReachResult]:
        # What the trial changes: the target platform and address and a
        # vacated source's.  Verdicts whose footprint (for a satisfied
        # reach, one witness's path) avoids all of them are reusable.
        moves = [] if self.source is None else [self.source]
        changed = ChangedScope(
            frozenset([self.platform.name] + [m.platform for m in moves]),
            frozenset([self.address] + [m.address for m in moves]),
        )
        module, started = self.module, time.perf_counter()
        with self.controller._tracer.span("check",
                                          platform=self.platform.name):
            results = self.controller._verify_all(
                self.compiled, module.requirements, module.module_id,
                module_config=module.config, changed=changed)
        self.spent["check"] += time.perf_counter() - started
        return results

    def commit(self, origin: str = "") -> None:
        """Journal intent -> install -> journal commit; the placement
        and its splice stay.  A move rewrites the record's platform and
        address in place and frees the source address."""
        from repro.resilience.journal import (
            OP_DEPLOY, OP_MIGRATE, PHASE_COMMIT, PHASE_INTENT)

        controller, record = self.controller, self.module
        moved = self.source is not None
        op = OP_MIGRATE if moved else OP_DEPLOY
        fields = dict(module_id=record.module_id, client_id=record.client_id,
                      platform=self.platform.name, address=self.address,
                      proto=record.proto, port=record.port,
                      timestamp=controller._clock())
        if moved:
            fields.update(source=record.platform,
                          source_address=record.address)
        else:
            fields.update(sandboxed=record.sandboxed, config=record.config,
                          requirements=tuple(record.requirements),
                          origin=origin)
        controller.journal.append(op, PHASE_INTENT, **fields)
        if moved:
            controller.flow_rules.pop((record.platform, record.address), None)
            controller._disown(record.client_id, record.address)
            source = controller.network.node(record.platform)
            source.release_address(record.address)
            record.platform, record.address = self.platform.name, self.address
            fields["timestamp"] = controller._clock()
        controller._install(record, None if moved else controller._clock())
        # A real placement starts a new model epoch: a model that did
        # not follow this commit is stale from here on.
        controller.network.bump_epoch()
        self.outcome = "committed"
        controller.journal.append(op, PHASE_COMMIT, **fields)
        if "spliced" in self.done:
            controller._model_followed(
                "commit" if self.op == "admit" else self.op)

    def __exit__(self, exc_type, exc, tb) -> None:
        controller = self.controller
        if exc_type is not None and self.outcome != "committed":
            self.outcome = "verification-error" if issubclass(
                exc_type, VerificationError) else "error"
        try:
            if self.outcome != "committed":
                self._undo()
        except BaseException:
            self.outcome = "error"
            raise
        finally:
            if self.outcome == "error":
                controller._drop_model("error")
            controller._trials[self.op, self.outcome] += 1
            controller._c_trials.labels(self.op, self.outcome).inc()

    def _settle(self) -> None:
        # Summary tables patch a splice or an un-splice, not a node name
        # that left and came back (a move keeps the module's names):
        # settle the un-splice before the names return.
        self.controller._summaries.tables_for(self.model.graph)

    def _undo(self) -> None:
        done, source = self.done, self.source
        # An erring trial's model is dropped, not repaired.
        model = self.model if self.outcome != "error" else None
        if model is not None and "spliced" in done:
            model.unsplice(self.module.module_id)
        if "deployed" in done:
            self.platform.undeploy(self.module.module_id)
        if "vacated" in done:
            self.controller.network.node(source.platform).deploy(
                source.module_id, source.address, source.config,
                proto=source.proto, port=source.port)
        if model is not None and "unspliced" in done:
            self._settle()
            model.splice(source.platform, source.module_id,
                         source.address, source.config)
        self.platform.release_address(self.address)
        if done & {"deployed", "vacated"}:
            self.controller.network.compute_routes()


def _evict(platform: Platform, module_id: str, address: int) -> None:
    """Take a module off a platform and return its address to the pool."""
    platform.undeploy(module_id)
    platform.release_address(address)


def _failures(results: List[ReachResult]) -> str:
    return "; ".join("%s: %s" % (r.requirement, r.reason)
                     for r in results if not r)


class Controller:
    """The operator's controller: one per network."""

    def __init__(
        self,
        network: Network,
        operator_requirements: str = "",
        ledger=None,
        clock=None,
        obs=None,
        journal=None,
    ):
        from repro.core.accounting import Ledger
        from repro.core.cache import CachingSecurityAnalyzer
        from repro.obs import NULL_OBSERVABILITY
        from repro.resilience.journal import NULL_JOURNAL

        self.network = network
        self.network.compute_routes()
        self.operator_requirements: List[ReachRequirement] = (
            parse_requirements(operator_requirements)
            if operator_requirements else []
        )
        #: Security verdicts are cached by configuration (repro.core.cache).
        self.analyzer = CachingSecurityAnalyzer()
        #: Compiled model of the committed snapshot, maintained across
        #: commits and kills and validated against
        #: :meth:`Network.model_signature`.
        self._compiled: Optional[CompiledNetwork] = None
        self._compiled_signature: Optional[int] = None
        #: Why the model was last dropped (labels the next rebuild).
        self._model_dropped: Optional[str] = None
        #: Full compiles by reason; splices kept or undone in step with
        #: a commit / kill / migrate / adopt; trials by (op, outcome).
        #: All three are mirrored in the metrics registry.
        self._model_rebuilds = {
            "cold": 0, "signature": 0, "invalidated": 0, "error": 0,
        }
        self._model_splices = {"commit": 0, "kill": 0}
        self._trials: Counter = Counter()
        self.deployed: Dict[str, _DeployedModule] = {}
        #: client id -> addresses the client registered or was assigned
        #: (explicit-authorization white-list, Section 2.1).
        self.client_addresses: Dict[str, Set[int]] = {}
        self._module_counter = itertools.count(1)
        #: Installed forwarding rules: (platform, address) -> module id
        #: (stand-in for the Openflow rules on each platform's switch).
        self.flow_rules: Dict[Tuple[str, int], str] = {}
        #: Resource accounting (Section 2.1).
        self.ledger = ledger if ledger is not None else Ledger()
        #: Write-ahead deployment journal (repro.resilience.journal).
        #: The shared NULL_JOURNAL makes journaling a no-op call for
        #: controllers that do not opt in.
        self.journal = journal if journal is not None else NULL_JOURNAL
        #: Simulated-time source for accounting (defaults to wall time).
        self._clock = clock if clock is not None else time.time
        #: Observability (repro.obs): metrics + admission spans.  The
        #: shared disabled bundle makes every instrumentation site a
        #: no-op call, so the code below never branches on presence.
        self._obs = obs if obs is not None else NULL_OBSERVABILITY
        self._tracer = self._obs.tracer
        metrics = self._obs.metrics
        #: Transfer-function summary cache shared by every engine this
        #: controller creates.
        self._summaries = SummaryCache()
        #: Footprint-keyed requirement verdict cache.
        self._verification = VerificationCache()
        if self._obs.enabled:
            # The caches account in the shared registry, not in private
            # counters (see repro.core.cache.RegistryCacheStats).
            self.analyzer.instrument(metrics, "verdict")
            self._summaries.instrument(metrics)
            self._verification.instrument(metrics)
        self._h_admission = metrics.histogram(
            "controller_admission_seconds",
            "Wall-clock seconds per admission request")
        counter = metrics.counter
        self._c_requests = counter(
            "controller_requests_total",
            "Admission requests by outcome", labels=("outcome",))
        self._c_migrations = counter(
            "controller_migrations_total",
            "Migration attempts by outcome", labels=("outcome",))
        self._c_kills = counter("controller_kills_total", "Modules killed")
        self._c_trials = counter(
            "controller_trials_total",
            "Trial placements by operation and outcome",
            labels=("op", "outcome"))
        self._c_verdicts_reused = counter(
            "controller_verdicts_reused_total",
            "Requirement verdicts answered from the verification cache")
        self._c_verdicts_reverified = counter(
            "controller_verdicts_reverified_total",
            "Requirement verdicts re-explored symbolically")
        self._c_model_rebuilds = counter(
            "controller_model_rebuilds_total",
            "From-scratch compiles of the symbolic model, by reason",
            labels=("reason",))
        self._c_model_splices = counter(
            "controller_model_splices_total",
            "Splices kept on commit / migrate / adopt or undone on kill "
            "instead of a recompile", labels=("op",))
        self._request_outcomes = {"accepted": 0, "rejected": 0}

    # -- public API -----------------------------------------------------------
    def request(
        self,
        request: ClientRequest,
        pinned_platform: Optional[str] = None,
        dry_run: bool = False,
    ) -> DeploymentResult:
        """Process one deployment request end to end.

        ``pinned_platform`` restricts placement to one platform (used
        by the controller pool to commit a previously verified
        placement).  ``dry_run`` verifies and reports the would-be
        placement without committing anything -- the verification phase
        of a parallel controller deployment (Section 4.3).
        """
        started = time.perf_counter()
        with self._tracer.span("admit", client_id=request.client_id,
                               module=request.module_name or "",
                               dry_run=dry_run) as span:
            result = self._admit(request, pinned_platform, dry_run)
            span.set("accepted", result.accepted)
            if not result.accepted:
                span.set("reason", result.reason)
        self._h_admission.observe(time.perf_counter() - started)
        outcome = "accepted" if result.accepted else "rejected"
        self._request_outcomes[outcome] += 1
        self._c_requests.labels(outcome).inc()
        return result

    def _admit(self, request: ClientRequest, pinned_platform: Optional[str],
               dry_run: bool) -> DeploymentResult:
        stage = "configuration"
        try:
            config = request.parse_click_config()
            config.validate()
            stage = "requirements"
            requirements = request.parse_reach_requirements()
            stage = "listen spec"
            proto, port = request.parse_listen()
        except Exception as exc:
            return DeploymentResult(accepted=False,
                                    reason="bad %s: %s" % (stage, exc))
        module_id = request.module_name or "%s-mod%d" % (
            request.client_id, next(self._module_counter))
        if module_id in self.deployed:
            return DeploymentResult(
                accepted=False,
                reason="module name %r already in use" % (module_id,))
        whitelist = self._whitelist_for(request)
        self.ledger.record_verification(request.client_id)
        all_platforms = self.network.platforms()
        platforms = [p for p in all_platforms if p.has_capacity
                     and pinned_platform in (None, p.name)]
        if platforms:
            return self._first_fit("admit", platforms, _DeployedModule(
                module_id, request.client_id, "", 0, config, False,
                list(requirements), proto, port,
            ), request=request, whitelist=whitelist, dry_run=dry_run)
        if not all_platforms:
            reason = "no platforms available"
        elif pinned_platform is not None:
            reason = "pinned platform %r unavailable or at capacity" % (
                pinned_platform,)
        else:
            reason = "every platform is at capacity"
        return DeploymentResult(accepted=False, reason=reason)

    def _first_fit(
        self, op: str, platforms: List[Platform], module: _DeployedModule,
        request: Optional[ClientRequest] = None,
        whitelist: FrozenSet[int] = frozenset(), dry_run: bool = False,
        origin: str = "",
    ) -> DeploymentResult:
        """The candidate loop: trial ``module`` on each platform in
        order and commit the first verified placement (unless
        ``dry_run``).  An admission passes its ``request``: each
        candidate then first runs the security stage; an adopted
        module's verdict travelled with it."""
        spent: Counter = Counter()
        result = DeploymentResult(
            accepted=False, reason="no platform satisfies the requirements")
        try:
            # The maintained model of the committed snapshot: each
            # candidate splices its trial module into it.
            started = time.perf_counter()
            with self._tracer.span("compile"):
                model = self._ensure_compiled()
            spent["compile"] += time.perf_counter() - started
            for platform in platforms:
                try:
                    with _Trial(self, op, platform, model, spent) as trial:
                        placed = replace(
                            module, platform=platform.name,
                            address=trial.address,
                            requirements=list(module.requirements),
                        )
                        security = None
                        if request is not None:
                            security, refused = self._screen(
                                trial, placed, request, whitelist)
                            if refused:
                                result.reason = refused
                                result.security = security
                                break
                        trial.place(placed)
                        results = trial.verify()
                        if not all(results):
                            result.reason = _failures(results)
                            continue
                        if dry_run:
                            trial.outcome = "dry-run"
                        else:
                            trial.commit(origin)
                        result = DeploymentResult(
                            accepted=True, module_id=placed.module_id,
                            platform=placed.platform,
                            address=format_ip(placed.address),
                            sandboxed=placed.sandboxed, security=security,
                            reach_results=results)
                        break
                except _NoAddress as exc:
                    result.reason = str(exc)
        except VerificationError as exc:
            # A bad node reference, an unmodelled element in an
            # operator box, ...: the trial has already undone itself.
            result.reason = "verification failed: %s" % exc
        result.compile_seconds = spent["compile"]
        result.check_seconds = spent["check"]
        return result

    def _screen(self, trial, placed, request, whitelist):
        """The admission security stage at the trial's address:
        ``(report, None)`` -- with ``placed`` wrapped in ChangeEnforcers
        when the verdict is `sandbox` (Section 4.4) -- or ``(report,
        reason)`` when the request is refused.  The caching analyzer's
        address-independent pre-pass makes the common `allow` one probe
        for all candidates."""
        try:
            with self._tracer.span("security", platform=placed.platform):
                report = self.analyzer.analyze(
                    placed.config, request.role,
                    module_address=trial.address, whitelist=whitelist)
        except VerificationError as exc:
            trial.outcome = "verification-error"
            return None, "static checking impossible: %s" % exc
        except ConfigError as exc:  # an element refused its arguments
            trial.outcome = "bad-configuration"
            return None, "bad configuration: %s" % exc
        if report.verdict == VERDICT_REJECT:
            trial.outcome = "security-reject"
            return report, "security rules violated:\n%s" % report
        if report.verdict == VERDICT_SANDBOX:
            placed.sandboxed = True
            placed.config = wrap_with_enforcer(
                placed.config, trial.address, whitelist)
        return report, None

    def kill(self, module_id: str) -> bool:
        """Stop and remove a deployed module (the client's kill call).

        Idempotent (a second kill returns False) and safe even when
        the hosting platform node has since been removed from the
        topology: all controller-side bookkeeping -- record, flow
        rule, the client's authorization entry, billing -- is torn
        down either way, and the module's address goes back to the
        platform's pool so the pool never shrinks across a
        deploy/kill cycle.
        """
        record = self.deployed.get(module_id)
        if record is None:
            return False
        from repro.resilience.journal import (
            OP_KILL, PHASE_COMMIT, PHASE_INTENT)

        # Un-splicing keeps the model current only if it was current.
        compiled = self._compiled
        follow = (
            compiled is not None
            and module_id in compiled.modules
            and self._compiled_signature == self.network.model_signature()
        )
        fields = dict(module_id=module_id, client_id=record.client_id,
                      platform=record.platform, address=record.address)
        self.journal.append(OP_KILL, PHASE_INTENT, timestamp=self._clock(),
                            **fields)
        del self.deployed[module_id]
        platform = self.network.nodes.get(record.platform)
        if isinstance(platform, Platform):
            _evict(platform, module_id, record.address)
        self.flow_rules.pop((record.platform, record.address), None)
        self._disown(record.client_id, record.address)
        self.network.bump_epoch()
        self.network.compute_routes()
        if follow:
            try:
                compiled.unsplice(module_id)
                self._model_followed("kill")
            except BaseException:
                self._drop_model("error")
                raise
        self.ledger.record_stop(module_id, self._clock())
        self._c_kills.inc()
        self.journal.append(OP_KILL, PHASE_COMMIT, timestamp=self._clock(),
                            **fields)
        return True

    def migrate(
        self, module_id: str, target_platform: str
    ) -> MigrationResult:
        """Move a deployed module to another platform.

        Processing should follow the user (Section 2): one trial on the
        target vacates the source, places the module there and
        re-verifies the client's original requirements; only a
        verified move commits, and any other exit restores the source
        exactly.  The module gets a fresh address from the target's
        pool (the client is notified, exactly as on first deployment).
        Downtime follows the suspend -> transfer -> resume model.
        """
        result = MigrationResult(migrated=False, module_id=module_id)
        record = self.deployed.get(module_id)
        target = self.network.nodes.get(target_platform)
        if record is None:
            result.reason = "unknown module"
        elif record.platform == target_platform:
            result.reason = "module already on %s" % target_platform
        elif target is None:
            result.reason = "unknown platform %r" % (target_platform,)
        elif not isinstance(target, Platform):
            result.reason = "%r is not a platform" % (target_platform,)
        elif not target.has_capacity:
            result.reason = "target platform is at capacity"
        else:
            result.source, result.target = record.platform, target_platform
            try:
                model = self._ensure_compiled()
                with _Trial(self, "migrate", target, model,
                            source=record) as trial:
                    trial.place(record)
                    results = trial.verify()
                    if all(results):
                        trial.commit()
                result.migrated = all(results)
                result.reason = _failures(results)
            except _NoAddress as exc:
                result.reason = str(exc)
            except VerificationError as exc:
                result.reason = "verification failed: %s" % exc
        if result.migrated:
            result.new_address = format_ip(record.address)
            result.downtime_seconds = _migration_downtime(record.config)
        self._c_migrations.labels(
            "migrated" if result.migrated else "failed").inc()
        return result

    def export_module(self, module_id: str) -> "_DeployedModule":
        """A detached copy of a deployed module's control-plane record.

        The hand-off unit for cross-controller moves (federation
        hand-back and live resharding): everything another controller
        needs to re-admit the module on *its* network -- config, owner,
        sandbox flag, stored requirements, listen steering -- without
        sharing mutable state with this controller.
        """
        record = self.deployed.get(module_id)
        if record is None:
            raise DeploymentError("unknown module %r" % (module_id,))
        return replace(record, requirements=list(record.requirements))

    def adopt_module(
        self, record: "_DeployedModule",
        pinned_platform: Optional[str] = None, origin: str = "",
    ) -> MigrationResult:
        """Admit a module exported from *another* controller.

        The cross-network half of :meth:`migrate`, run through the
        admission candidate loop minus its security stage (the verdict
        travelled with the record): the module gets a platform of
        **this** network and a fresh address, its stored requirements
        are re-verified against this network's model, and only a fully
        verified placement commits.  A failed placement never raises --
        each trial has undone itself -- so the caller (the federated
        reshard path) tears the source copy down only after success and
        the module is never in limbo.  ``origin`` is recorded as journal
        provenance (audit trail for cross-shard moves).  The module
        keeps its id, owner, config, sandbox status, and listen
        steering; only platform and address change.
        """
        result = MigrationResult(migrated=False, module_id=record.module_id,
                                 source=record.platform)
        platforms = [
            p for p in self.network.platforms()
            if p.has_capacity and pinned_platform in (None, p.name)
        ]
        if record.module_id in self.deployed:
            result.reason = "module name %r already in use here" % (
                record.module_id,)
        elif not platforms:
            result.reason = "no platform with capacity for the adopted module"
        else:
            try:
                placed = self._first_fit("adopt", platforms, record,
                                         origin=origin)
            except Exception as exc:
                placed = DeploymentResult(
                    accepted=False, reason="adoption failed: %s" % exc)
            result.migrated, result.target = placed.accepted, placed.platform
            result.new_address, result.reason = placed.address, placed.reason
            if placed:
                result.downtime_seconds = _migration_downtime(record.config)
        self._c_migrations.labels(
            "migrated" if result.migrated else "failed").inc()
        return result

    def register_client_address(self, client_id: str, address: str) -> None:
        """Record an address owned by a client (explicit authorization)."""
        parsed = next(iter(addresses_to_whitelist([address])))
        self.client_addresses.setdefault(client_id, set()).add(parsed)
        from repro.resilience.journal import OP_REGISTER, PHASE_COMMIT

        self.journal.append(
            OP_REGISTER, PHASE_COMMIT,
            client_id=client_id, address=parsed,
            timestamp=self._clock(),
        )

    @classmethod
    def recover(
        cls,
        network: Network,
        journal,
        operator_requirements: str = "",
        ledger=None,
        clock=None,
        obs=None,
    ) -> "Controller":
        """Rebuild a controller from its write-ahead journal.

        The replacement for a crashed controller: committed deploys,
        kills, and migrations are folded into the effective deployment
        state, which is re-installed (``deployed``, flow rules, client
        authorization sets, ledger).  The platforms are then
        *reconciled* against that state -- a trial placement orphaned
        by a crash (admission, migration and adoption alike) is
        undeployed and its address released, and a committed module a
        platform lost is re-deployed at its original address.  The
        result converges to the pre-crash control-plane state (the
        chaos harness asserts digest equality).
        """
        controller = cls(
            network, operator_requirements=operator_requirements,
            ledger=ledger, clock=clock, obs=obs,
            journal=journal,
        )
        live = journal.live_state()
        # Reconcile platform-side placements: anything a platform runs
        # that the journal does not consider live is an orphan of an
        # interrupted operation.
        for platform in network.platforms():
            for module_id, (address, _) in list(platform.modules.items()):
                record = live.get(module_id)
                if record is None or record.platform != platform.name:
                    _evict(platform, module_id, address)
        # Re-install the committed state.
        for module_id in sorted(live):
            record = live[module_id]
            platform = network.node(record.platform)
            if module_id not in platform.modules:
                # A crash mid-move leaves the vacated source address
                # handed out: adopting it again would count it twice.
                if not platform.address_outstanding(record.address):
                    platform.adopt_address(record.address)
                platform.deploy(
                    module_id, record.address, record.config,
                    proto=record.proto, port=record.port,
                )
            # A bill still running (a shared ledger) is not restarted.
            billed = controller.ledger.modules.get(module_id)
            running = billed is not None and billed.stopped_at is None
            controller._install(_DeployedModule(
                module_id, record.client_id, record.platform,
                record.address, record.config, record.sandboxed,
                list(record.requirements), record.proto, record.port,
            ), None if running else record.timestamp)
        for client_id, addresses in journal.registered_addresses().items():
            controller.client_addresses.setdefault(client_id, set()).update(
                addresses)
        # Auto-generated module ids must not collide with pre-crash
        # ones (including modules that were killed since).
        controller._module_counter = itertools.count(
            journal.deploys_seen() + 1)
        network.bump_epoch()
        network.compute_routes()
        return controller

    def set_operator_requirements(self, text: str) -> None:
        """Replace the operator policy (a policy edit).

        Cached verdicts for requirements still present in the new
        policy are kept -- the next :meth:`verify_snapshot` re-explores
        only requirements that are new or whose footprint segments
        changed.  Entries for dropped operator rules are pruned (their
        module-owned ``$module`` instantiations expire lazily through
        token validation).  A statement already in the policy (same
        whitespace-normalised text) keeps its parsed, frozen
        requirement, so an edit parses only the lines it adds or
        changes.  A malformed statement raises :class:`PolicyError`
        and changes nothing.
        """
        known = {req.source: req for req in self.operator_requirements}
        self.operator_requirements = [
            known.get(statement) or parse_requirement(statement)
            for statement in split_statements(text or "")
        ]
        self._verification.prune_operator(frozenset(
            str(req) for req in self.operator_requirements))

    def verify_snapshot(self) -> List[ReachResult]:
        """Re-check the whole snapshot after a network change.

        Section 4.3: "The policy is enforced by static verification
        performed by the controller at each modification of the state
        of the network."  Checks every operator requirement *and* every
        deployed module's stored client requirements; callers inspect
        the failed results to find what a topology change broke.
        """
        compiled = self._ensure_compiled()
        # Nothing is being mutated, so every footprint-valid cached
        # verdict is reusable and every fresh verdict is storable: a
        # verify_snapshot after a policy edit re-explores only the new
        # requirements (plus any whose segment tokens were bumped).
        results = self._verify_all(compiled, [], None, changed=UNCHANGED_SCOPE)
        for record in self.deployed.values():
            results.extend(self._verify_all(
                compiled, record.requirements, record.module_id,
                module_config=record.config, changed=UNCHANGED_SCOPE,
            ))
        return results

    def evacuate(self, platform_name: str) -> List[MigrationResult]:
        """Move every module off a platform (maintenance / failure).

        Each module is migrated to the first other platform where its
        stored requirements re-verify; modules with nowhere to go are
        reported as failed migrations and left in place (on a dead
        platform the operator would kill them instead).
        """
        victims = [module_id for module_id, record in self.deployed.items()
                   if record.platform == platform_name]
        outcomes: List[MigrationResult] = []
        for module_id in victims:
            moved = MigrationResult(
                migrated=False, module_id=module_id, source=platform_name,
                reason="no alternative platform available")
            for platform in self.network.platforms():
                if platform.name == platform_name or \
                        not platform.has_capacity:
                    continue
                try:
                    moved = self.migrate(module_id, platform.name)
                except Exception as exc:
                    # One candidate blowing up must not strand the rest
                    # (its trial has already undone itself).
                    moved = MigrationResult(
                        migrated=False, module_id=module_id,
                        source=platform_name, target=platform.name,
                        reason="migration error: %s" % (exc,))
                if moved:
                    break
            outcomes.append(moved)
        return outcomes

    def stats(self) -> dict:
        """Controller-level counters for operators and tests.

        Always available (observability enabled or not): request and
        trial outcomes, verdict-cache accounting when the fast path is
        on, and current deployment state.
        """
        trials: Dict[str, Dict[str, int]] = {}
        for (op, outcome), count in sorted(self._trials.items()):
            trials.setdefault(op, {})[outcome] = count
        out = {
            "requests": dict(self._request_outcomes),
            "trials": trials,
            "deployed_modules": len(self.deployed),
            "flow_rules": len(self.flow_rules),
            "model_epoch_cached": self._compiled is not None,
            "model_rebuilds": dict(self._model_rebuilds),
            "model_splices": dict(self._model_splices),
        }
        out["verdict_cache"] = self.analyzer.stats.to_dict()
        from repro.symexec import tuning as symexec_tuning

        out["symexec"] = symexec_tuning.stats()
        out["symexec_summaries"] = self._summaries.stats()
        out["verification_cache"] = self._verification.stats()
        return out

    # -- internals ------------------------------------------------------------
    def _ensure_compiled(self) -> CompiledNetwork:
        """The compiled model of the current snapshot.

        Compiled once, then *maintained*: every committed trial keeps
        its splice (a move also its source's un-splice) and
        :meth:`kill` un-splices, each refreshing the stored signature,
        so steady-state churn never recompiles the residents.  Validity
        is still keyed on :meth:`Network.model_signature` (epoch,
        links and address ownership, committed placement), so an
        external ``bump_epoch()``, out-of-band topology surgery, a
        recovery or a dropped model falls back to a full compile.
        """
        signature = self.network.model_signature()
        if self._compiled is None or signature != self._compiled_signature:
            reason = ("signature" if self._compiled is not None
                      else self._model_dropped or "cold")
            self._model_rebuilds[reason] += 1
            self._c_model_rebuilds.labels(reason).inc()
            self._model_dropped = None
            self.network.compute_routes()
            self._compiled = NetworkCompiler(self.network).compile()
            self._compiled_signature = signature
        return self._compiled

    def _model_followed(self, op: str) -> None:
        """The model was spliced/un-spliced in step with the network:
        it is current at the network's new signature."""
        self._compiled_signature = self.network.model_signature()
        self._model_splices[op] = self._model_splices.get(op, 0) + 1
        self._c_model_splices.labels(op).inc()

    def _drop_model(self, reason: str) -> None:
        """Forget the compiled model; the next use recompiles and
        counts ``reason``."""
        self._compiled = None
        self._compiled_signature = None
        self._model_dropped = reason

    def invalidate_model_cache(self) -> None:
        """Drop the cached compiled model (explicit invalidation API),
        plus every derived cache: summary tables and verdicts."""
        self._drop_model("invalidated")
        self._verification.flush()
        self._summaries.invalidate()

    def _install(
        self, record: _DeployedModule, billed_at: Optional[float] = None
    ) -> None:
        """Write one placed module's controller-side state: its record,
        its steering rule, its address in the owner's explicit-
        authorization set (disseminated to all platforms, Section 2.1)
        and, from ``billed_at`` on, its bill."""
        self.deployed[record.module_id] = record
        self.flow_rules[(record.platform, record.address)] = record.module_id
        self.client_addresses.setdefault(record.client_id, set()).add(
            record.address)
        if billed_at is not None:
            self.ledger.record_deployment(record.module_id, record.client_id,
                                          record.sandboxed, billed_at)

    def _disown(self, client_id: str, address: int) -> None:
        """Take a module address out of a client's authorization set
        (the entry goes with its last address)."""
        owned = self.client_addresses.get(client_id)
        if owned is not None:
            owned.discard(address)
            if not owned:
                del self.client_addresses[client_id]

    def _whitelist_for(self, request: ClientRequest) -> FrozenSet[int]:
        owned = addresses_to_whitelist(request.owned_addresses)
        known = self.client_addresses.get(request.client_id, set())
        return frozenset(owned | known)

    def _verify_all(
        self, compiled: CompiledNetwork,
        client_requirements: List[ReachRequirement],
        module_id: Optional[str], module_config: Optional[ClickConfig] = None,
        *, changed: ChangedScope,
    ) -> List[ReachResult]:
        """Check every requirement, reusing footprint-valid verdicts.

        ``changed`` describes what the caller is mutating: a trial's
        target platform and address (and a vacated source's), nothing
        during a snapshot re-verification.  Each requirement first
        consults the verification cache: a verdict whose reachability
        footprint avoided every changed segment, and whose per-segment
        version tokens still validate, is returned without
        re-exploring.
        """
        checker = ReachabilityChecker(compiled.resolver)
        results: List[ReachResult] = []
        # The engine inherits the controller's observability bundle, so
        # its explore spans nest under the admission span tree and the
        # symexec_* counters land in the shared registry.
        engine = compiled.engine(obs=self._obs, summaries=self._summaries)
        topo_signature = self.network.topology_signature()
        cache = self._verification
        reused = explored = 0
        # Requirement ownership keys the verdict cache: operator rules
        # are owner "" (shared across admissions), client rules and
        # $module-instantiated operator rules belong to the module
        # (their verdicts depend on where it sits).  Modules not yet in
        # ``deployed`` (admission and adoption trials) are never
        # cached: the candidate loop may undo their placement.
        pending = [(req, "") for req in self.operator_requirements]
        pending.extend((req, module_id or "") for req in client_requirements)
        with self._tracer.span("verify") as span:
            for requirement, owner in pending:
                instantiated = _instantiate_rule(requirement, module_id,
                                                 module_config)
                if instantiated is None:
                    continue  # $module rule with no module in flight
                if instantiated is not requirement:
                    owner = module_id or ""
                cacheable = owner == "" or owner in self.deployed
                key = (owner, str(instantiated))
                if cacheable:
                    cached = cache.lookup(key, self.network, topo_signature)
                    if cached is not None:
                        results.append(cached)
                        reused += 1
                        continue
                origin = instantiated.origin
                exploration = compiled.explore_from(origin.node, origin.flow,
                                                    engine=engine)
                result = checker.check(instantiated, exploration)
                results.append(result)
                explored += 1
                if cacheable:
                    cache.store(key, result, exploration, compiled,
                                self.network, instantiated, changed,
                                topo_signature)
            span.set("reused", reused)
            span.set("explored", explored)
        self._c_verdicts_reused.inc(reused)
        self._c_verdicts_reverified.inc(explored)
        return results


def _instantiate_rule(
    requirement: ReachRequirement,
    module_id: Optional[str],
    module_config: Optional[ClickConfig],
) -> Optional[ReachRequirement]:
    """Substitute the ``$module`` placeholder in an operator rule.

    Section 2.2: some operator policies are about *the tenant's own
    traffic* ("if a client's VM talks HTTP it must sit behind the HTTP
    middlebox").  Such rules use ``$module`` as origin; the controller
    instantiates them per trial placement so the module's egress is
    where symbolic traffic is injected.  Returns None when there is no
    module in flight to substitute.
    """
    origin = requirement.origin
    if origin.node.kind != KIND_NAME or \
            origin.node.name != MODULE_PLACEHOLDER:
        return requirement
    if module_id is None or module_config is None:
        return None
    sources = module_config.sources()
    if not sources:
        return None
    # Inject at the module's entry: the symbolic traffic then passes
    # through the module's own elements, so what can leave the module
    # is exactly what its filters and rewriters allow.
    new_origin = Hop(
        node=NodeRef(KIND_ELEMENT, name=module_id, element=sources[0],
                     port=0),
        flow=origin.flow,
        const_fields=origin.const_fields,
    )
    return replace(requirement, hops=(new_origin,) + requirement.hops[1:])


#: Migration transfer model: suspended ClickOS image ~8 MB over an
#: operator backbone path at ~1 Gb/s effective.
_VM_IMAGE_BYTES = 8 * 1024 * 1024
_TRANSFER_BPS = 1e9
_SUSPEND_S = 0.05
_RESUME_S = 0.06


def _migration_downtime(config: ClickConfig) -> float:
    """Downtime of suspend -> transfer -> resume for one module."""
    transfer = _VM_IMAGE_BYTES * 8.0 / _TRANSFER_BPS
    return _SUSPEND_S + transfer + _RESUME_S


def wrap_with_enforcer(
    config: ClickConfig, module_address: int, whitelist: FrozenSet[int]
) -> ClickConfig:
    """Wrap a configuration with ChangeEnforcer sandboxes (Section 4.4).

    An enforcer instance is injected on every path from a FromNetfront
    element into the module and on every path from the module to a
    ToNetfront element.  The enforcer is part of the client's
    configuration, so the client is billed for it.
    """
    wrapped = ClickConfig()
    wrapped.elements = dict(config.elements)
    wrapped._anon_counter = config._anon_counter
    sources = set(config.sources())
    sinks = set(config.sinks())
    args = ["addr %s" % format_ip(module_address)]
    args.extend("whitelist %s" % format_ip(a) for a in sorted(whitelist))
    ingress_edges = [e for e in config.edges if e.src in sources]
    egress_edges = [e for e in config.edges if e.dst in sinks]
    # The common single-path module gets ONE enforcer spanning both
    # directions, so implicit authorizations granted on ingress are
    # visible when policing egress.  Configurations with several entry
    # or exit edges get a dedicated instance per edge: stricter (each
    # egress enforcer then only honors its own observations plus the
    # white-list), but still safe.
    shared = len(ingress_edges) == 1 and len(egress_edges) == 1
    if shared:
        wrapped.declare("enforcer", "ChangeEnforcer", tuple(args))
    enforcer_count = itertools.count(1)
    for edge in config.edges:
        if edge.src in sources:
            name = "enforcer" if shared else (
                "enforcer_in_%d" % next(enforcer_count)
            )
            if not shared:
                wrapped.declare(name, "ChangeEnforcer", tuple(args))
            wrapped.edges.append(Edge(edge.src, edge.src_port, name, 0))
            wrapped.edges.append(Edge(name, 0, edge.dst, edge.dst_port))
        elif edge.dst in sinks:
            name = "enforcer" if shared else (
                "enforcer_out_%d" % next(enforcer_count)
            )
            if not shared:
                wrapped.declare(name, "ChangeEnforcer", tuple(args))
            wrapped.edges.append(Edge(edge.src, edge.src_port, name, 1))
            wrapped.edges.append(Edge(name, 1, edge.dst, edge.dst_port))
        else:
            wrapped.edges.append(edge)
    return wrapped
