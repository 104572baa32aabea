"""The In-Net controller (Section 4.3).

The controller takes client requests and statically verifies them on a
snapshot of the network.  For each request it:

1. parses the Click configuration (or instantiates a stock module) and
   refuses anything built from unknown elements,
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

Timing of the two verification stages (model *compilation* = building
the symbolic graph; *checking* = exploration) is recorded per request --
these are the quantities Figure 10 plots.
"""

from __future__ import annotations

import itertools
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.click.config import ClickConfig
from repro.common.addr import format_ip
from repro.common.errors import DeploymentError, VerificationError
from repro.core.requests import ClientRequest, ROLE_OPERATOR
from repro.core.security import (
    SecurityAnalyzer,
    SecurityReport,
    VERDICT_REJECT,
    VERDICT_SANDBOX,
    addresses_to_whitelist,
)
from repro.netmodel.symgraph import CompiledNetwork, NetworkCompiler
from repro.netmodel.topology import Network, Platform
from repro.policy.grammar import ReachRequirement, parse_requirements
from repro.symexec.reachability import ReachabilityChecker, ReachResult
from repro.symexec.summaries import (
    UNCHANGED_SCOPE,
    ChangedScope,
    SummaryCache,
    VerificationCache,
)
from repro.symexec.tuning import optimizations_enabled


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


class Controller:
    """The operator's controller: one per network."""

    def __init__(
        self,
        network: Network,
        operator_requirements: str = "",
        ledger=None,
        clock=None,
        fast_path: bool = True,
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
            if operator_requirements
            else []
        )
        #: Admission fast path: verdict caching + incremental
        #: compilation + route-recompute elision.  ``fast_path=False``
        #: recompiles everything from scratch per candidate (the
        #: pre-optimization behavior, kept for equivalence testing).
        self._fast_path = fast_path
        self.analyzer = (
            CachingSecurityAnalyzer() if fast_path else SecurityAnalyzer()
        )
        #: Compiled model of the committed snapshot, maintained across
        #: commits and kills and validated against
        #: :meth:`Network.model_signature`.
        self._compiled: Optional[CompiledNetwork] = None
        self._compiled_signature: Optional[int] = None
        #: Why the model was last dropped (labels the next rebuild).
        self._model_dropped: Optional[str] = None
        #: Full compiles by reason, and splices kept / undone in step
        #: with a commit / kill (also in the metrics registry).
        self._model_rebuilds = {
            "cold": 0, "signature": 0, "invalidated": 0, "error": 0,
        }
        self._model_splices = {"commit": 0, "kill": 0}
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
        #: Transfer-function summary cache (per-element programs +
        #: composed segment chains), shared by every engine this
        #: controller creates; None without the fast path.
        self._summaries = SummaryCache() if fast_path else None
        #: Footprint-keyed requirement verdict cache: the incremental
        #: re-verification tier (always constructed; only consulted
        #: when the fast path and the tuning switch are on).
        self._verification = VerificationCache()
        if self._fast_path and self._obs.enabled:
            # Satellite of the obs subsystem: the verdict cache's
            # accounting lives in the shared registry, not in private
            # counters (see repro.core.cache.RegistryCacheStats).
            self.analyzer.instrument(metrics, "verdict")
            self._summaries.instrument(metrics)
            self._verification.instrument(metrics)
        self._h_admission = metrics.histogram(
            "controller_admission_seconds",
            "Wall-clock seconds per admission request",
        )
        self._c_requests = metrics.counter(
            "controller_requests_total",
            "Admission requests by outcome", labels=("outcome",),
        )
        self._c_migrations = metrics.counter(
            "controller_migrations_total",
            "Migration attempts by outcome", labels=("outcome",),
        )
        self._c_kills = metrics.counter(
            "controller_kills_total", "Modules killed",
        )
        self._c_verdicts_reused = metrics.counter(
            "controller_verdicts_reused_total",
            "Requirement verdicts answered from the verification cache",
        )
        self._c_verdicts_reverified = metrics.counter(
            "controller_verdicts_reverified_total",
            "Requirement verdicts re-explored symbolically",
        )
        self._c_model_rebuilds = metrics.counter(
            "controller_model_rebuilds_total",
            "From-scratch compiles of the symbolic model, by reason",
            labels=("reason",),
        )
        self._c_model_splices = metrics.counter(
            "controller_model_splices_total",
            "Module splices kept on commit / undone on kill instead "
            "of a recompile", labels=("op",),
        )
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
        with self._tracer.span(
            "admit",
            client_id=request.client_id,
            module=request.module_name or "",
            dry_run=dry_run,
        ) as span:
            result = self._admit(request, pinned_platform, dry_run)
            span.set("accepted", result.accepted)
            if not result.accepted:
                span.set("reason", result.reason)
        self._h_admission.observe(time.perf_counter() - started)
        outcome = "accepted" if result.accepted else "rejected"
        self._request_outcomes[outcome] += 1
        self._c_requests.labels(outcome).inc()
        return result

    def _admit(
        self,
        request: ClientRequest,
        pinned_platform: Optional[str],
        dry_run: bool,
    ) -> DeploymentResult:
        compile_seconds = 0.0
        check_seconds = 0.0
        try:
            config = request.parse_click_config()
            config.validate()
        except Exception as exc:
            return DeploymentResult(accepted=False,
                                    reason="bad configuration: %s" % exc)
        try:
            requirements = request.parse_reach_requirements()
        except Exception as exc:
            return DeploymentResult(accepted=False,
                                    reason="bad requirements: %s" % exc)
        module_id = request.module_name or "%s-mod%d" % (
            request.client_id, next(self._module_counter)
        )
        if module_id in self.deployed:
            return DeploymentResult(
                accepted=False,
                reason="module name %r already in use" % (module_id,),
            )
        whitelist = self._whitelist_for(request)
        self.ledger.record_verification(request.client_id)
        all_platforms = self.network.platforms()
        if not all_platforms:
            return DeploymentResult(accepted=False,
                                    reason="no platforms available")
        platforms = [p for p in all_platforms if p.has_capacity]
        if pinned_platform is not None:
            platforms = [
                p for p in platforms if p.name == pinned_platform
            ]
            if not platforms:
                return DeploymentResult(
                    accepted=False,
                    reason="pinned platform %r unavailable or at "
                           "capacity" % (pinned_platform,),
                )
        if not platforms:
            return DeploymentResult(
                accepted=False,
                reason="every platform is at capacity",
            )
        last_failure = "no platform satisfies the requirements"
        compiled_base: Optional[CompiledNetwork] = None
        if self._fast_path:
            # The maintained model of the committed snapshot; the
            # candidate loop splices each trial module into it instead
            # of rebuilding every node.
            try:
                started = time.perf_counter()
                with self._tracer.span("compile", incremental=True):
                    compiled_base = self._ensure_compiled()
                compile_seconds += time.perf_counter() - started
            except VerificationError as exc:
                return DeploymentResult(
                    accepted=False,
                    reason="verification failed: %s" % exc,
                    compile_seconds=compile_seconds,
                )
        for platform in platforms:
            try:
                address = platform.allocate_address()
            except Exception as exc:
                last_failure = "platform %s: %s" % (platform.name, exc)
                continue
            # Security analysis depends on the assigned address (the
            # module may legitimately source traffic from it); the
            # caching analyzer's address-independent pre-pass makes the
            # common `allow` case a single probe for all candidates.
            try:
                with self._tracer.span(
                    "security", platform=platform.name,
                ):
                    security = self.analyzer.analyze(
                        config,
                        request.role,
                        module_address=address,
                        whitelist=whitelist,
                    )
            except VerificationError as exc:
                platform.release_address(address)
                return DeploymentResult(
                    accepted=False,
                    reason="static checking impossible: %s" % exc,
                )
            if security.verdict == VERDICT_REJECT:
                platform.release_address(address)
                return DeploymentResult(
                    accepted=False,
                    security=security,
                    reason="security rules violated:\n%s" % security,
                )
            deploy_config = config
            sandboxed = False
            if security.verdict == VERDICT_SANDBOX:
                deploy_config = wrap_with_enforcer(
                    config, address, whitelist
                )
                sandboxed = True
            # Trial placement: pretend the module runs on this platform.
            try:
                listen_proto, listen_port = request.parse_listen()
            except Exception as exc:
                platform.release_address(address)
                return DeploymentResult(
                    accepted=False, reason="bad listen spec: %s" % exc,
                )
            platform.deploy(
                module_id, address, deploy_config,
                proto=listen_proto, port=listen_port,
            )
            # A trial placement never alters inter-node links, so the
            # epoch-aware compute_routes() elides the recompute.
            self.network.compute_routes()
            # What this trial changes: exactly one platform segment and
            # one address.  Verdicts with disjoint footprints stay
            # valid (and reusable); a fresh verdict is stored only if
            # its footprint -- for a satisfied reach, one witness's
            # path -- avoids both.
            trial_scope = ChangedScope(
                frozenset((platform.name,)), frozenset((address,))
            )
            try:
                with ExitStack() as model:
                    started = time.perf_counter()
                    trial = None
                    if compiled_base is not None:
                        trial = compiled_base.with_trial_module(
                            platform.name, module_id, address,
                            deploy_config,
                        )
                        with self._tracer.span(
                            "graft", platform=platform.name,
                        ):
                            compiled = model.enter_context(trial)
                    else:
                        with self._tracer.span(
                            "compile", incremental=False,
                            platform=platform.name,
                        ):
                            compiled = NetworkCompiler(
                                self.network
                            ).compile()
                    compile_seconds += time.perf_counter() - started
                    started = time.perf_counter()
                    with self._tracer.span(
                        "check", platform=platform.name,
                    ):
                        results = self._verify_all(
                            compiled, requirements, module_id,
                            module_config=deploy_config,
                            changed=trial_scope,
                        )
                    check_seconds += time.perf_counter() - started
                    if all(results):
                        if dry_run:
                            # Undo the trial placement; report the
                            # decision.
                            platform.undeploy(module_id)
                            platform.release_address(address)
                            self.network.compute_routes()
                        else:
                            self._commit(
                                request, module_id, platform, address,
                                deploy_config, sandboxed, requirements,
                                proto=listen_proto, port=listen_port,
                            )
                            if trial is not None:
                                # The trial splice *is* the committed
                                # module's branch: keep it.
                                trial.commit()
                                self._model_followed("commit")
                        return DeploymentResult(
                            accepted=True,
                            module_id=module_id,
                            platform=platform.name,
                            address=format_ip(address),
                            sandboxed=sandboxed,
                            security=security,
                            reach_results=results,
                            compile_seconds=compile_seconds,
                            check_seconds=check_seconds,
                        )
            except VerificationError as exc:
                # The trial placement must never leak on a failed
                # verification (bad node reference, unmodelled
                # element in an operator box, ...).
                platform.undeploy(module_id)
                platform.release_address(address)
                self.network.compute_routes()
                return DeploymentResult(
                    accepted=False,
                    reason="verification failed: %s" % exc,
                    compile_seconds=compile_seconds,
                    check_seconds=check_seconds,
                )
            except BaseException:
                # Whatever state the splice is in, do not trust it.
                self._drop_model("error")
                raise
            failed = [r for r in results if not r]
            last_failure = "; ".join(
                "%s: %s" % (r.requirement, r.reason) for r in failed
            )
            platform.undeploy(module_id)
            platform.release_address(address)
            self.network.compute_routes()
        return DeploymentResult(
            accepted=False,
            reason=last_failure,
            compile_seconds=compile_seconds,
            check_seconds=check_seconds,
        )

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
            OP_KILL, PHASE_COMMIT, PHASE_INTENT,
        )

        # Un-splicing keeps the model current only if it was current.
        compiled = self._compiled
        follow = (
            compiled is not None
            and module_id in compiled.modules
            and self._compiled_signature == self.network.model_signature()
        )
        self.journal.append(
            OP_KILL, PHASE_INTENT,
            module_id=module_id, client_id=record.client_id,
            platform=record.platform, address=record.address,
            timestamp=self._clock(),
        )
        del self.deployed[module_id]
        try:
            platform = self.network.node(record.platform)
        except Exception:
            platform = None
        if isinstance(platform, Platform):
            platform.undeploy(module_id)
            platform.release_address(record.address)
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
        self.journal.append(
            OP_KILL, PHASE_COMMIT,
            module_id=module_id, client_id=record.client_id,
            platform=record.platform, address=record.address,
            timestamp=self._clock(),
        )
        return True

    def migrate(
        self, module_id: str, target_platform: str
    ) -> MigrationResult:
        """Move a deployed module to another platform.

        Processing should follow the user (Section 2): the module is
        trial-placed on the target, the client's original requirements
        are re-verified there, and only then is the source instance
        torn down.  The module gets a fresh address from the target's
        pool (the client is notified, exactly as on first deployment).
        Downtime follows the suspend -> transfer -> resume model.
        """
        result = self._migrate(module_id, target_platform)
        self._c_migrations.labels(
            "migrated" if result.migrated else "failed"
        ).inc()
        return result

    def _migrate(
        self, module_id: str, target_platform: str
    ) -> MigrationResult:
        record = self.deployed.get(module_id)
        if record is None:
            return MigrationResult(
                migrated=False, module_id=module_id,
                reason="unknown module",
            )
        if record.platform == target_platform:
            return MigrationResult(
                migrated=False, module_id=module_id,
                reason="module already on %s" % target_platform,
            )
        try:
            target = self.network.node(target_platform)
        except Exception:
            return MigrationResult(
                migrated=False, module_id=module_id,
                reason="unknown platform %r" % (target_platform,),
            )
        if not isinstance(target, Platform):
            return MigrationResult(
                migrated=False, module_id=module_id,
                reason="%r is not a platform" % (target_platform,),
            )
        if not target.has_capacity:
            return MigrationResult(
                migrated=False, module_id=module_id,
                reason="target platform is at capacity",
            )
        from repro.resilience.journal import (
            OP_MIGRATE, PHASE_COMMIT, PHASE_INTENT,
        )

        source = self.network.node(record.platform)
        new_address = target.allocate_address()
        self.journal.append(
            OP_MIGRATE, PHASE_INTENT,
            module_id=module_id, client_id=record.client_id,
            platform=target_platform, address=new_address,
            source=record.platform, source_address=record.address,
            proto=record.proto, port=record.port,
            timestamp=self._clock(),
        )
        # Trial placement on the target while the source still runs.
        # *Every* non-commit exit below must leave the world exactly
        # as it was: source record, flow rules, client addresses
        # untouched, the target's trial address back in the pool.
        source.undeploy(module_id)
        try:
            target.deploy(
                module_id, new_address, record.config,
                proto=record.proto, port=record.port,
            )
            self.network.compute_routes()
            compiled = self._ensure_compiled()
            results = self._verify_all(
                compiled, record.requirements, module_id,
                module_config=record.config,
            )
        except Exception:
            self._rollback_migration(
                source, target, record, module_id, new_address
            )
            raise
        if not all(results):
            # Roll back: the module stays where it was.
            self._rollback_migration(
                source, target, record, module_id, new_address
            )
            failed = [r for r in results if not r]
            return MigrationResult(
                migrated=False, module_id=module_id,
                source=record.platform, target=target_platform,
                reason="; ".join(
                    "%s: %s" % (r.requirement, r.reason) for r in failed
                ),
            )
        # Commit: swap flow rules and client-owned addresses, and
        # return the source-side address to its pool -- nothing refers
        # to it any more.
        self.flow_rules.pop((record.platform, record.address), None)
        self.flow_rules[(target_platform, new_address)] = module_id
        self._disown(record.client_id, record.address)
        self.client_addresses.setdefault(
            record.client_id, set()
        ).add(new_address)
        old_platform = record.platform
        old_address = record.address
        source.release_address(old_address)
        record.platform = target_platform
        record.address = new_address
        self.network.bump_epoch()
        self.journal.append(
            OP_MIGRATE, PHASE_COMMIT,
            module_id=module_id, client_id=record.client_id,
            platform=target_platform, address=new_address,
            source=old_platform, source_address=old_address,
            proto=record.proto, port=record.port,
            timestamp=self._clock(),
        )
        downtime = _migration_downtime(record.config)
        return MigrationResult(
            migrated=True,
            module_id=module_id,
            source=old_platform,
            target=target_platform,
            new_address=format_ip(new_address),
            downtime_seconds=downtime,
        )

    def _rollback_migration(
        self,
        source: Platform,
        target: Platform,
        record: _DeployedModule,
        module_id: str,
        new_address: int,
    ) -> None:
        """Undo a trial migration placement, restoring the source
        exactly (including the original listen steering)."""
        if module_id in target.modules:
            target.undeploy(module_id)
        target.release_address(new_address)
        if module_id not in source.modules:
            source.deploy(
                module_id, record.address, record.config,
                proto=record.proto, port=record.port,
            )
        self.network.compute_routes()

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
        return _DeployedModule(
            module_id=record.module_id,
            client_id=record.client_id,
            platform=record.platform,
            address=record.address,
            config=record.config,
            sandboxed=record.sandboxed,
            requirements=list(record.requirements),
            proto=record.proto,
            port=record.port,
        )

    def adopt_module(
        self,
        record: "_DeployedModule",
        pinned_platform: Optional[str] = None,
        origin: str = "",
    ) -> MigrationResult:
        """Admit a module exported from *another* controller.

        The cross-network half of :meth:`migrate`, with the same
        trial-place / re-verify / exact-rollback discipline: the module
        is placed on a platform of **this** network with a fresh
        address from its pool, the stored client requirements are
        re-verified against this network's compiled model, and only a
        fully verified placement commits (journal intent precedes the
        trial placement, so a crash mid-adoption leaves a pending
        intent that :meth:`recover` reconciles away).  The caller (the
        federated reshard path) tears the source copy down only after
        this returns success -- the module is never in limbo.

        ``origin`` is recorded as journal provenance (audit trail for
        cross-shard moves).  The module keeps its id, owner, config,
        sandbox status, and listen steering; only platform and address
        change, exactly as in an in-network migration.
        """
        from repro.resilience.journal import (
            OP_DEPLOY, PHASE_COMMIT, PHASE_INTENT,
        )

        if record.module_id in self.deployed:
            return MigrationResult(
                migrated=False, module_id=record.module_id,
                source=record.platform,
                reason="module name %r already in use here"
                       % (record.module_id,),
            )
        platforms = [
            p for p in self.network.platforms() if p.has_capacity
        ]
        if pinned_platform is not None:
            platforms = [
                p for p in platforms if p.name == pinned_platform
            ]
        if not platforms:
            return MigrationResult(
                migrated=False, module_id=record.module_id,
                source=record.platform,
                reason="no platform with capacity for the adopted "
                       "module",
            )
        last_failure = "no platform satisfies the requirements"
        for target in platforms:
            try:
                new_address = target.allocate_address()
            except Exception as exc:
                last_failure = "platform %s: %s" % (target.name, exc)
                continue
            journal_fields = dict(
                module_id=record.module_id, client_id=record.client_id,
                platform=target.name, address=new_address,
                sandboxed=record.sandboxed,
                proto=record.proto, port=record.port,
                timestamp=self._clock(), config=record.config,
                requirements=tuple(record.requirements),
                origin=origin,
            )
            self.journal.append(
                OP_DEPLOY, PHASE_INTENT, **journal_fields
            )
            target.deploy(
                record.module_id, new_address, record.config,
                proto=record.proto, port=record.port,
            )
            self.network.compute_routes()
            try:
                compiled = self._ensure_compiled()
                results = self._verify_all(
                    compiled, record.requirements, record.module_id,
                    module_config=record.config,
                )
            except Exception as exc:
                target.undeploy(record.module_id)
                target.release_address(new_address)
                self.network.compute_routes()
                return MigrationResult(
                    migrated=False, module_id=record.module_id,
                    source=record.platform, target=target.name,
                    reason="verification failed: %s" % (exc,),
                )
            if not all(results):
                target.undeploy(record.module_id)
                target.release_address(new_address)
                self.network.compute_routes()
                failed = [r for r in results if not r]
                last_failure = "; ".join(
                    "%s: %s" % (r.requirement, r.reason)
                    for r in failed
                )
                continue
            self.deployed[record.module_id] = _DeployedModule(
                module_id=record.module_id,
                client_id=record.client_id,
                platform=target.name,
                address=new_address,
                config=record.config,
                sandboxed=record.sandboxed,
                requirements=list(record.requirements),
                proto=record.proto,
                port=record.port,
            )
            self.ledger.record_deployment(
                record.module_id, record.client_id, record.sandboxed,
                self._clock(),
            )
            self.flow_rules[(target.name, new_address)] = \
                record.module_id
            self.client_addresses.setdefault(
                record.client_id, set()
            ).add(new_address)
            self.network.bump_epoch()
            self.journal.append(
                OP_DEPLOY, PHASE_COMMIT, **journal_fields
            )
            self._c_migrations.labels("migrated").inc()
            return MigrationResult(
                migrated=True,
                module_id=record.module_id,
                source=record.platform,
                target=target.name,
                new_address=format_ip(new_address),
                downtime_seconds=_migration_downtime(record.config),
            )
        self._c_migrations.labels("failed").inc()
        return MigrationResult(
            migrated=False, module_id=record.module_id,
            source=record.platform, reason=last_failure,
        )

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
        fast_path: bool = True,
        obs=None,
    ) -> "Controller":
        """Rebuild a controller from its write-ahead journal.

        The replacement for a crashed controller: committed deploys,
        kills, and migrations are folded into the effective deployment
        state, which is re-installed (``deployed``, flow rules, client
        authorization sets, ledger).  The platforms are then
        *reconciled* against that state -- a trial placement orphaned
        by a crash between intent and commit is undeployed and its
        address released, and a committed module a platform lost is
        re-deployed at its original address.  The result converges to
        the pre-crash control-plane state (the chaos harness asserts
        digest equality).
        """
        controller = cls(
            network,
            operator_requirements=operator_requirements,
            ledger=ledger,
            clock=clock,
            fast_path=fast_path,
            obs=obs,
            journal=journal,
        )
        live = journal.live_state()
        # Reconcile platform-side placements: anything a platform runs
        # that the journal does not consider live is an orphan of an
        # interrupted operation.
        for platform in network.platforms():
            for module_id in list(platform.modules):
                record = live.get(module_id)
                if record is None or record.platform != platform.name:
                    address, _config = platform.modules[module_id]
                    platform.undeploy(module_id)
                    platform.release_address(address)
        # Re-install the committed state.
        for module_id in sorted(live):
            record = live[module_id]
            platform = network.node(record.platform)
            if module_id not in platform.modules:
                platform.adopt_address(record.address)
                platform.deploy(
                    module_id, record.address, record.config,
                    proto=record.proto, port=record.port,
                )
            controller.deployed[module_id] = _DeployedModule(
                module_id=module_id,
                client_id=record.client_id,
                platform=record.platform,
                address=record.address,
                config=record.config,
                sandboxed=record.sandboxed,
                requirements=list(record.requirements),
                proto=record.proto,
                port=record.port,
            )
            controller.flow_rules[
                (record.platform, record.address)
            ] = module_id
            controller.client_addresses.setdefault(
                record.client_id, set()
            ).add(record.address)
            billed = controller.ledger.modules.get(module_id)
            if billed is None or billed.stopped_at is not None:
                controller.ledger.record_deployment(
                    module_id, record.client_id, record.sandboxed,
                    record.timestamp,
                )
        for client_id, addresses in journal.registered_addresses().items():
            controller.client_addresses.setdefault(
                client_id, set()
            ).update(addresses)
        # Auto-generated module ids must not collide with pre-crash
        # ones (including modules that were killed since).
        controller._module_counter = itertools.count(
            journal.deploys_seen() + 1
        )
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
        token validation).
        """
        self.operator_requirements = (
            parse_requirements(text) if text else []
        )
        self._verification.prune_operator(frozenset(
            str(req) for req in self.operator_requirements
        ))

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
        results = self._verify_all(
            compiled, [], None, changed=UNCHANGED_SCOPE
        )
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
        victims = [
            module_id
            for module_id, record in self.deployed.items()
            if record.platform == platform_name
        ]
        outcomes: List[MigrationResult] = []
        for module_id in victims:
            moved = None
            for platform in self.network.platforms():
                if platform.name == platform_name:
                    continue
                if not platform.has_capacity:
                    continue
                try:
                    attempt = self.migrate(module_id, platform.name)
                except Exception as exc:
                    # One candidate blowing up must not strand the
                    # rest of the evacuation (_migrate already rolled
                    # the trial placement back).
                    attempt = MigrationResult(
                        migrated=False, module_id=module_id,
                        source=platform_name, target=platform.name,
                        reason="migration error: %s" % (exc,),
                    )
                if attempt:
                    moved = attempt
                    break
                moved = attempt
            if moved is None:
                moved = MigrationResult(
                    migrated=False, module_id=module_id,
                    source=platform_name,
                    reason="no alternative platform available",
                )
            outcomes.append(moved)
        return outcomes

    def stats(self) -> dict:
        """Controller-level counters for operators and tests.

        Always available (observability enabled or not): request
        outcomes, verdict-cache accounting when the fast path is on,
        and current deployment state.
        """
        out = {
            "requests": dict(self._request_outcomes),
            "deployed_modules": len(self.deployed),
            "flow_rules": len(self.flow_rules),
            "model_epoch_cached": self._compiled is not None,
            "model_rebuilds": dict(self._model_rebuilds),
            "model_splices": dict(self._model_splices),
        }
        cache_stats = getattr(self.analyzer, "stats", None)
        if cache_stats is not None:
            out["verdict_cache"] = cache_stats.to_dict()
        from repro.symexec import tuning as symexec_tuning

        out["symexec"] = symexec_tuning.stats()
        if self._summaries is not None:
            out["symexec_summaries"] = self._summaries.stats()
        out["verification_cache"] = self._verification.stats()
        return out

    # -- internals ----------------------------------------------------------------
    def _ensure_compiled(self) -> CompiledNetwork:
        """The compiled model of the current snapshot.

        Compiled once, then *maintained*: :meth:`_admit` keeps a
        committed module's trial splice and :meth:`kill` un-splices,
        each refreshing the stored signature, so steady-state churn
        never recompiles the residents.  Validity is still keyed on
        :meth:`Network.model_signature` -- the explicit epoch, the
        link/address-ownership structure, and the committed module
        placement -- so an external ``bump_epoch()``, out-of-band
        topology surgery, a migration, or a dropped model all fall
        back to a from-scratch compile.
        """
        signature = self.network.model_signature()
        if (
            self._compiled is None
            or signature != self._compiled_signature
        ):
            reason = (
                "signature" if self._compiled is not None
                else self._model_dropped or "cold"
            )
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
        self._model_splices[op] += 1
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
        if self._summaries is not None:
            self._summaries.invalidate()

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
        self,
        compiled: CompiledNetwork,
        client_requirements: List[ReachRequirement],
        module_id: Optional[str],
        module_config: Optional[ClickConfig] = None,
        changed: Optional[ChangedScope] = None,
    ) -> List[ReachResult]:
        """Check every requirement, reusing footprint-valid verdicts.

        ``changed`` describes what the caller is mutating (the trial
        platform and address during admission, nothing during a
        snapshot re-verification).  When given -- and the fast path and
        tuning switch are on -- each requirement first consults the
        verification cache: a verdict whose reachability footprint
        avoided every changed segment, and whose per-segment version
        tokens still validate, is returned without re-exploring.
        ``changed=None`` (migration/adoption trial paths) disables the
        cache entirely for this call.
        """
        checker = ReachabilityChecker(compiled.resolver)
        results: List[ReachResult] = []
        # The engine inherits the controller's observability bundle, so
        # its explore spans nest under the admission span tree and the
        # symexec_* counters land in the shared registry.
        engine = compiled.engine(obs=self._obs, summaries=self._summaries)
        use_cache = (
            self._fast_path
            and changed is not None
            and optimizations_enabled()
        )
        topo_signature = (
            self.network.topology_signature() if use_cache else None
        )
        cache = self._verification
        reused = 0
        explored = 0
        # Requirement ownership keys the verdict cache: operator rules
        # are owner "" (shared across admissions), client rules and
        # $module-instantiated operator rules belong to the module
        # (their verdicts depend on where it sits).  Trial modules --
        # not yet in ``deployed`` -- are never cached: their placement
        # is rolled back when the candidate loop moves on.
        pending = [(req, "") for req in self.operator_requirements]
        pending.extend(
            (req, module_id or "") for req in client_requirements
        )
        with self._tracer.span(
            "verify", incremental=use_cache
        ) as span:
            for requirement, owner in pending:
                instantiated = _instantiate_rule(
                    requirement, module_id, module_config
                )
                if instantiated is None:
                    continue  # $module rule with no module in flight
                if instantiated is not requirement:
                    owner = module_id or ""
                cacheable = use_cache and (
                    owner == "" or owner in self.deployed
                )
                key = (owner, str(instantiated))
                if cacheable:
                    cached = cache.lookup(
                        key, self.network, topo_signature
                    )
                    if cached is not None:
                        results.append(cached)
                        reused += 1
                        continue
                origin = instantiated.origin
                exploration = compiled.explore_from(
                    origin.node, origin.flow, engine=engine
                )
                result = checker.check(instantiated, exploration)
                results.append(result)
                explored += 1
                if cacheable:
                    cache.store(
                        key, result, exploration, compiled,
                        self.network, instantiated, changed,
                        topo_signature,
                    )
            span.set("reused", reused)
            span.set("explored", explored)
        self._c_verdicts_reused.inc(reused)
        self._c_verdicts_reverified.inc(explored)
        return results

    def _commit(
        self,
        request: ClientRequest,
        module_id: str,
        platform: Platform,
        address: int,
        config: ClickConfig,
        sandboxed: bool,
        requirements: Optional[List[ReachRequirement]] = None,
        proto: Optional[int] = None,
        port: Optional[int] = None,
    ) -> None:
        from repro.resilience.journal import (
            OP_DEPLOY, PHASE_COMMIT, PHASE_INTENT,
        )

        journal_fields = dict(
            module_id=module_id, client_id=request.client_id,
            platform=platform.name, address=address,
            sandboxed=sandboxed, proto=proto, port=port,
            timestamp=self._clock(), config=config,
            requirements=tuple(requirements or ()),
        )
        self.journal.append(OP_DEPLOY, PHASE_INTENT, **journal_fields)
        self.deployed[module_id] = _DeployedModule(
            module_id=module_id,
            client_id=request.client_id,
            platform=platform.name,
            address=address,
            config=config,
            sandboxed=sandboxed,
            requirements=list(requirements or []),
            proto=proto,
            port=port,
        )
        self.ledger.record_deployment(
            module_id, request.client_id, sandboxed, self._clock()
        )
        self.flow_rules[(platform.name, address)] = module_id
        # The module's address becomes part of the client's explicit-
        # authorization set, disseminated to all platforms (Section 2.1).
        self.client_addresses.setdefault(request.client_id, set()).add(
            address
        )
        # A real deploy starts a new model epoch: a compiled model
        # that did not follow this commit is stale from here on.
        self.network.bump_epoch()
        self.journal.append(OP_DEPLOY, PHASE_COMMIT, **journal_fields)


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
    from dataclasses import replace

    from repro.policy.grammar import (
        Hop,
        KIND_ELEMENT,
        KIND_NAME,
        MODULE_PLACEHOLDER,
        NodeRef,
    )

    origin = requirement.origin
    uses_placeholder = (
        origin.node.kind == KIND_NAME
        and origin.node.name == MODULE_PLACEHOLDER
    )
    if not uses_placeholder:
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
        node=NodeRef(
            KIND_ELEMENT, name=module_id, element=sources[0], port=0
        ),
        flow=origin.flow,
        const_fields=origin.const_fields,
    )
    return replace(
        requirement, hops=(new_origin,) + requirement.hops[1:]
    )


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
    from repro.click.config import Edge

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
