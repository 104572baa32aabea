"""System invariants the control plane must preserve under faults.

The chaos harness calls :func:`check_invariants` after **every**
scripted event; a violation means a fault path corrupted control-plane
state.  At control-plane quiesce (no admission or migration in flight)
the following must hold:

1. *Placement bijection* -- the controller's ``deployed`` map and the
   platforms' ``modules`` maps describe exactly the same set of
   modules, with matching addresses.  No module is lost, stranded, or
   double-deployed.
2. *Flow rules* -- the controller's recorded steering rules are
   exactly ``{(platform, address): module}`` for the deployed set, and
   each platform's switch table holds a rule with the module's cookie.
3. *Client addresses* -- every deployed module's address is in its
   owner's explicit-authorization set.
4. *No leaked addresses* -- per platform,
   ``allocated_total - released_total == len(modules)``: every address
   ever handed out was either bound to a live module or returned to
   the pool.  This is the invariant the partial-migration and kill
   fixes exist for.
5. *Placement on live platforms* -- no module is recorded on a
   platform marked failed (failover must have evacuated or reported
   it stranded).
6. *Ledger balanced* -- the set of modules still accruing
   module-hours equals the deployed set.

:func:`controller_state_digest` flattens all of that (plus routes)
into one comparable structure -- the chaos harness uses digest
equality to prove a journal-recovered controller converged to the
pre-crash state.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.common.errors import InNetError
from repro.netmodel.topology import Platform


class InvariantViolation(InNetError):
    """A control-plane safety invariant does not hold."""


def check_invariants(
    controller,
    external_addresses: Optional[Iterable[int]] = None,
) -> None:
    """Raise :class:`InvariantViolation` on the first broken invariant.

    ``external_addresses`` lists addresses legitimately present in
    ``client_addresses`` without a backing module (explicitly
    registered client endpoints); anything else unaccounted for is a
    leak.
    """
    problems = collect_violations(
        controller, external_addresses=external_addresses
    )
    if problems:
        raise InvariantViolation("; ".join(problems))


def collect_violations(
    controller,
    external_addresses: Optional[Iterable[int]] = None,
) -> List[str]:
    """Every broken invariant, as human-readable strings."""
    problems: List[str] = []
    platforms = {p.name: p for p in controller.network.platforms()}
    deployed = controller.deployed

    # 1. Placement bijection.
    platform_modules = {
        module_id: platform.name
    # sorted() keeps the first-found problem deterministic across runs
        for platform in sorted(platforms.values(), key=lambda p: p.name)
        for module_id in platform.modules
    }
    for module_id, record in sorted(deployed.items()):
        home = platforms.get(record.platform)
        if home is None:
            problems.append(
                "module %r recorded on unknown platform %r"
                % (module_id, record.platform)
            )
            continue
        if module_id not in home.modules:
            problems.append(
                "module %r recorded on %r but not deployed there"
                % (module_id, record.platform)
            )
        else:
            address, _config = home.modules[module_id]
            if address != record.address:
                problems.append(
                    "module %r address mismatch: controller says %d, "
                    "platform %r says %d"
                    % (module_id, record.address, home.name, address)
                )
    for module_id, platform_name in sorted(platform_modules.items()):
        if module_id not in deployed:
            problems.append(
                "module %r deployed on %r but unknown to the controller"
                % (module_id, platform_name)
            )
    counted = sum(len(p.modules) for p in platforms.values())
    if counted != len(platform_modules):
        problems.append("a module is deployed on more than one platform")

    # 2. Flow rules, both the controller's record and the switch table.
    expected_rules = {
        (record.platform, record.address): module_id
        for module_id, record in deployed.items()
    }
    if controller.flow_rules != expected_rules:
        extra = set(controller.flow_rules) - set(expected_rules)
        missing = set(expected_rules) - set(controller.flow_rules)
        problems.append(
            "flow rules inconsistent with deployments "
            "(extra=%s missing=%s)" % (sorted(extra), sorted(missing))
        )
    # One cookie set per platform: rebuilding it per module turns
    # this check quadratic on resident-heavy platforms.
    platform_cookies = {
        name: {rule.cookie for rule in platform.flow_table.rules}
        for name, platform in platforms.items()
    }
    for module_id, record in sorted(deployed.items()):
        cookies = platform_cookies.get(record.platform)
        if cookies is None:
            continue
        if module_id not in cookies:
            problems.append(
                "platform %r has no steering rule for module %r"
                % (record.platform, module_id)
            )

    # 3. Client-owned addresses cover every deployed module.
    for module_id, record in sorted(deployed.items()):
        owned = controller.client_addresses.get(record.client_id, set())
        if record.address not in owned:
            problems.append(
                "module %r address not in client %r's authorization set"
                % (module_id, record.client_id)
            )

    # 4. Address-pool leak accounting.
    for name, platform in sorted(platforms.items()):
        outstanding = platform.outstanding_addresses()
        if outstanding != len(platform.modules):
            problems.append(
                "platform %r leaks addresses: %d outstanding, "
                "%d modules" % (name, outstanding, len(platform.modules))
            )

    # 5. No module recorded on a failed platform.
    for module_id, record in sorted(deployed.items()):
        home = platforms.get(record.platform)
        if home is not None and not home.up:
            problems.append(
                "module %r still placed on failed platform %r"
                % (module_id, record.platform)
            )

    # 6. Ledger balance: open billing == deployed set.
    open_ids = getattr(controller.ledger, "open_module_ids", None)
    if callable(open_ids):
        billing = set(open_ids())
        running = set(deployed)
        if billing != running:
            problems.append(
                "ledger unbalanced (billing-only=%s running-only=%s)"
                % (sorted(billing - running), sorted(running - billing))
            )

    # Client-address sets may additionally contain explicitly
    # registered endpoints; anything else is a leaked assignment.
    allowed: Set[int] = set(external_addresses or ())
    allowed.update(record.address for record in deployed.values())
    for client_id, owned in sorted(controller.client_addresses.items()):
        stray = owned - allowed
        if stray:
            problems.append(
                "client %r authorization set holds unaccounted "
                "addresses %s" % (client_id, sorted(stray))
            )
    return problems


def check_switch_invariants(switch) -> List[str]:
    """Platform-switch-level invariants (the boot-storm scenario).

    After the event loop drains: no VM stuck mid-transition, no
    request parked forever in the arrival queue of a VM that is not
    being brought up.
    """
    from repro.platform.vm import VM_BOOTING, VM_RESUMING, VM_RUNNING

    problems: List[str] = []
    for client_id, vm in sorted(switch.client_vms.items()):
        if vm.state in (VM_BOOTING, VM_RESUMING):
            problems.append(
                "VM of client %r stuck in state %r"
                % (client_id, vm.state)
            )
    running = {
        vm.vm_id for vm in switch.client_vms.values()
        if vm.state == VM_RUNNING
    }
    for vm_id, queue in sorted(switch._waiting.items()):
        if queue and vm_id in running:
            problems.append(
                "packets still parked for running VM %d" % (vm_id,)
            )
    return problems


def controller_state_digest(controller) -> dict:
    """A comparable snapshot of the controller's full visible state.

    Two controllers with equal digests are indistinguishable to
    clients: same placements and addresses, same steering rules, same
    authorization sets, same routes.  Used by migration-rollback tests
    (state before == state after a failed migration) and by the
    controller-restart chaos scenario (pre-crash == journal-replayed).
    """
    placements = {
        module_id: {
            "client_id": record.client_id,
            "platform": record.platform,
            "address": record.address,
            "sandboxed": record.sandboxed,
            "requirements": tuple(
                str(r) for r in record.requirements
            ),
        }
        for module_id, record in controller.deployed.items()
    }
    platform_modules = {
        platform.name: {
            module_id: address
            for module_id, (address, _config)
            in platform.modules.items()
        }
        for platform in controller.network.platforms()
    }
    switch_cookies = {
        platform.name: tuple(sorted(
            rule.cookie for rule in platform.flow_table.rules
        ))
        for platform in controller.network.platforms()
    }
    routes = {
        router.name: tuple(sorted(router.table.routes))
        for router in controller.network.routers()
    }
    return {
        "placements": placements,
        "platform_modules": platform_modules,
        "switch_cookies": switch_cookies,
        "flow_rules": dict(controller.flow_rules),
        "client_addresses": {
            client_id: frozenset(owned)
            for client_id, owned in controller.client_addresses.items()
        },
        "routes": routes,
    }
