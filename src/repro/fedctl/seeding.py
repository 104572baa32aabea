"""Bulk-seed resident modules into a federation (benchmark rigs).

Figure 10's controller-scaling experiment needs a control plane that
*already* carries 10^5 resident modules before the measured admissions
start.  Admitting them one by one through the front-end would spend
hours re-verifying a trivial config; this helper writes the steady
state those admissions would have produced -- platform deployment +
steering rule, controller bookkeeping, ledger entry, journal
intent/commit pair, shard placement -- directly, in O(N).  The
controller-side part (record, steering rule, authorization set, bill)
goes through ``Controller._install``, the step a committed admission
takes, so the two cannot drift apart.

The seeded state is *honest*: it passes the federation invariant suite
(placement bijection, address/ledger balance, journal live-state
match), the seeded client ids really route to the shard that holds
them, and every subsequent admission pays the full O(N) model-signature
+ graft + verification cost against it.
"""

from __future__ import annotations

from typing import List

from repro.common.addr import prefix_range
from repro.common.errors import DeploymentError
from repro.core.controller import _DeployedModule
from repro.click.config import parse_config
from repro.resilience.journal import OP_DEPLOY, PHASE_COMMIT, PHASE_INTENT

#: The resident workload: a minimal pass-through module, the cheapest
#: thing a platform can host (mirrors the paper's "simple forwarding"
#: baseline modules).
RESIDENT_CONFIG = "FromNetfront() -> ToNetfront();"


def tenant_ids_for_shard(plane, shard_id: str, count: int,
                         tag: str = "resident") -> List[str]:
    """``count`` client ids that the shard map routes to ``shard_id``.

    Rejection sampling over a deterministic id sequence: the ids are
    real tenants of the shard (consistent hash and all), so seeded
    state satisfies the tenant-routing invariant.
    """
    out: List[str] = []
    probe = 0
    while len(out) < count:
        candidate = "%s-%s-%d" % (tag, shard_id, probe)
        probe += 1
        if plane.shard_map.route(candidate) == shard_id:
            out.append(candidate)
    return out


def seed_residents(
    plane,
    shard_id: str,
    platform_name: str,
    count: int,
    config_source: str = RESIDENT_CONFIG,
    proto: int = 17,
    port: int = 1500,
    journal: bool = True,
) -> List[str]:
    """Install ``count`` resident modules on one shard's platform.

    Returns the module ids.  Addresses are assigned arithmetically from
    the platform pool (``allocate_address`` scans outstanding state and
    would make seeding quadratic); ``adopt_address`` records each one
    in O(1), exactly as journal replay does.
    """
    shard = plane.shards[shard_id]
    segment = shard.segments[shard_id]
    network, controller = segment.network, segment.controller
    platform = network.node(platform_name)
    low, high = prefix_range(platform.pool_network, platform.pool_plen)
    if count > min(high - low - 1, platform.capacity):
        raise DeploymentError(
            "platform %r cannot hold %d residents"
            % (platform_name, count)
        )
    config = parse_config(config_source)
    tenants = tenant_ids_for_shard(
        plane, shard_id, count, tag="resident"
    )
    now = plane._clock()
    module_ids: List[str] = []
    for index in range(count):
        address = low + 1 + index
        client_id = tenants[index]
        module_id = "seed-%s-%d" % (platform_name, index)
        platform.adopt_address(address)
        platform.deploy(
            module_id, address, config, proto=proto, port=port
        )
        if journal:
            journal_fields = dict(
                module_id=module_id, client_id=client_id,
                platform=platform_name, address=address,
                sandboxed=False, proto=proto, port=port,
                timestamp=now, config=config, requirements=(),
            )
            segment.journal.append(
                OP_DEPLOY, PHASE_INTENT, **journal_fields
            )
            segment.journal.append(
                OP_DEPLOY, PHASE_COMMIT, **journal_fields
            )
        controller._install(_DeployedModule(
            module_id=module_id, client_id=client_id,
            platform=platform_name, address=address, config=config,
            sandboxed=False, requirements=[], proto=proto, port=port,
        ), now)
        segment.tenants.add(client_id)
        plane.placements[module_id] = (shard_id, shard_id)
        module_ids.append(module_id)
    # The residents are permanent state: start a new model epoch so any
    # cached compiled network picks them up.
    network.bump_epoch()
    return module_ids
