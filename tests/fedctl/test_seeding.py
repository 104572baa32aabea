"""Bulk-seeded residents are the state admissions would have left."""

import pytest

from repro.common.errors import DeploymentError
from repro.core import Controller
from repro.fedctl import (
    FederatedControlPlane,
    check_federation_invariants,
    seed_residents,
    shard_network,
)
from repro.resilience.invariants import controller_state_digest


def network(index):
    return shard_network(index, resident_capacity=20)


def seeded_plane():
    plane = FederatedControlPlane(
        shard_count=2, network_factory=network,
        clock=lambda: 5.0, gossip_every=0,
    )
    module_ids = seed_residents(plane, "shard-1", "res1", 12)
    return plane, module_ids


def test_seeded_state_passes_the_federation_invariants():
    plane, module_ids = seeded_plane()
    check_federation_invariants(plane)
    controller = plane.shards["shard-1"].home.controller
    assert sorted(controller.deployed) == sorted(module_ids)
    assert sorted(controller.ledger.modules) == sorted(module_ids)
    for module_id in module_ids:
        assert plane.placements[module_id] == ("shard-1", "shard-1")
        record = controller.deployed[module_id]
        assert plane.shard_map.route(record.client_id) == "shard-1"


def test_journal_replay_reproduces_the_seeded_controller():
    plane, _ids = seeded_plane()
    home = plane.shards["shard-1"].home
    recovered = Controller.recover(
        network(1), home.journal, clock=lambda: 5.0,
    )
    assert controller_state_digest(recovered) \
        == controller_state_digest(home.controller)


def test_overfull_platform_refused():
    plane = FederatedControlPlane(shard_count=1, network_factory=network)
    with pytest.raises(DeploymentError):
        seed_residents(plane, "shard-0", "res0", 21)
