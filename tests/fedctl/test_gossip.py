"""Tests for the gossip bus and the gossiping verdict cache."""

import pytest

from repro.common.errors import ConfigError
from repro.fedctl.gossip import GossipBus, GossipingVerdictCache


def two_members(**kwargs):
    bus = GossipBus(**kwargs)
    a = GossipingVerdictCache(bus, "a")
    b = GossipingVerdictCache(bus, "b")
    return bus, a, b


class TestRumorMongering:
    def test_local_put_reaches_peers_after_drain(self):
        bus, a, b = two_members()
        a.put("k1", "verdict-1")
        assert b.get("k1") is None          # not yet drained
        assert bus.pending("b") == 1
        assert bus.drain("b") == 1
        assert b.get("k1") == "verdict-1"
        assert bus.pending("b") == 0

    def test_rumor_is_the_same_object(self):
        # Warm remote hits are byte-for-byte the origin's decision.
        bus, a, b = two_members()
        verdict = object()
        a.put("k", verdict)
        bus.drain_all()
        assert b.get("k") is verdict

    def test_origin_does_not_receive_its_own_rumor(self):
        bus, a, b = two_members()
        a.put("k", "v")
        assert bus.pending("a") == 0

    def test_duplicate_rumors_keep_the_incumbent(self):
        bus, a, b = two_members()
        a.put("k", "from-a")
        b.put("k", "from-b")     # computed locally before draining
        assert bus.drain("b") == 0      # duplicate: incumbent kept
        assert b.get("k") == "from-b"

    def test_remote_hits_are_counted(self):
        bus, a, b = two_members()
        a.put("k", "v")
        bus.drain_all()
        assert b.remote_hits == 0
        b.get("k")
        assert b.remote_hits == 1
        a.get("k")
        assert a.remote_hits == 0       # locally computed on a

    def test_local_recompute_clears_the_remote_mark(self):
        bus, a, b = two_members()
        a.put("k", "v")
        bus.drain_all()
        b.put("k", "v2")                # b computed it itself now
        b.get("k")
        assert b.remote_hits == 0

    def test_inbox_overflow_drops_oldest(self):
        bus, a, b = two_members(inbox_limit=2)
        for i in range(4):
            a.put("k%d" % i, i)
        assert bus.pending("b") == 2
        bus.drain("b")
        assert b.get("k0") is None and b.get("k1") is None
        assert b.get("k2") == 2 and b.get("k3") == 3

    def test_duplicate_join_rejected(self):
        bus, a, b = two_members()
        with pytest.raises(ConfigError):
            GossipingVerdictCache(bus, "a")

    def test_drain_unknown_member_rejected(self):
        bus, _a, _b = two_members()
        with pytest.raises(ConfigError):
            bus.drain("ghost")

    def test_leave_stops_rumor_delivery(self):
        bus, a, b = two_members()
        bus.leave("b")
        a.put("k", "v")
        assert bus.members() == ["a"]
        with pytest.raises(ConfigError):
            bus.drain("b")


class TestRemoteKeyBookkeeping:
    def test_evicted_entries_are_forgotten(self):
        bus = GossipBus()
        a = GossipingVerdictCache(bus, "a")
        b = GossipingVerdictCache(bus, "b", capacity=4)
        for index in range(50):
            a.put("k%d" % index, index)
            bus.drain("b")
        assert len(b) == 4
        assert b._remote_keys == {"k46", "k47", "k48", "k49"}

    def test_a_local_put_can_evict_a_remote_entry(self):
        bus = GossipBus()
        a = GossipingVerdictCache(bus, "a")
        b = GossipingVerdictCache(bus, "b", capacity=1)
        a.put("remote", 1)
        bus.drain("b")
        assert b._remote_keys == {"remote"}
        b.put("local", 2)
        assert b._remote_keys == set()


class TestAntiEntropy:
    def test_reconciles_overflow_losses(self):
        bus, a, b = two_members(inbox_limit=1)
        for i in range(5):
            a.put("k%d" % i, i)
        bus.drain("b")                   # only the newest survived
        assert b.get("k0") is None
        copied = bus.anti_entropy()
        assert copied >= 4
        for i in range(5):
            assert b.get("k%d" % i) == i

    def test_late_joiner_catches_up(self):
        bus, a, b = two_members()
        a.put("k", "v")
        bus.drain_all()
        late = GossipingVerdictCache(bus, "late")
        assert late.get("k") is None
        bus.anti_entropy()
        assert late.get("k") == "v"
        assert late.remote_hits == 1

    def test_idempotent_when_converged(self):
        bus, a, b = two_members()
        a.put("k", "v")
        bus.anti_entropy()
        assert bus.anti_entropy() == 0


class TestAccounting:
    def test_overflow_drops_are_counted_per_shard(self):
        bus, a, b = two_members(inbox_limit=2)
        GossipingVerdictCache(bus, "c")
        for i in range(5):
            a.put("k%d" % i, i)
        stats = bus.stats()
        # b and c each shed 3 rumors (5 published into a 2-slot inbox).
        assert stats["dropped"] == {"b": 3, "c": 3}
        assert bus.dropped == {"b": 3, "c": 3}

    def test_drop_counts_survive_a_member_leaving(self):
        bus, a, b = two_members(inbox_limit=1)
        for i in range(3):
            a.put("k%d" % i, i)
        bus.leave("b")
        stats = bus.stats()
        assert stats["dropped"] == {"b": 2}
        assert "b" not in stats["pending"]

    def test_anti_entropy_reports_recovered_entries(self):
        bus, a, b = two_members(inbox_limit=1)
        for i in range(4):
            a.put("k%d" % i, i)
        bus.drain("b")
        recovered = bus.anti_entropy()
        assert recovered == 3
        stats = bus.stats()
        assert stats["anti_entropy_last_recovered"] == 3
        assert stats["anti_entropy_recovered"] == 3
        assert bus.anti_entropy() == 0
        assert bus.stats()["anti_entropy_last_recovered"] == 0
        assert bus.stats()["anti_entropy_recovered"] == 3

    def test_publish_apply_duplicate_totals(self):
        bus, a, b = two_members()
        a.put("k", "from-a")
        b.put("k", "from-b")
        bus.drain_all()
        stats = bus.stats()
        assert stats["published"] == 2
        # Each peer saw the other's rumor; both already held the key.
        assert stats["duplicates"] == 2
        assert stats["applied"] == 0
        assert stats["members"] == ["a", "b"]

    def test_dropped_counter_without_observability(self):
        # The per-shard drop counter must be a no-op safe metric when
        # the bus runs without obs (the default in tests).
        bus, a, b = two_members(inbox_limit=1)
        a.put("k0", 0)
        a.put("k1", 1)
        assert bus.stats()["dropped"] == {"b": 1}
