"""Incremental re-verification: the footprint-keyed verdict cache.

The controller's :class:`~repro.symexec.summaries.VerificationCache`
claims a verdict may be reused exactly while (a) the topology signature
is unchanged, (b) every routing/flow table in the verdict's reachability
footprint still carries the version recorded at store time, and (c) no
module address moved in or out of a range the requirement references.
These tests drive each clause, plus the satellite edge cases: model
mutation mid-admission, explicit invalidation, and version-counter overflow/reset -- and what the footprint *is*: one
witness's path for a satisfied ``reach``, the whole exploration for
the universal statements.
"""

from repro.click import parse_config
from repro.core import ClientRequest, Controller, ROLE_CLIENT
from repro.netmodel.examples import star_network
from repro.netmodel.routing import RoutingTable

MODULE_CONFIG = """
    FromNetfront() ->
    IPFilter(allow udp port 1500) ->
    IPRewriter(pattern - - 172.16.15.133 - 0 0)
    -> TimedUnqueue(120, 100)
    -> dst :: ToNetfront();
"""


def policy(n):
    return "\n".join(
        "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
        % (index + 1, index)
        for index in range(n)
    )


def request(name="batcher", client="alice"):
    return ClientRequest(
        client_id=client,
        role=ROLE_CLIENT,
        config_source=MODULE_CONFIG,
        requirements="reach from client -> internet",
        owned_addresses=("172.16.15.133",),
        module_name=name,
    )


def verdicts(results):
    return [(bool(r), str(r.requirement), r.reason) for r in results]


def cache_stats(controller):
    return controller.stats()["verification_cache"]


class TestVerdictReuse:
    def test_second_snapshot_is_all_hits(self):
        controller = Controller(star_network(5), policy(5))
        first = verdicts(controller.verify_snapshot())
        before = cache_stats(controller)
        assert before["stores"] == 5
        second = verdicts(controller.verify_snapshot())
        after = cache_stats(controller)
        assert first == second
        assert after["hits"] - before["hits"] == 5

    def test_policy_edit_reverifies_only_the_new_line(self):
        controller = Controller(star_network(5), policy(4))
        controller.verify_snapshot()
        controller.set_operator_requirements(policy(5))
        before = cache_stats(controller)
        controller.verify_snapshot()
        after = cache_stats(controller)
        assert after["hits"] - before["hits"] == 4
        assert after["stores"] - before["stores"] == 1

    def test_retracted_lines_are_pruned(self):
        controller = Controller(star_network(5), policy(5))
        controller.verify_snapshot()
        assert cache_stats(controller)["entries"] == 5
        controller.set_operator_requirements(policy(2))
        assert cache_stats(controller)["entries"] == 2

    def test_admission_reuses_disjoint_operator_verdicts(self):
        # The trial graft touches one platform; operator verdicts whose
        # footprint avoids it are answered from cache.
        controller = Controller(star_network(5), policy(5))
        controller.verify_snapshot()
        before = cache_stats(controller)
        result = controller.request(request(), dry_run=True)
        assert result.accepted, result.reason
        after = cache_stats(controller)
        assert after["hits"] > before["hits"]

    def test_dry_run_admissions_never_store_trial_state(self):
        controller = Controller(star_network(3), policy(3))
        result = controller.request(request(), dry_run=True)
        assert result.accepted, result.reason
        # Whatever was cached during the trial must still validate now
        # that the trial is rolled back: a second snapshot agrees with
        # a cache-flushed one.
        warm = verdicts(controller.verify_snapshot())
        controller._verification.flush()
        assert verdicts(controller.verify_snapshot()) == warm


class TestInvalidation:
    def test_deploy_invalidates_only_the_touched_segment(self):
        controller = Controller(star_network(5), policy(5))
        controller.verify_snapshot()
        result = controller.request(request(), dry_run=False)
        assert result.accepted, result.reason
        # The deploy bumped one platform's flow-table version; verdicts
        # for the other segments hold, the touched one re-explores.
        before = cache_stats(controller)
        controller.verify_snapshot()
        after = cache_stats(controller)
        assert after["hits"] - before["hits"] >= 3
        assert after["stores"] - before["stores"] >= 1
        # Steady state: the next snapshot answers every requirement
        # (operator policy + the committed module's own) from cache.
        mid = cache_stats(controller)
        controller.verify_snapshot()
        final = cache_stats(controller)
        assert final["hits"] - mid["hits"] >= 6
        assert final["misses"] == mid["misses"]
        assert final["invalidations"] == mid["invalidations"]

    def test_flow_table_mutation_mid_admission_invalidates(self):
        # Out-of-band surgery on a platform's table (the "model
        # mutation mid-admission" edge case): the verdict tokens catch
        # it even though no epoch was bumped.
        controller = Controller(star_network(3), policy(3))
        controller.verify_snapshot()
        platform = controller.network.node("platform1")
        platform.flow_table._version += 1  # any mutation bumps this
        before = cache_stats(controller)
        controller.verify_snapshot()
        after = cache_stats(controller)
        assert after["invalidations"] - before["invalidations"] == 1
        assert after["hits"] - before["hits"] == 2

    def test_table_replacement_with_same_version_invalidates(self):
        # A rebuilt table restarts its version counter, which a bare
        # version compare would false-match; the identity half of the
        # token catches the swap (version-counter "reset" edge case).
        controller = Controller(star_network(3), policy(3))
        controller.verify_snapshot()
        router = controller.network.node("r0")
        old = router.table
        replacement = RoutingTable()
        replacement._version = old._version
        router.table = replacement
        before = cache_stats(controller)
        controller.verify_snapshot()
        after = cache_stats(controller)
        # Every footprint crosses the router, so all three invalidate.
        assert after["invalidations"] - before["invalidations"] == 3
        router.table = old

    def test_version_counter_overflow_is_harmless(self):
        # Python ints don't wrap, but a pathologically large counter
        # must neither crash nor false-match after further bumps.
        controller = Controller(star_network(3), policy(3))
        platform = controller.network.node("platform0")
        platform.flow_table._version = 2 ** 63
        controller.verify_snapshot()
        before = cache_stats(controller)
        controller.verify_snapshot()
        assert cache_stats(controller)["hits"] - before["hits"] == 3
        platform.flow_table._version += 1
        controller.verify_snapshot()
        assert cache_stats(controller)["invalidations"] == 1

    def test_address_range_sensitivity(self):
        # A requirement referencing an address range invalidates when a
        # module address appears inside that range -- even though the
        # exploration footprint never visited the module's platform.
        controller = Controller(
            star_network(3),
            "isolate from internet tcp -> 192.0.9.0/24",
        )
        controller.verify_snapshot()
        platform = controller.network.node("platform1")
        ghost = parse_config(MODULE_CONFIG)
        platform.modules["ghost"] = (0xC0000901, ghost)  # 192.0.9.1
        try:
            before = cache_stats(controller)
            controller.verify_snapshot()
            after = cache_stats(controller)
            assert after["invalidations"] - before["invalidations"] >= 1
        finally:
            platform.modules.pop("ghost", None)

    def test_invalidate_model_cache_flushes_everything(self):
        controller = Controller(star_network(3), policy(3))
        controller.verify_snapshot()
        assert cache_stats(controller)["entries"] == 3
        controller.invalidate_model_cache()
        assert cache_stats(controller)["entries"] == 0
        assert controller._summaries._tables is None


class TestStats:
    def test_stats_exposes_summary_and_verification_tiers(self):
        controller = Controller(star_network(3), policy(3))
        controller.verify_snapshot()
        stats = controller.stats()
        assert "symexec_summaries" in stats
        assert "verification_cache" in stats
        assert stats["verification_cache"]["entries"] == 3
        assert stats["symexec_summaries"]["misses"] >= 1


def internet_witness_policy():
    # One existential line with a witness that never enters a platform
    # (internet -> r0 -> clients), and three universal statements whose
    # explorations cross the same platforms.
    return "\n".join((
        "reach from internet udp -> client",
        "isolate from internet udp dst port 9 -> client dst port 10",
        "always from internet udp -> r0 -> client",
        "reach from internet udp dst port 9 -> client dst port 10",
    ))


def entry_for(controller, line):
    (entry,) = [
        entry for key, entry in controller._verification._entries.items()
        if key[1].startswith(line)
    ]
    return entry


class TestWitnessAnchoring:
    def test_kinds_of_anchor(self):
        controller = Controller(star_network(3), internet_witness_policy())
        results = controller.verify_snapshot()
        assert [bool(r) for r in results] == [True, True, True, False]
        anchors = cache_stats(controller)["anchors"]
        assert anchors == {"witness": 1, "exploration": 3, "skipped": 0}
        reach = entry_for(controller, "reach from internet udp -> client")
        assert reach.footprint == {"internet", "r0", "clients"}
        always = entry_for(controller, "always")
        assert {"platform0", "platform1", "platform2"} <= always.footprint

    def test_bump_off_the_witness_path_is_still_a_hit(self):
        # The exploration visited platform1 (the router forks a branch
        # to every pool), the witness did not: the existential verdict
        # survives, the three universal ones do not.
        controller = Controller(star_network(3), internet_witness_policy())
        first = verdicts(controller.verify_snapshot())
        controller.network.node("platform1").flow_table._version += 1
        before = cache_stats(controller)
        assert verdicts(controller.verify_snapshot()) == first
        after = cache_stats(controller)
        assert after["hits"] - before["hits"] == 1
        assert after["invalidations"] - before["invalidations"] == 3

    def test_bump_on_the_witness_path_invalidates(self):
        controller = Controller(star_network(3), internet_witness_policy())
        controller.verify_snapshot()
        controller.network.node("r0").table._version += 1
        before = cache_stats(controller)
        controller.verify_snapshot()
        after = cache_stats(controller)
        assert after["hits"] == before["hits"]
        assert after["invalidations"] - before["invalidations"] == 4

    def test_stored_result_carries_exactly_the_anchor_witness(self):
        controller = Controller(
            star_network(2), "reach from internet udp -> client"
        )
        assert controller.request(request()).accepted
        controller._verification.flush()
        (fresh,) = controller.verify_snapshot()[:1]
        # Several ways in: straight through the router, or via the
        # batcher (one flow per clause of its filter).
        assert len(fresh.witnesses) == 3
        (cached,) = controller.verify_snapshot()[:1]
        assert cache_stats(controller)["hits"] >= 1
        (anchor,) = cached.witnesses
        assert [entry.node for entry in anchor.trace] == [
            "internet", "r0", "clients",
        ]
        assert anchor is fresh.witnesses[0]
        assert bool(cached) and cached.reason == fresh.reason

    def test_anchor_through_the_next_candidate_dies_with_its_deploy(self):
        # The operator line is only satisfiable through the resident on
        # platform1.  A newcomer's first candidate (platform0) fails its
        # own requirement, but the operator verdict explored during that
        # trial is anchored through platform1 -- and the second
        # candidate's trial deploy on platform1 must invalidate it.
        controller = Controller(
            star_network(2),
            "reach from internet udp -> resident:dst:0 -> client",
        )
        assert controller.request(
            request("resident"), pinned_platform="platform1"
        ).accepted
        controller._verification.flush()
        newcomer = ClientRequest(
            client_id="bob",
            role=ROLE_CLIENT,
            config_source=MODULE_CONFIG,
            requirements=(
                "reach from internet udp -> platform1"
                " -> newcomer:dst:0 -> client"
            ),
            owned_addresses=("172.16.15.133",),
            module_name="newcomer",
        )
        before = cache_stats(controller)
        result = controller.request(newcomer)
        assert result.accepted and result.platform == "platform1"
        after = cache_stats(controller)
        assert after["anchors"]["witness"] - before["anchors"]["witness"] == 1
        assert after["invalidations"] - before["invalidations"] == 1
        assert after["anchors"]["skipped"] - before["anchors"]["skipped"] == 1
        # Nothing stale survived the commit.
        warm = verdicts(controller.verify_snapshot())
        controller._verification.flush()
        assert verdicts(controller.verify_snapshot()) == warm
