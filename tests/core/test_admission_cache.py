"""Admission fast path: fingerprints, verdict cache, incremental
compilation, route-recompute elision, and the address-leak fix."""

import pytest

from repro.click.config import parse_config
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError
from repro.core import (
    CachingSecurityAnalyzer,
    ClientRequest,
    Controller,
    ROLE_CLIENT,
    ROLE_THIRD_PARTY,
)
from repro.core.cache import LRUCache
from repro.core.security import addresses_to_whitelist
from repro.netmodel.examples import figure3_network, CLIENT_ADDR
from repro.netmodel.symgraph import NetworkCompiler
from repro.policy import parse_requirement
from repro.symexec import canonical_flow
from repro.symexec.reachability import ReachabilityChecker

BATCHER = """
    FromNetfront() ->
    IPFilter(allow udp port 1500) ->
    IPRewriter(pattern - - 172.16.15.133 - 0 0)
    -> TimedUnqueue(120, 100)
    -> dst :: ToNetfront();
"""

ALLOW_CONFIG = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> IPFilter(allow udp)
        -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> out;
"""

SANDBOX_CONFIG = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> IPDecap() -> out;
"""


def canonical_exploration(exploration):
    return (
        tuple(canonical_flow(f) for f in exploration.delivered),
        tuple(canonical_flow(f) for f in exploration.dropped),
        exploration.steps,
    )


def batcher_request(module_name, client="mobile1", requirements=None):
    return ClientRequest(
        client_id=client,
        role=ROLE_CLIENT,
        config_source=BATCHER,
        requirements=(
            "reach from internet udp -> client dst port 1500"
            if requirements is None else requirements
        ),
        owned_addresses=(CLIENT_ADDR,),
        module_name=module_name,
    )


class TestFingerprint:
    def test_instance_names_do_not_matter(self):
        a = parse_config(
            "alpha :: FromNetfront(); omega :: ToNetfront();"
            " alpha -> IPFilter(allow udp) -> omega;"
        )
        b = parse_config(
            "inn :: FromNetfront(); out :: ToNetfront();"
            " inn -> IPFilter(allow udp) -> out;"
        )
        assert a.fingerprint() == b.fingerprint()

    def test_declaration_order_does_not_matter(self):
        a = parse_config(
            "s :: FromNetfront(); d :: ToNetfront(); s -> d;"
        )
        b = parse_config(
            "d :: ToNetfront(); s :: FromNetfront(); s -> d;"
        )
        assert a.fingerprint() == b.fingerprint()

    def test_arguments_matter(self):
        a = parse_config(
            "s :: FromNetfront(); s -> IPFilter(allow udp)"
            " -> d :: ToNetfront();"
        )
        b = parse_config(
            "s :: FromNetfront(); s -> IPFilter(allow tcp)"
            " -> d :: ToNetfront();"
        )
        assert a.fingerprint() != b.fingerprint()

    def test_wiring_matters(self):
        a = parse_config("""
            src :: FromNetfront();
            m :: ToNetfront(); c :: ToNetfront();
            i :: DPI(sig);
            src -> i; i[0] -> m; i[1] -> c;
        """)
        b = parse_config("""
            src :: FromNetfront();
            m :: ToNetfront(); c :: ToNetfront();
            i :: DPI(sig);
            src -> i; i[1] -> m; i[0] -> c;
        """)
        # Same elements, outputs swapped between structurally distinct
        # sinks... which here are symmetric ToNetfronts, so allow equal;
        # a genuinely different wiring (chain vs branch) must differ:
        c = parse_config("""
            src :: FromNetfront();
            m :: ToNetfront(); c :: ToNetfront();
            i :: DPI(sig);
            src -> i; i[0] -> m;
        """)
        assert a.fingerprint() != c.fingerprint()
        assert b.fingerprint() != c.fingerprint()

    def test_same_class_distinct_positions_separate(self):
        chain = parse_config(
            "s :: FromNetfront(); s -> Counter -> Counter"
            " -> IPFilter(allow udp) -> d :: ToNetfront();"
        )
        swapped = parse_config(
            "s :: FromNetfront(); s -> Counter -> IPFilter(allow udp)"
            " -> Counter -> d :: ToNetfront();"
        )
        assert chain.fingerprint() != swapped.fingerprint()


class TestLRUCache:
    def test_eviction_and_stats(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3


class TestVerdictCache:
    def test_warm_hit_equals_cold_run(self):
        config = parse_config(ALLOW_CONFIG)
        whitelist = addresses_to_whitelist([CLIENT_ADDR])
        plain = CachingSecurityAnalyzer().analyzer
        cold = plain.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("192.0.2.10"),
            whitelist=whitelist,
        )
        caching = CachingSecurityAnalyzer()
        first = caching.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("192.0.2.10"),
            whitelist=whitelist,
        )
        warm = caching.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("192.0.2.10"),
            whitelist=whitelist,
        )
        for report in (first, warm):
            assert report.verdict == cold.verdict
            assert report.egress_flows == cold.egress_flows
            assert [str(f) for f in report.findings] == [
                str(f) for f in cold.findings
            ]
        assert caching.stats.hits >= 1

    def test_allow_prepass_covers_every_address(self):
        config = parse_config(ALLOW_CONFIG)
        whitelist = addresses_to_whitelist([CLIENT_ADDR])
        caching = CachingSecurityAnalyzer()
        r1 = caching.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("10.1.0.2"), whitelist=whitelist,
        )
        r2 = caching.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("192.0.2.77"), whitelist=whitelist,
        )
        assert r1.verdict == r2.verdict == "allow"
        # One computed analysis serves both candidate addresses.
        assert caching.stats.misses == 1
        assert caching.stats.hits == 1

    def test_non_allow_verdicts_keyed_per_address(self):
        config = parse_config(SANDBOX_CONFIG)
        caching = CachingSecurityAnalyzer()
        r1 = caching.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("10.1.0.2"),
        )
        # base pre-pass + per-address entry
        assert caching.stats.misses == 2
        r2 = caching.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("10.1.0.3"),
        )
        assert caching.stats.misses == 3   # new address -> new entry
        r3 = caching.analyze(
            config, ROLE_THIRD_PARTY,
            module_address=parse_ip("10.1.0.2"),
        )
        assert r1.verdict == r2.verdict == r3.verdict == "sandbox"
        assert caching.stats.hits >= 2     # base + address hit

    def test_role_and_whitelist_change_miss(self):
        config = parse_config(ALLOW_CONFIG)
        caching = CachingSecurityAnalyzer()
        caching.analyze(
            config, ROLE_THIRD_PARTY,
            whitelist=addresses_to_whitelist([CLIENT_ADDR]),
        )
        misses = caching.stats.misses
        caching.analyze(
            config, ROLE_CLIENT,
            whitelist=addresses_to_whitelist([CLIENT_ADDR]),
        )
        assert caching.stats.misses > misses
        misses = caching.stats.misses
        caching.analyze(
            config, ROLE_THIRD_PARTY,
            whitelist=addresses_to_whitelist(["198.51.100.9"]),
        )
        assert caching.stats.misses > misses

    def test_structural_config_change_misses(self):
        caching = CachingSecurityAnalyzer()
        caching.analyze(parse_config(ALLOW_CONFIG), ROLE_THIRD_PARTY)
        misses = caching.stats.misses
        changed = ALLOW_CONFIG.replace("allow udp", "allow tcp")
        caching.analyze(parse_config(changed), ROLE_THIRD_PARTY)
        assert caching.stats.misses > misses


class TestIncrementalCompile:
    def _reach_results(self, compiled, requirement):
        exploration = compiled.explore_from(
            requirement.origin.node, requirement.origin.flow
        )
        checker = ReachabilityChecker(compiled.resolver)
        return checker.check(requirement, exploration), exploration

    def test_trial_graft_equals_full_recompile(self):
        requirement = parse_requirement(
            "reach from internet udp"
            " -> batcher:dst:0"
        )
        config = parse_config(BATCHER)

        # Full recompile of the trial snapshot.
        net_full = figure3_network()
        platform = net_full.node("platform3")
        address = platform.allocate_address()
        platform.deploy("batcher", address, config,
                        proto=17, port=1500)
        net_full.compute_routes()
        full = NetworkCompiler(net_full).compile()
        full_result, full_exp = self._reach_results(full, requirement)

        # Incremental graft onto a pre-compiled base.
        net_inc = figure3_network()
        base = NetworkCompiler(net_inc).compile()
        nodes_before = set(base.graph.models)
        edges_before = dict(base.graph.edges)
        platform2 = net_inc.node("platform3")
        address2 = platform2.allocate_address()
        assert address2 == address
        platform2.deploy("batcher", address2, config,
                         proto=17, port=1500)
        base.splice("platform3", "batcher", address2, config)
        inc_result, inc_exp = self._reach_results(base, requirement)
        assert "batcher/dst" in base.graph.models
        base.unsplice("batcher")
        platform2.undeploy("batcher")

        assert bool(full_result) == bool(inc_result)
        assert full_result.satisfied and inc_result.satisfied
        # Same deliveries at the same sinks.
        full_sinks = sorted(
            f.trace[-1].node for f in full_exp.delivered
        )
        inc_sinks = sorted(
            f.trace[-1].node for f in inc_exp.delivered
        )
        assert full_sinks == inc_sinks
        # The graft is fully undone: the base model is untouched.
        assert set(base.graph.models) == nodes_before
        assert base.graph.edges == edges_before
        assert "batcher" not in base.modules

    def test_trial_graft_rejects_duplicate_module(self):
        net = figure3_network()
        base = NetworkCompiler(net).compile()
        config = parse_config(BATCHER)
        platform = net.node("platform3")
        address = platform.allocate_address()
        platform.deploy("m1", address, config)
        base.splice("platform3", "m1", address, config)  # fine once
        base.unsplice("m1")
        from repro.common.errors import VerificationError
        base.modules["m1"] = ("platform3", address, config)
        with pytest.raises(VerificationError):
            base.splice("platform3", "m1", address, config)


class TestRouteElision:
    def test_recompute_skipped_when_nothing_changed(self):
        net = figure3_network()
        net.compute_routes()
        table = net.node("r1").table
        net.compute_routes()
        assert net.node("r1").table is table  # elided

    def test_module_deploy_does_not_recompute(self):
        net = figure3_network()
        net.compute_routes()
        table = net.node("r1").table
        platform = net.node("platform3")
        address = platform.allocate_address()
        platform.deploy("m", address, parse_config(BATCHER))
        net.compute_routes()
        assert net.node("r1").table is table  # platform-internal only

    def test_manual_link_surgery_recomputes(self):
        net = figure3_network()
        net.compute_routes()
        table = net.node("r1").table
        # Out-of-band surgery (no unlink() call): drop platform3's link.
        p3 = net.node("platform3")
        r1 = net.node("r1")
        (port, (peer, peer_port)), = list(p3.ports.items())
        del p3.ports[port]
        del r1.ports[peer_port]
        net.links = [
            l for l in net.links if "platform3" not in (l.a, l.b)
        ]
        net.compute_routes()
        # The signature diff (not any unlink() call) forced a rebuild.
        assert net.node("r1").table is not table

    def test_force_recomputes(self):
        net = figure3_network()
        net.compute_routes()
        table = net.node("r1").table
        net.compute_routes(force=True)
        assert net.node("r1").table is not table


class TestModelCache:
    def test_compiled_model_reused_within_epoch(self):
        controller = Controller(figure3_network())
        first = controller._ensure_compiled()
        assert controller._ensure_compiled() is first

    def test_epoch_bump_invalidates(self):
        controller = Controller(figure3_network())
        first = controller._ensure_compiled()
        controller.network.bump_epoch()
        assert controller._ensure_compiled() is not first

    def test_commit_reaches_the_model(self):
        # What a commit must guarantee: the model the next request
        # verifies against contains the new resident and explores
        # exactly like a from-scratch compile of the committed state.
        controller = Controller(figure3_network())
        controller._ensure_compiled()
        result = controller.request(batcher_request("batcher"))
        assert result.accepted
        model = controller._ensure_compiled()
        assert "batcher" in model.modules
        fresh = NetworkCompiler(controller.network).compile()
        assert set(model.graph.models) == set(fresh.graph.models)
        assert model.graph.edges == fresh.graph.edges
        origin = parse_requirement(
            "reach from internet udp -> client"
        ).origin
        assert canonical_exploration(
            model.explore_from(origin.node, origin.flow)
        ) == canonical_exploration(
            fresh.explore_from(origin.node, origin.flow)
        )

    def test_kill_unsplices_the_model(self):
        controller = Controller(figure3_network())
        assert controller.request(batcher_request("batcher")).accepted
        model = controller._ensure_compiled()
        assert controller.kill("batcher")
        assert controller._ensure_compiled() is model
        assert "batcher" not in model.modules
        fresh = NetworkCompiler(controller.network).compile()
        assert model.graph.edges == fresh.graph.edges
        assert set(model.graph.models) == set(fresh.graph.models)
        assert controller.stats()["model_rebuilds"]["cold"] == 1

    def test_kill_on_a_stale_model_recompiles(self):
        # An out-of-band epoch bump made the model stale *before* the
        # kill; un-splicing must not launder it back to "current".
        controller = Controller(figure3_network())
        assert controller.request(batcher_request("batcher")).accepted
        controller.network.bump_epoch()
        assert controller.kill("batcher")
        controller._ensure_compiled()
        assert controller.stats()["model_rebuilds"]["signature"] == 1

    def test_an_exception_mid_trial_drops_the_model(self):
        controller = Controller(figure3_network())
        controller._ensure_compiled()

        def boom(*args, **kwargs):
            raise RuntimeError("mid-trial")

        controller._verify_all = boom
        with pytest.raises(RuntimeError):
            controller.request(batcher_request("batcher"))
        del controller._verify_all
        assert controller._compiled is None
        controller._ensure_compiled()
        assert controller.stats()["model_rebuilds"]["error"] == 1

    def test_explicit_invalidate(self):
        controller = Controller(figure3_network())
        first = controller._ensure_compiled()
        controller.invalidate_model_cache()
        assert controller._ensure_compiled() is not first


class TestAddressLeak:
    def test_rejected_everywhere_leaves_pools_intact(self):
        net = figure3_network()
        controller = Controller(net)
        platforms = net.platforms()
        before = {
            p.name: p.free_address_count() for p in platforms
        }
        probes = {}
        for p in platforms:
            addr = p.allocate_address()
            p.release_address(addr)
            probes[p.name] = addr
        # The module only passes UDP, so demanding TCP reach *through
        # the module* fails on every candidate platform.
        result = controller.request(batcher_request(
            "nogood",
            requirements="reach from internet tcp -> nogood:dst:0",
        ))
        assert not result.accepted
        after = {p.name: p.free_address_count() for p in platforms}
        assert after == before
        for p in platforms:
            addr = p.allocate_address()
            assert addr == probes[p.name]
            p.release_address(addr)

    def test_security_reject_releases_address(self):
        net = figure3_network()
        controller = Controller(net)
        platform = net.platforms()[0]
        before = platform.free_address_count()
        result = controller.request(ClientRequest(
            client_id="attacker",
            role=ROLE_THIRD_PARTY,
            # Source rewritten to a fixed foreign address: spoofing.
            config_source="""
                src :: FromNetfront();
                out :: ToNetfront();
                src -> IPRewriter(pattern 9.9.9.9 - - - 0 0) -> out;
            """,
            module_name="spoofer",
        ))
        assert not result.accepted
        assert "security rules violated" in result.reason
        assert all(
            p.free_address_count() == before
            for p in net.platforms()
            if p.name == platform.name
        )

    def test_dry_run_releases_address(self):
        net = figure3_network()
        controller = Controller(net)
        before = {
            p.name: p.free_address_count() for p in net.platforms()
        }
        result = controller.request(
            batcher_request("trial"), dry_run=True
        )
        assert result.accepted
        after = {
            p.name: p.free_address_count() for p in net.platforms()
        }
        assert after == before

    def test_release_address_guards(self):
        net = figure3_network()
        platform = net.node("platform3")
        address = platform.allocate_address()
        platform.deploy("m", address, parse_config(BATCHER))
        with pytest.raises(ConfigError):
            platform.release_address(address)  # still deployed
        with pytest.raises(ConfigError):
            platform.release_address(parse_ip("8.8.8.8"))  # not pool

    def test_failed_migration_releases_target_address(self):
        net = figure3_network()
        controller = Controller(net)
        result = controller.request(batcher_request("batcher"))
        assert result.accepted and result.platform == "platform3"
        target = net.node("platform1")
        before = target.free_address_count()
        # The private platforms cannot satisfy the internet-reach
        # requirement (the fw denies inbound), so migration rolls back.
        moved = controller.migrate("batcher", "platform1")
        assert not moved
        assert target.free_address_count() == before


class TestDecisionEquivalence:
    """Fast-path decisions must be byte-for-byte those of a
    from-scratch controller."""

    REQUESTS = (
        ("accept", dict(
            role=ROLE_CLIENT, config_source=BATCHER,
            requirements="reach from internet udp"
                         " -> client dst port 1500",
            owned_addresses=(CLIENT_ADDR,),
        )),
        ("sandbox", dict(
            role=ROLE_THIRD_PARTY, config_source=SANDBOX_CONFIG,
            owned_addresses=(CLIENT_ADDR,),
        )),
        ("reject", dict(
            role=ROLE_THIRD_PARTY,
            config_source="""
                src :: FromNetfront();
                out :: ToNetfront();
                src -> IPRewriter(pattern 9.9.9.9 - - - 0 0) -> out;
            """,
        )),
        ("unsatisfiable", dict(
            role=ROLE_CLIENT, config_source=BATCHER,
            requirements="reach from internet tcp -> client",
            owned_addresses=(CLIENT_ADDR,),
        )),
    )

    def test_same_decisions_as_from_scratch_controller(self):
        fast = Controller(figure3_network(), fast_path=True)
        slow = Controller(figure3_network(), fast_path=False)
        for index, (label, kwargs) in enumerate(self.REQUESTS):
            fast_result = fast.request(ClientRequest(
                client_id="c%d" % index,
                module_name="mod-%s" % label, **kwargs
            ))
            slow_result = slow.request(ClientRequest(
                client_id="c%d" % index,
                module_name="mod-%s" % label, **kwargs
            ))
            assert fast_result.accepted == slow_result.accepted, label
            assert fast_result.platform == slow_result.platform, label
            assert fast_result.address == slow_result.address, label
            assert fast_result.sandboxed == slow_result.sandboxed, label
            assert fast_result.reason == slow_result.reason, label
            fast_reach = [
                (str(r.requirement), r.satisfied, r.reason)
                for r in fast_result.reach_results
            ]
            slow_reach = [
                (str(r.requirement), r.satisfied, r.reason)
                for r in slow_result.reach_results
            ]
            assert fast_reach == slow_reach, label
            if fast_result.security or slow_result.security:
                assert str(fast_result.security) == str(
                    slow_result.security
                ), label

    def test_repeated_identical_requests_stay_equivalent(self):
        fast = Controller(figure3_network(), fast_path=True)
        slow = Controller(figure3_network(), fast_path=False)
        for index in range(3):
            kwargs = dict(self.REQUESTS[0][1])
            fast_result = fast.request(ClientRequest(
                client_id="rep%d" % index,
                module_name="rep-mod%d" % index, **kwargs
            ))
            slow_result = slow.request(ClientRequest(
                client_id="rep%d" % index,
                module_name="rep-mod%d" % index, **kwargs
            ))
            assert fast_result.accepted and slow_result.accepted
            assert fast_result.address == slow_result.address
            assert fast_result.platform == slow_result.platform
