"""Per-layer metrics: where a request's and a packet's time goes.

Two families, merged by ``run.py`` into the one ``per_layer`` list of
``BENCHMARK.json``:

* **workload-derived** (:data:`WORKLOAD_DERIVED`) -- shares, ratios
  and per-operation counts taken from the traced pass of the workload
  itself: harness spans, ``DeploymentResult.compile_seconds`` /
  ``check_seconds`` and the public ``stats()`` counters.  A workload
  that never enters a layer reports 0 for it.
* **common probes** (:func:`common_probes`) -- each layer's public
  entry point timed on its own, on inputs generated from the seed.
  They run in every traced run, whatever the workload.

Every probe imports what it needs when it runs, and ``harness.guarded``
turns a missing name or stats key into ``null`` plus a reason.
"""

from __future__ import annotations

import itertools

from bench import harness, inputs
from bench.harness import clock, median, ratio

#: Per-layer metrics a workload derives from its own traced pass.
WORKLOAD_DERIVED = (
    "core.security.verdict_hit_ratio",
    "core.controller.request_ms",
    "core.controller.self_share",
    "core.controller.kill_us",
    "netmodel.symgraph.compile_share",
    "netmodel.forwarding.build_ms",
    "netmodel.forwarding.send_us",
    "symexec.check_share",
    "symexec.check_us_per_resident",
    "symexec.forks_per_admit",
    "symexec.prunes_per_admit",
    "symexec.cow_copies_per_admit",
    "symexec.summary_hit_ratio",
    "symexec.verdict_reuse_ratio",
    "symexec.interval_cache_hit_ratio",
    "resilience.journal.append_us",
    "resilience.journal.records_per_admit",
    "fedctl.gossip_round_us",
    "fedctl.gossip_remote_hit_share",
    "fedctl.shard_imbalance",
    "platform.provision_ms",
    "platform.modules_per_vm",
    "click.columnar.packet_share",
    "click.columnar.fallbacks",
    "harness.trace_overhead_ratio",
    "harness.span_coverage",
)

#: Per-layer metrics that are counts or ratios of counts: they repeat
#: exactly across traced runs of one seed.
EXACT = (
    "core.security.verdict_hit_ratio",
    "symexec.forks_per_admit",
    "symexec.prunes_per_admit",
    "symexec.cow_copies_per_admit",
    "symexec.summary_hit_ratio",
    "symexec.verdict_reuse_ratio",
    "symexec.interval_cache_hit_ratio",
    "resilience.journal.records_per_admit",
    "fedctl.gossip_remote_hit_share",
    "fedctl.shard_imbalance",
    "platform.modules_per_vm",
    "click.columnar.packet_share",
    "click.columnar.fallbacks",
)


#: Span name every workload gives ``Controller.request``.
REQUEST_SPAN = "core.controller.request"


def _timed(fn, *args, **kwargs) -> float:
    start = clock()
    fn(*args, **kwargs)
    return clock() - start


# -- workload-derived: anything that admits through a Controller -------------


def symexec_snapshot() -> dict:
    """Process-wide verifier counters; ``{}`` when they have moved."""
    try:
        from repro.symexec import tuning

        stats = tuning.stats()
        cache = stats["interval_cache"]
        return {
            "forks": stats["forks"],
            "prunes": stats["prunes"],
            "cow_copies": stats["cow_copies"],
            "interval_hits": cache["hits"],
            "interval_misses": cache["misses"],
        }
    except Exception:
        return {}


def controller_probes(rec, controllers, ledger, before, after):
    """Probes shared by every workload that admits tenants.

    ``before``/``after`` are :func:`symexec_snapshot` dicts taken
    around the traced pass; cache ratios are cumulative over the
    controllers' lives (set-up included -- it is part of the mix).
    """
    request = REQUEST_SPAN

    def cache_ratio(key):
        stats = [c.stats()[key] for c in controllers]
        hits = sum(s["hits"] for s in stats)
        return ratio(hits, hits + sum(s["misses"] for s in stats))

    def delta(key):
        return after[key] - before[key]

    def self_share():
        own = rec.self_seconds().get(request, 0.0)
        own -= ledger.compile_seconds + ledger.check_seconds
        return ratio(own, rec.total(request))

    def interval_ratio():
        hits = delta("interval_hits")
        return ratio(hits, hits + delta("interval_misses"))

    single = {
        "core.security.verdict_hit_ratio":
            lambda: cache_ratio("verdict_cache"),
        "core.controller.request_ms": median_probe(rec, request, 1e3),
        "core.controller.self_share": self_share,
        "netmodel.symgraph.compile_share":
            lambda: ratio(ledger.compile_seconds, rec.total(request)),
        "symexec.check_share":
            lambda: ratio(ledger.check_seconds, rec.total(request)),
        "symexec.check_us_per_resident": lambda: ratio(
            ledger.checked_seconds * 1e6, ledger.checked_residents
        ),
        "symexec.forks_per_admit":
            lambda: ratio(delta("forks"), ledger.admissions),
        "symexec.prunes_per_admit":
            lambda: ratio(delta("prunes"), ledger.admissions),
        "symexec.cow_copies_per_admit":
            lambda: ratio(delta("cow_copies"), ledger.admissions),
        "symexec.summary_hit_ratio":
            lambda: cache_ratio("symexec_summaries"),
        "symexec.verdict_reuse_ratio":
            lambda: cache_ratio("verification_cache"),
        "symexec.interval_cache_hit_ratio": interval_ratio,
    }
    return single_probes(single)


def median_probe(rec, span: str, scale: float):
    """Median duration of a span name, in ``scale`` units per second."""
    return lambda: median(rec.samples[span]) * scale


def single_probes(single):
    """``{name: fn}`` in the ``[(names, fn)]`` shape of ``guarded``."""
    return [
        ((name,), lambda name=name, fn=fn: {name: fn()})
        for name, fn in single.items()
    ]


def runtime_probes(runtimes, injected):
    """Columnar-tier counters of the workload's own ``Runtime`` objects.

    ``packet_share`` is column-plan packets per injected packet: a
    packet crossing two column-plan segments counts twice.
    """
    return single_probes({
        "click.columnar.packet_share": lambda: ratio(
            sum(rt.columnar_packets for rt in runtimes), injected
        ),
        "click.columnar.fallbacks":
            lambda: sum(rt.columnar_fallbacks for rt in runtimes),
    })


# -- common probes -----------------------------------------------------------

#: Flows of the seed's trace the dataplane probes replay (~20k packets).
PROBE_FLOWS = 2500
#: Tenants of the seed's mix the control-plane probes parse and analyze.
PROBE_TENANTS = 120


def _parse(seed):
    from repro.click import parse_config
    from repro.policy import parse_requirements

    batch = inputs.tenants(seed, PROBE_TENANTS)
    config = [_timed(parse_config, t.request.config_source) for t in batch]
    policy = [
        _timed(parse_requirements, t.request.requirements)
        for t in batch if t.request.requirements
    ]
    return {
        "click.config.parse_us": median(config) * 1e6,
        "policy.parse_us": median(policy) * 1e6,
    }


def _security(seed):
    from repro.common.addr import parse_ip
    from repro.core import CachingSecurityAnalyzer, SecurityAnalyzer
    from repro.core.security import addresses_to_whitelist

    address = parse_ip("10.1.0.1")
    cold, warm = [], []
    caching = CachingSecurityAnalyzer()
    for tenant in inputs.tenants(seed, PROBE_TENANTS):
        request = tenant.request
        config = request.parse_click_config()
        args = dict(
            module_address=address,
            whitelist=addresses_to_whitelist(request.owned_addresses),
        )
        cold.append(_timed(
            SecurityAnalyzer().analyze, config, request.role, **args
        ))
        caching.analyze(config, request.role, **args)
        warm.append(_timed(caching.analyze, config, request.role, **args))
    return {
        "core.security.analyze_cold_us": median(cold) * 1e6,
        "core.security.analyze_warm_us": median(warm) * 1e6,
    }


def _resident_controller(seed, residents, **kwargs):
    """A controller on a shard network with ``residents`` pinned-egress
    modules admitted from the seed's mix."""
    from repro.core import Controller
    from repro.fedctl import shard_network

    controller = Controller(
        shard_network(0, capacity=residents), **kwargs
    )
    pinned = (
        t for t in inputs.tenant_stream(seed)
        if t.kind in inputs.PINNED_KINDS
    )
    for tenant in itertools.islice(pinned, residents):
        result = controller.request(tenant.request)
        if not result.accepted:
            raise AssertionError(result.reason)
    return controller


def _compile(seed):
    from repro.netmodel import NetworkCompiler

    network = _resident_controller(seed, 16).network
    return {"netmodel.symgraph.compile_ms": median([
        _timed(NetworkCompiler(network).compile) for _ in range(7)
    ]) * 1e3}


def _explore(seed):
    from repro.netmodel import NetworkCompiler, linear_network
    from repro.policy import parse_requirement

    compiled = NetworkCompiler(linear_network(63)).compile()
    origin = parse_requirement("reach from internet udp -> client").origin
    return {"symexec.explore_ms": median([
        _timed(compiled.explore_from, origin.node, origin.flow)
        for _ in range(7)
    ]) * 1e3}


def hop_limit_admission():
    """The excluded input: two open-egress residents on one controller
    make the next admission with a ``reach`` requirement explore until
    the hop limit and refuse an innocent tenant.  Returns the result
    and the seconds it took."""
    from repro.core import ROLE_CLIENT, ROLE_THIRD_PARTY
    from repro.core import ClientRequest, Controller
    from repro.core.catalog import catalog_source
    from repro.fedctl import shard_network

    controller = Controller(shard_network(0, capacity=16))
    for name in ("vm0", "vm1"):
        controller.request(ClientRequest(
            client_id=name, role=ROLE_THIRD_PARTY, module_name=name,
            config_source=catalog_source("x86_vm"),
        ))
    innocent = ClientRequest(
        client_id="innocent", role=ROLE_CLIENT, module_name="fw",
        config_source=catalog_source("firewall"),
        requirements="reach from internet tcp -> fw:out:0 -> client",
        owned_addresses=(inputs.POPULAR_ADDR,),
    )
    start = clock()
    result = controller.request(innocent)
    return result, clock() - start


def _hop_limit(seed):
    _result, seconds = hop_limit_admission()
    return {"symexec.hop_limit_admit_ms": seconds * 1e3}


def _recover(seed):
    from repro.core import Controller
    from repro.fedctl import shard_network
    from repro.resilience import DeploymentJournal, controller_state_digest

    journal = DeploymentJournal()
    before = controller_state_digest(
        _resident_controller(seed, 64, journal=journal)
    )
    seconds = []
    for _ in range(5):
        start = clock()
        recovered = Controller.recover(
            shard_network(0, capacity=64), journal
        )
        seconds.append(clock() - start)
        if controller_state_digest(recovered) != before:
            raise AssertionError("recovered controller digest differs")
    return {"resilience.recover_ms": median(seconds) * 1e3}


def _route(seed):
    from repro.fedctl import ShardMap

    shard_map = ShardMap(["shard-%d" % i for i in range(4)])
    keys = ["t%06d" % i for i in range(2000)]
    start = clock()
    for key in keys:
        shard_map.route(key)
    return {"fedctl.route_us": (clock() - start) / len(keys) * 1e6}


def _trace(seed):
    start = clock()
    flows = inputs.trace_flows(seed)
    generated = clock() - start
    start = clock()
    train = inputs.packet_train(flows[:PROBE_FLOWS])
    built = clock() - start
    return {
        "sim.traces.generate_ms": generated * 1e3,
        "sim.replay.build_ns_per_pkt": built / len(train) * 1e9,
    }


def _runtime_rates(seed):
    from repro.click import Runtime, parse_config

    parsed = {
        name: parse_config(source)
        for name, source in inputs.mixed_configs().items()
    }
    builds = [
        _timed(Runtime, config)
        for config in parsed.values() for _ in range(5)
    ]

    flows = inputs.trace_flows(seed)[:PROBE_FLOWS]

    def rate(names, batch):
        groups = inputs.split_by_config(
            inputs.packet_train(flows), list(parsed)
        )
        harness.quiesce()
        packets = seconds = 0
        for name in names:
            runtime = Runtime(parsed[name])
            group = groups[name]
            start = clock()
            if batch:
                for chunk in inputs.batches(group, batch):
                    runtime.inject_batch("src", chunk)
            else:
                for packet in group:
                    runtime.inject("src", packet)
            runtime.run()
            seconds += clock() - start
            packets += len(group)
        return packets / seconds

    every = list(parsed)
    kernel = list(inputs.ALL_KERNEL_CONFIGS)
    others = [name for name in every if name not in kernel]
    return {
        "click.runtime.build_ms": median(builds) * 1e3,
        "click.runtime.scalar_pkts_per_s": rate(every, 0),
        "click.runtime.small_batch_pkts_per_s": rate(every, 4),
        "click.runtime.batch_pkts_per_s": rate(others, inputs.BATCH),
        "click.columnar.pkts_per_s": rate(kernel, inputs.BATCH),
    }


def _columns(seed):
    from repro.click import IP_DST, IP_PROTO, IP_SRC, TP_DST, TP_SRC
    from repro.click import PacketColumns

    fields = (IP_SRC, IP_DST, IP_PROTO, TP_SRC, TP_DST)
    train = inputs.packet_train(inputs.trace_flows(seed)[:PROBE_FLOWS])
    chunks = inputs.batches(train)
    start = clock()
    lifted = [PacketColumns.from_packets(chunk, fields) for chunk in chunks]
    lift = clock() - start
    for columns in lifted:
        columns.set_all(IP_DST, 1)
    start = clock()
    for columns in lifted:
        columns.to_packets()
    materialize = clock() - start
    return {
        "click.columnar.lift_ns_per_pkt": lift / len(train) * 1e9,
        "click.columnar.materialize_ns_per_pkt":
            materialize / len(train) * 1e9,
    }


def _sharding(seed):
    from repro.click import ShardedRuntime, parse_config
    from repro.sim import replay_trace_sharded

    config = parse_config(inputs.FIREWALL_ACL)
    flows = inputs.trace_flows(seed)[:PROBE_FLOWS]

    def replay_rate(sharded):
        replay_trace_sharded(
            sharded, flows, packets_per_flow=inputs.PACKETS_PER_FLOW
        )
        return median([
            replay_trace_sharded(
                sharded, flows, packets_per_flow=inputs.PACKETS_PER_FLOW
            ).packets_per_second
            for _ in range(5)
        ])

    start = clock()
    with ShardedRuntime(config, shards=2) as sharded:
        sharded.collect(full=False)
        started = clock() - start
        collects = [
            _timed(sharded.collect, full=False) for _ in range(9)
        ]
        train = inputs.packet_train(flows)
        start = clock()
        for chunk in inputs.batches(train):
            sharded.inject_batch("src", chunk)
        sharded.collect(full=False)
        ipc = len(train) / (clock() - start)
        fanned = replay_rate(sharded)
    with ShardedRuntime(config, shards=1, executor="serial") as serial:
        single = replay_rate(serial)
    return {
        "click.sharding.start_ms": started * 1e3,
        "click.sharding.collect_ms": median(collects) * 1e3,
        "click.sharding.ipc_pkts_per_s": ipc,
        "click.sharding.scaling_ratio": fanned / single,
    }


def _obs(seed):
    from repro.click import Runtime, parse_config
    from repro.obs import Observability

    config = parse_config(inputs.FIREWALL_ACL)
    flows = inputs.trace_flows(seed)[:PROBE_FLOWS]

    def dataplane(obs):
        runtime = Runtime(config, obs=obs)
        chunks = inputs.batches(inputs.packet_train(flows))
        harness.quiesce()
        start = clock()
        for chunk in chunks:
            runtime.inject_batch("src", chunk)
        return clock() - start

    def admit(obs):
        # Filling a 40-resident controller *is* the measured admissions.
        harness.quiesce()
        return _timed(_resident_controller, seed, 40, obs=obs)

    def with_over_without(measure):
        pairs = [(measure(Observability()), measure(None)) for _ in range(3)]
        return median([on / off for on, off in pairs])

    return {
        "obs.dataplane_overhead_ratio": with_over_without(dataplane),
        "obs.admit_overhead_ratio": with_over_without(admit),
    }


def common_probes(seed):
    """``[(names, fn)]`` for :func:`harness.guarded`."""
    probes = (
        (_parse, ("click.config.parse_us", "policy.parse_us")),
        (_security, ("core.security.analyze_cold_us",
                     "core.security.analyze_warm_us")),
        (_compile, ("netmodel.symgraph.compile_ms",)),
        (_explore, ("symexec.explore_ms",)),
        (_hop_limit, ("symexec.hop_limit_admit_ms",)),
        (_recover, ("resilience.recover_ms",)),
        (_route, ("fedctl.route_us",)),
        (_trace, ("sim.traces.generate_ms", "sim.replay.build_ns_per_pkt")),
        (_runtime_rates, (
            "click.runtime.build_ms",
            "click.runtime.scalar_pkts_per_s",
            "click.runtime.small_batch_pkts_per_s",
            "click.runtime.batch_pkts_per_s",
            "click.columnar.pkts_per_s",
        )),
        (_columns, ("click.columnar.lift_ns_per_pkt",
                    "click.columnar.materialize_ns_per_pkt")),
        (_sharding, (
            "click.sharding.start_ms",
            "click.sharding.collect_ms",
            "click.sharding.ipc_pkts_per_s",
            "click.sharding.scaling_ratio",
        )),
        (_obs, ("obs.dataplane_overhead_ratio",
                "obs.admit_overhead_ratio")),
    )
    return [
        (names, lambda fn=fn: fn(seed)) for fn, names in probes
    ]
