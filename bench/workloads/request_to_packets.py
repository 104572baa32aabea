"""``request_to_packets``: the whole journey, and the slow dataplane paths.

Segment 1 -- first packet.  A fresh ``Controller(figure3_network())``
admits 16 pinned-egress tenants; for each one the clock runs from
``request()`` through ``PlatformOrchestrator.provision()`` and a new
``ForwardingPlane`` to the ``Delivery`` of a probe packet at the client
subnet (``run_until`` releases what a shaper holds back).

Segments 2 and 3 -- the trace, split by flow hash over six tenant
configurations of which only two are all-kernel: non-kernel elements
force ``push_batch``, a classifier splits the column plan, a queue
needs the listener path.  Segment 2 injects 256-packet batches,
segment 3 the same packets one at a time through ``Runtime.inject``,
the path ``ForwardingPlane``, the use cases and timers all take.
Which tier runs is decided by the inputs (batch size, element mix),
never by a switch.
"""

from __future__ import annotations

from repro.click import Runtime, parse_config
from repro.common.addr import parse_ip
from repro.core import Controller
from repro.netmodel import figure3_network
from repro.netmodel.forwarding import ForwardingPlane
from repro.platform import PlatformOrchestrator

from bench import harness, layers
from bench.inputs import (
    FIRST_PACKET_MIX,
    batches,
    decision_of,
    mixed_configs,
    packet_train,
    probe_packet,
    split_by_config,
    tenant_stream,
    trace_flows,
)

NAME = "request_to_packets"
MEANING = {
    "throughput_per_s": "packets / time in inject_batch x256 + run,"
                        " six mixed configs (pkts_per_s)",
    "p50_ms": "one inject_batch call of 256 packets, mixed configs",
    "p95_ms": "one inject_batch call of 256 packets, tail",
    "alt_path_per_s": "packets / time in inject + run, one packet at a"
                      " time (scalar_pkts_per_s)",
    "cold_start_ms": "request submitted -> probe delivered"
                     " (first_packet_p50_ms)",
}
TENANTS_PER_CONTROLLER = 16
#: Flows of the trace the set-up pushes through every path once.
WARMUP_FLOWS = 1500
#: Simulated time by which every shaper has released its probe.
RELEASE_BY = 240.0

FIRST = "journey.first_packet"
PROVISION = "platform.orchestrator.provision"
PLANE = "netmodel.forwarding.build"
SEND = "netmodel.forwarding.send"
TRAIN = "sim.replay.trace_packets"
BUILD = "click.runtime.build"
INJECT_BATCH = "click.runtime.inject_batch"
INJECT = "click.runtime.inject"
RUN_BATCH = "click.runtime.run[batch]"
RUN_SCALAR = "click.runtime.run[scalar]"


def inject_each(runtime: Runtime, packets) -> None:
    inject = runtime.inject
    for packet in packets:
        inject("src", packet)


def fresh_groups(flows, names) -> dict:
    return split_by_config(packet_train(flows), names)


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.tenants = tenant_stream(seed, mix=FIRST_PACKET_MIX)
        self.flows = trace_flows(seed)
        self.configs = {
            name: parse_config(source)
            for name, source in mixed_configs().items()
        }
        self.ledger = harness.AdmissionLedger()
        self.controllers = []
        #: Traced passes only: what the per-layer probes read.
        self.reports = []
        self.runtimes = []
        #: Per pass and config: (egress, dropped), by ``inject_batch``
        #: and by ``inject``.
        self.batch_egress = []
        self.scalar_egress = []
        self.batch_packets = 0
        self.scalar_packets = 0
        self.attempted = 0
        self.problems = []

    # -- segment 1 ----------------------------------------------------------
    def first_packet(self, rec, controller, orchestrator, tenant):
        network = controller.network
        residents = len(controller.deployed)
        result = rec.timed(
            layers.REQUEST_SPAN, controller.request, tenant.request
        )
        self.ledger.note(result, residents)
        if decision_of(result) != tenant.expected:
            return result, []
        report = rec.timed(
            PROVISION, orchestrator.provision, network.node(result.platform)
        )
        if rec.tracing:
            self.reports.append(report)
        plane = rec.timed(PLANE, ForwardingPlane, network)
        delivered = rec.timed(
            SEND, plane.send, "internet",
            probe_packet(tenant, result.address),
        )
        if not delivered:
            delivered = rec.timed(SEND, plane.run_until, RELEASE_BY)
        return result, delivered

    def controller_round(self, rec: harness.Recorder) -> None:
        network = figure3_network()
        controller = Controller(network)
        orchestrator = PlatformOrchestrator(network)
        self.controllers = [controller]
        for _ in range(TENANTS_PER_CONTROLLER):
            tenant = next(self.tenants)
            rec.request = tenant.index
            result, delivered = rec.timed(
                FIRST, self.first_packet, rec, controller, orchestrator,
                tenant,
            )
            self.attempted += 1
            want = sorted(parse_ip(a) for a in tenant.probe[2])
            got = sorted(
                d.packet["ip_dst"] for d in delivered if d.node == "clients"
            )
            if got != want or len(delivered) != len(want):
                self.problems.append(
                    "tenant %d (%s): probe not delivered: %s" % (
                        tenant.index, tenant.kind,
                        result.reason or [d.path for d in delivered],
                    ))

    # -- segments 2 and 3 ---------------------------------------------------
    def trace_pass(self, rec: harness.Recorder, batch: bool,
                   flows=None) -> None:
        groups = rec.timed(
            TRAIN, fresh_groups, flows or self.flows, list(self.configs)
        )
        rec.quiesce()
        egress = {}
        for name, config in self.configs.items():
            runtime = rec.timed(BUILD, Runtime, config)
            packets = groups[name]
            if batch:
                inject_batch = runtime.inject_batch
                for chunk in batches(packets):
                    rec.timed(INJECT_BATCH, inject_batch, "src", chunk)
                rec.timed(RUN_BATCH, runtime.run)
                self.batch_packets += len(packets)
                if rec.tracing:
                    self.runtimes.append(runtime)
            else:
                rec.timed(INJECT, inject_each, runtime, packets)
                rec.timed(RUN_SCALAR, runtime.run)
                self.scalar_packets += len(packets)
            egress[name] = (len(runtime.output), runtime.dropped)
            self.attempted += len(packets)
        (self.batch_egress if batch else self.scalar_egress).append(egress)


def setup(seed: int) -> State:
    state = State(seed)
    warm = harness.Recorder()
    state.controller_round(warm)
    state.trace_pass(warm, True, state.flows[:WARMUP_FLOWS])
    state.trace_pass(warm, False, state.flows[:WARMUP_FLOWS])
    if state.problems:
        raise AssertionError(state.problems[0])
    state.batch_egress, state.scalar_egress = [], []
    state.attempted = 0
    return state


def run(state: State, rec: harness.Recorder, budget: harness.Budget) -> None:
    state.ledger = harness.AdmissionLedger()
    state.reports = []
    state.runtimes = []
    state.batch_packets = state.scalar_packets = 0
    harness.quiesce()
    journeys = budget.segment(8 / 30, ops=3)
    while journeys.more():
        state.controller_round(rec)
    batched = budget.segment(12 / 30, ops=1)
    while batched.more():
        state.trace_pass(rec, batch=True)
    scalar = budget.segment(10 / 30, ops=1)
    while scalar.more():
        state.trace_pass(rec, batch=False)


def verify(state: State) -> list:
    """Every pass over the trace, batched or packet by packet, leaves
    the same egress and drop counts per configuration."""
    problems = list(state.problems)
    passes = state.batch_egress + state.scalar_egress
    for number, egress in enumerate(passes):
        if egress != passes[0]:
            problems.append(
                "pass %d egress %r differs from pass 0 %r"
                % (number, egress, passes[0])
            )
    return problems


def end_to_end(state: State, rec: harness.Recorder) -> dict:
    samples = rec.samples
    inject = samples[INJECT_BATCH]
    return {
        "throughput_per_s": harness.ratio(
            state.batch_packets, sum(inject) + rec.total(RUN_BATCH)
        ),
        "p50_ms": harness.median(inject) * 1e3,
        "p95_ms": harness.percentile(inject, 0.95) * 1e3,
        "alt_path_per_s": harness.ratio(
            state.scalar_packets,
            rec.total(INJECT) + rec.total(RUN_SCALAR),
        ),
        "cold_start_ms": harness.median(samples[FIRST]) * 1e3,
    }


def layer_probes(state: State, rec: harness.Recorder, before, after):
    single = {
        "netmodel.forwarding.build_ms": layers.median_probe(rec, PLANE, 1e3),
        "netmodel.forwarding.send_us": layers.median_probe(rec, SEND, 1e6),
        "platform.provision_ms": layers.median_probe(rec, PROVISION, 1e3),
        "platform.modules_per_vm": lambda: harness.ratio(
            sum(r.modules for r in state.reports),
            sum(r.vms for r in state.reports),
        ),
    }
    return (
        layers.controller_probes(
            rec, state.controllers, state.ledger, before, after
        )
        + layers.runtime_probes(state.runtimes, state.batch_packets)
        + layers.single_probes(single)
    )
