"""``replay_firewall``: the dataplane with the columnar tier doing it all.

The MAWI-calibrated trace (one minute, ~14k flows x 8 packets) through
the five-rule ACL + NAT firewall, every element of which has a column
kernel.  Segment 1 drives one ``Runtime`` with ``inject_batch`` in
256-packet batches and times only those calls; segment 2 replays the
same flows through ``ShardedRuntime(shards=2)``, where the workers
build their own trains and the wall includes the ``collect`` barrier.
The control plane does nothing here.
"""

from __future__ import annotations

from repro.click import Runtime, ShardedRuntime, parse_config
from repro.sim import replay_trace_sharded

from bench import harness, layers
from bench.inputs import (
    BATCH,
    FIREWALL_ACL,
    PACKETS_PER_FLOW,
    batches,
    egress_multiset,
    packet_train,
    trace_flows,
)

NAME = "replay_firewall"
MEANING = {
    "throughput_per_s": "packets / time in inject_batch x256 (pkts_per_s)",
    "p50_ms": "one inject_batch call of 256 packets",
    "p95_ms": "one inject_batch call of 256 packets (batch tail)",
    "alt_path_per_s": "packets / replay_trace_sharded wall, 2 process"
                      " shards (sharded_pkts_per_s)",
    "cold_start_ms": "Runtime(config) + its first batch of 256",
}
SHARDS = 2
#: Fresh runtimes timed per set-up for ``cold_start_ms``.
COLD_STARTS = 41

TRAIN = "sim.replay.trace_packets"
INJECT = "click.runtime.inject_batch"
DRAIN = "click.runtime.take_output"
SHARDED = "sim.replay.replay_trace_sharded"


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.flows = trace_flows(seed)
        self.config = parse_config(FIREWALL_ACL)
        self.runtime = Runtime(self.config)
        self.sharded = ShardedRuntime(self.config, shards=SHARDS)
        self.packets = len(self.flows) * PACKETS_PER_FLOW
        self.cold_seconds = []
        #: (egress, dropped so far) after each single-runtime pass and
        #: each sharded pass.
        self.single_passes = []
        self.sharded_passes = []
        self.first_egress = None
        self.injected = 0
        self.attempted = 0

    def single_pass(self, rec: harness.Recorder) -> None:
        train = rec.timed(TRAIN, packet_train, self.flows)
        rec.quiesce()
        inject_batch = self.runtime.inject_batch
        for batch in batches(train):
            rec.timed(INJECT, inject_batch, "src", batch)
        records = rec.timed(DRAIN, self.runtime.take_output)
        self.single_passes.append((len(records), self.runtime.dropped))
        if self.first_egress is None:
            self.first_egress = records
        self.injected += len(train)
        self.attempted += len(train)

    def sharded_pass(self, rec: harness.Recorder) -> None:
        stats = rec.timed(
            SHARDED, replay_trace_sharded, self.sharded, self.flows,
            packets_per_flow=PACKETS_PER_FLOW, batch_size=BATCH,
        )
        self.sharded_passes.append((stats.egress, stats.dropped))
        self.attempted += stats.packets


def cold_start(config, batch) -> float:
    """Build a runtime and push its first batch (plans compile here)."""
    start = harness.clock()
    runtime = Runtime(config)
    runtime.inject_batch("src", batch)
    seconds = harness.clock() - start
    if not runtime.output:
        raise AssertionError("first batch produced no egress")
    return seconds


def setup(seed: int) -> State:
    state = State(seed)
    # Cold starts first, while the heap is still small.
    first_batches = batches(packet_train(state.flows[:COLD_STARTS * 32]))
    state.cold_seconds = [
        cold_start(state.config, batch) for batch in first_batches
    ]
    warm = harness.Recorder()
    state.single_pass(warm)
    state.sharded_pass(warm)
    state.attempted = state.injected = 0
    return state


def teardown(state: State) -> None:
    state.sharded.close()


def run(state: State, rec: harness.Recorder, budget: harness.Budget) -> None:
    single = budget.segment(2 / 3, ops=2)
    while single.more():
        state.single_pass(rec)
    rec.quiesce()
    sharded = budget.segment(1 / 3, ops=2)
    while sharded.more():
        state.sharded_pass(rec)


def verify(state: State) -> list:
    """One pass's egress equals a scalar ``inject`` reference run, every
    pass repeats it, and the shards agree with the single runtime."""
    problems = []
    reference = Runtime(state.config)
    for packet in packet_train(state.flows):
        reference.inject("src", packet)
    if egress_multiset(state.first_egress) != \
            egress_multiset(reference.output):
        problems.append("batch egress differs from the scalar reference")
    egress, dropped = len(reference.output), reference.dropped
    for kind, passes in (("single", state.single_passes),
                         ("sharded", state.sharded_passes)):
        for number, counts in enumerate(passes):
            # ``dropped`` is cumulative over a runtime's life.
            want = (egress, dropped * (number + 1))
            if counts != want:
                problems.append("%s pass %d: (egress, dropped) %r, want %r"
                                % (kind, number, counts, want))
    return problems


def end_to_end(state: State, rec: harness.Recorder) -> dict:
    inject = rec.samples[INJECT]
    passes = rec.samples[SHARDED]
    return {
        "throughput_per_s": harness.ratio(state.injected, sum(inject)),
        "p50_ms": harness.median(inject) * 1e3,
        "p95_ms": harness.percentile(inject, 0.95) * 1e3,
        "alt_path_per_s": harness.ratio(
            state.packets * len(passes), sum(passes)
        ),
        "cold_start_ms": harness.median(state.cold_seconds) * 1e3,
    }


def layer_probes(state: State, rec: harness.Recorder, before, after):
    # The runtime's counters are cumulative, so count the warm-up pass.
    return layers.runtime_probes(
        [state.runtime], state.packets * len(state.single_passes)
    )
