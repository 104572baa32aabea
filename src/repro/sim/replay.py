"""Trace replay: drive a Click runtime with the synthetic backbone trace.

Bridges :mod:`repro.sim.traces` (Section 6's MAWI-like workload) and the
concrete dataplane: each :class:`~repro.sim.traces.Flow` becomes a small
train of packets cloned from one template via
:meth:`~repro.click.packet.Packet.copy_many`, and the whole trace is
pushed through a :class:`~repro.click.runtime.Runtime` either packet by
packet (``mode="scalar"``) or through the segment-compiled batch path
(``mode="batch"``, the default).  Both modes inject the same packets in
the same flow-major order, so their egress and drop totals are directly
comparable -- the batch mode exists to make trace-scale experiments
affordable (see ``docs/dataplane.md``).
"""

from __future__ import annotations

import time
from typing import Iterable, List, NamedTuple, Optional, Sequence

from repro.click.packet import TCP, Packet
from repro.click.runtime import Runtime
from repro.click.sharding import ShardedRuntime
from repro.common.errors import SimulationError
from repro.sim.traces import Flow

#: Client index -> IP mapping base (10.0.0.0/8).
CLIENT_BASE = 10 << 24
#: Server index -> IP mapping base (172.16.0.0/12).
SERVER_BASE = (172 << 24) | (16 << 16)


class ReplayStats(NamedTuple):
    """Outcome of one trace replay run."""

    mode: str
    flows: int
    packets: int
    egress: int
    dropped: int
    wall_seconds: float

    @property
    def packets_per_second(self) -> float:
        """Injection throughput of the replay (wall-clock packets/s)."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.packets / self.wall_seconds


def flow_packets(
    flow: Flow, packets_per_flow: int, length: int = 64
) -> List[Packet]:
    """The packet train for one trace flow.

    One template is built per flow and cloned with ``copy_many``, so
    replaying a large trace does not rebuild the default field dict per
    packet.
    """
    template = Packet(
        length=length,
        ip_src=CLIENT_BASE + flow.client,
        ip_dst=SERVER_BASE + flow.server,
        ip_proto=TCP,
        tp_src=flow.sport,
        tp_dst=flow.dport,
    )
    # Prime the flow-hash cache once; copy_many propagates it, so the
    # sharder does not rehash per clone.
    template.flow_hash()
    return template.copy_many(packets_per_flow)


def trace_packets(
    flows: Iterable[Flow], packets_per_flow: int = 4, length: int = 64
) -> List[Packet]:
    """All packets of a trace, flow-major (all of flow 1, then flow 2...)."""
    packets: List[Packet] = []
    for flow in flows:
        packets.extend(flow_packets(flow, packets_per_flow, length))
    return packets


def replay_trace(
    runtime: Runtime,
    flows: Sequence[Flow],
    entry: Optional[str] = None,
    packets_per_flow: int = 4,
    mode: str = "batch",
    batch_size: int = 256,
    length: int = 64,
) -> ReplayStats:
    """Push a trace's packets through ``runtime`` and report totals.

    ``entry`` defaults to the configuration's first source element.
    ``mode="batch"`` drives ``batch_size`` packets per
    :meth:`~repro.click.runtime.Runtime.inject_batch` call;
    ``mode="scalar"`` loops :meth:`~repro.click.runtime.Runtime.inject`.
    Egress and drop deltas are measured across the run, so the runtime
    may be reused (or pre-warmed) by the caller.
    """
    if mode not in ("batch", "scalar"):
        raise SimulationError("unknown replay mode %r" % (mode,))
    if entry is None:
        sources = runtime.config.sources()
        if not sources:
            raise SimulationError(
                "trace replay needs a source element to inject into"
            )
        entry = sources[0]
    packets = trace_packets(flows, packets_per_flow, length)
    egress_before = len(runtime.output)
    dropped_before = runtime.dropped
    start = time.perf_counter()
    if mode == "batch":
        inject_batch = runtime.inject_batch
        for index in range(0, len(packets), batch_size):
            inject_batch(entry, packets[index:index + batch_size])
    else:
        inject = runtime.inject
        for packet in packets:
            inject(entry, packet)
    wall = time.perf_counter() - start
    return ReplayStats(
        mode=mode,
        flows=len(flows),
        packets=len(packets),
        egress=len(runtime.output) - egress_before,
        dropped=runtime.dropped - dropped_before,
        wall_seconds=wall,
    )


def flow_shard(flow: Flow, shards: int, length: int = 64) -> int:
    """The shard a trace flow's packets map to.

    Uses the exact key the dataplane sharder uses -- the template
    packet's :meth:`~repro.click.packet.Packet.flow_hash` modulo the
    shard count -- so a caller-partitioned replay agrees packet for
    packet with :meth:`~repro.click.sharding.ShardedRuntime.
    inject_batch`'s own partitioning.
    """
    return flow_packets(flow, 1, length)[0].flow_hash() % shards


def shard_flows(
    flows: Sequence[Flow], shards: int, length: int = 64
) -> List[List[Flow]]:
    """Partition a trace's flows across ``shards`` by flow hash.

    The hash is computed once per *flow* (not per packet), which is
    what keeps the parent-side cost of a sharded replay independent of
    ``packets_per_flow``.  Within each shard the flows keep their trace
    order, so per-flow packet order is preserved end to end.
    """
    groups: List[List[Flow]] = [[] for _ in range(shards)]
    for flow in flows:
        groups[flow_shard(flow, shards, length)].append(flow)
    return groups


def _generate_flow_packets(
    flows: Sequence[Flow], packets_per_flow: int, length: int
) -> List[Packet]:
    """Shard-side packet factory for :func:`replay_trace_sharded`.

    Module-level so the process executor can ship it by reference; it
    runs *inside* the shard worker, which is the point -- the packet
    trains never cross the parent/worker boundary.
    """
    packets: List[Packet] = []
    for flow in flows:
        packets.extend(flow_packets(flow, packets_per_flow, length))
    return packets


def replay_trace_sharded(
    sharded: ShardedRuntime,
    flows: Sequence[Flow],
    entry: Optional[str] = None,
    packets_per_flow: int = 4,
    batch_size: int = 256,
    length: int = 64,
    full: bool = False,
) -> ReplayStats:
    """Replay a trace through a :class:`ShardedRuntime`, and collect.

    The parent partitions *flows* (not packets) by flow hash via
    :func:`shard_flows`, then each shard worker generates and injects
    its own packet train (:meth:`~repro.click.sharding.ShardedRuntime.
    inject_generated`), flow-major within the shard.  Nothing
    per-packet crosses the process boundary; with ``full=False`` (the
    default) even the egress records stay worker-side and only counts
    come back, which is what lets throughput scale with worker cores.
    Pass ``full=True`` to also retrieve the egress records (they land
    in ``sharded.output``), e.g. for differential runs.

    The reported wall time spans injection *and* the collect barrier,
    so ``packets_per_second`` measures completed work, not dispatch.
    """
    if entry is None:
        sources = sharded.config.sources()
        if not sources:
            raise SimulationError(
                "trace replay needs a source element to inject into"
            )
        entry = sources[0]
    groups = shard_flows(flows, sharded.shards, length)
    total_packets = len(flows) * packets_per_flow
    start = time.perf_counter()
    sharded.inject_generated(
        entry,
        _generate_flow_packets,
        [(group, packets_per_flow, length) for group in groups],
        batch_size=batch_size,
    )
    collection = sharded.collect(full=full)
    wall = time.perf_counter() - start
    return ReplayStats(
        mode="sharded",
        flows=len(flows),
        packets=total_packets,
        egress=collection.egress_count,
        dropped=collection.dropped,
        wall_seconds=wall,
    )
