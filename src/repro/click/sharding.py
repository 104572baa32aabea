"""RSS-style flow-hash sharding: fan the dataplane out across workers.

One Python process runs one Click pipeline on one core.  Real middlebox
platforms scale past that with receive-side scaling: the NIC hashes
each packet's 5-tuple and steers every packet of a flow to the same
worker core.  :class:`ShardedRuntime` is that layer for this dataplane:

* :meth:`~repro.click.packet.Packet.flow_hash` is the shard key -- a
  stable, seed-independent, direction-symmetric 5-tuple hash, so a
  flow (and its reverse direction) always lands on the same shard,
* each shard owns a full, independent :class:`~repro.click.runtime.
  Runtime` -- its own element instances, its own segment-compiled
  batch pipeline, its own :class:`~repro.obs.metrics.MetricsRegistry`,
* egress, drops, element counters, and obs registries are merged
  deterministically (in shard-index order) at collection time.

**Execution backends.**  ``executor="process"`` runs each shard in a
``multiprocessing`` worker (fork-based where available) -- the real
multi-core path -- and ``executor="serial"`` executes shards inline in
the calling process, which is what the differential tests use:
identical partition/merge semantics, no concurrency.  ``"auto"`` picks
``process`` when fork is available and more than one shard was asked
for, ``serial`` otherwise.

**Semantics.**  Sharded egress is a *permutation* of single-process
egress: every flow's packets stay in order (same flow -> same shard ->
same in-order runtime), but packets of different flows may interleave
differently across shards.  Configurations that cannot honor that
contract -- buffering/timer elements, multiplying elements (Tee,
Multicast), joins, elements with cross-flow order-dependent state
(RoundRobinSwitch, Meter, RateLimiter, an allocating IPRewriter) --
**fall back to a single-process runtime with a logged reason** (see
:func:`shard_unsafe_reason`) rather than silently sharding; pass
``fallback=False`` to get a :class:`~repro.common.errors.ShardingError`
instead.  See ``docs/dataplane.md`` for the full contract.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.click.config import ClickConfig
from repro.click.element import create_element
from repro.click.runtime import EgressRecord, Runtime
from repro.common.errors import ConfigError, ShardingError
from repro.obs import MetricsRegistry, Observability

__all__ = [
    "ShardCollection",
    "ShardedRuntime",
    "shard_unsafe_reason",
]

log = logging.getLogger("repro.click.sharding")

#: Packets per ``inject_batch`` call when a shard worker generates its
#: own traffic (:meth:`ShardedRuntime.inject_generated`).
DEFAULT_BATCH_SIZE = 256


def shard_unsafe_reason(config: ClickConfig) -> Optional[str]:
    """Why ``config`` cannot be flow-sharded, or ``None`` if it can.

    Two levels of analysis, mirroring the obs-mode decision in the
    runtime:

    * **element level** -- every element is instantiated and asked
      :meth:`~repro.click.element.Element.shard_unsafe_reason`; any
      non-``None`` answer (buffering, multiplying, cross-flow state)
      disqualifies the configuration,
    * **graph level** -- a true join (more than one edge into the same
      input port) merges streams whose relative order sharding does
      not preserve, and forces the exact-counting obs mode that
      per-shard deferred tallies cannot reconstruct.
    """
    config.validate()
    for name, decl in config.elements.items():
        element = create_element(decl.class_name, name, decl.args)
        reason = element.shard_unsafe_reason()
        if reason is not None:
            return "element %s :: %s %s" % (name, decl.class_name, reason)
    indegree: Dict[tuple, int] = {}
    for edge in config.edges:
        key = (edge.dst, edge.dst_port)
        indegree[key] = indegree.get(key, 0) + 1
        if indegree[key] > 1:
            return "input %d of element %s joins multiple upstream edges" \
                % (edge.dst_port, edge.dst)
    return None


class ShardCollection(NamedTuple):
    """One merged collection pass over every shard."""

    #: Egress records gathered this pass (empty in count-only mode),
    #: concatenated in shard-index order.
    egress: List[EgressRecord]
    #: Number of egress records gathered this pass (also set in
    #: count-only mode, where the records themselves stay worker-side).
    egress_count: int
    #: Total packets dropped since construction, summed over shards.
    dropped: int
    #: Fresh registry holding the merged per-shard metrics (``None``
    #: when the sharded runtime runs without observability).
    metrics: Optional[MetricsRegistry]
    #: Per-shard ``Runtime.numeric_element_state()`` dicts, in shard
    #: order (``None`` in count-only mode).
    element_state: Optional[List[Dict[str, Dict[str, float]]]]


# -- shard backends ---------------------------------------------------------
#
# Every backend speaks the same message protocol:
#
#   ("batch", entry, port, packets)                  no reply
#   ("generate", fn, args, entry, port, batch_size)  no reply
#   ("collect", full)   -> (error, payload, dropped, registry, state)
#   ("close",)                                       worker exits
#
# where ``payload`` is a list of (element, packet, time) tuples when
# ``full`` else the egress record count, ``dropped`` is the worker's
# cumulative drop count, and ``registry`` the shard's MetricsRegistry.


def _execute(runtime: Runtime, message: tuple) -> None:
    """Apply one traffic message to a shard's runtime."""
    op = message[0]
    if op == "batch":
        _op, entry, port, packets = message
        runtime.inject_batch(entry, packets, port)
    elif op == "generate":
        _op, fn, args, entry, port, batch_size = message
        packets = fn(*args)
        inject_batch = runtime.inject_batch
        for index in range(0, len(packets), batch_size):
            inject_batch(entry, packets[index:index + batch_size], port)
    else:  # pragma: no cover - protocol misuse
        raise ShardingError("unknown shard message %r" % (op,))


def _collect_reply(
    runtime: Runtime,
    registry: Optional[MetricsRegistry],
    full: bool,
    error: Optional[str],
) -> tuple:
    records = runtime.take_output()
    if full:
        payload = [(r.element, r.packet, r.time) for r in records]
        state = runtime.numeric_element_state()
    else:
        payload = len(records)
        state = None
    return (error, payload, runtime.dropped, registry, state)


def _make_runtime(config, obs_enabled, start_time, use_columns=None):
    registry = MetricsRegistry(enabled=True) if obs_enabled else None
    obs = Observability(metrics=registry) if obs_enabled else None
    runtime = Runtime(
        config, start_time=start_time, obs=obs, use_columns=use_columns
    )
    return runtime, registry


def _process_worker(conn, config, obs_enabled, start_time,
                    use_columns=None) -> None:
    """Entry point of one shard worker process."""
    runtime, registry = _make_runtime(
        config, obs_enabled, start_time, use_columns
    )
    error: Optional[str] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died or closed the pipe
            break
        except Exception as exc:
            # The message arrived but could not be unpickled (e.g. a
            # non-module-level ``inject_generated`` factory).  Each
            # Pipe send is one framed message, so the stream is still
            # in sync: remember the failure and keep serving.
            error = "%s: %s" % (type(exc).__name__, exc)
            continue
        op = message[0]
        if op == "close":
            break
        try:
            if op == "collect":
                conn.send(
                    _collect_reply(runtime, registry, message[1], error)
                )
                error = None
            else:
                _execute(runtime, message)
        except Exception as exc:
            # Remember the failure; the parent raises it at the next
            # collect, keeping the pipe protocol in lockstep.
            error = "%s: %s" % (type(exc).__name__, exc)
    conn.close()


class _SerialShard:
    """Shard executed inline in the calling process."""

    def __init__(self, config, obs_enabled, start_time, use_columns=None):
        self.runtime, self.registry = _make_runtime(
            config, obs_enabled, start_time, use_columns
        )

    def submit(self, message: tuple) -> None:
        _execute(self.runtime, message)

    def collect(self, full: bool) -> tuple:
        return _collect_reply(self.runtime, self.registry, full, None)

    def is_alive(self) -> bool:
        return True

    def close(self) -> None:
        pass


class _ProcessShard:
    """Shard executed by a persistent multiprocessing worker."""

    def __init__(self, config, obs_enabled, start_time, ctx,
                 use_columns=None):
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._process = ctx.Process(
            target=_process_worker,
            args=(child_conn, config, obs_enabled, start_time,
                  use_columns),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def submit(self, message: tuple) -> None:
        try:
            self._conn.send(message)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # pickle raises AttributeError for local functions and
            # TypeError for other unpicklable payloads.
            raise ShardingError(
                "cannot ship %r to a shard worker (is the "
                "inject_generated factory a module-level callable?): %s"
                % (message[0], exc)
            ) from exc
        except (BrokenPipeError, OSError) as exc:
            raise ShardingError("shard worker died: %s" % (exc,)) from exc

    def collect(self, full: bool) -> tuple:
        try:
            self._conn.send(("collect", full))
            return self._conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError,
                OSError) as exc:
            raise ShardingError("shard worker died: %s" % (exc,)) from exc

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def close(self) -> None:
        try:
            self._conn.send(("close",))
        except (BrokenPipeError, OSError):
            pass
        self._conn.close()
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=5.0)


_EXECUTORS = ("auto", "process", "serial")


class ShardedRuntime:
    """N independent runtimes behind one flow-hash packet sharder.

    >>> from repro.click import Packet, parse_config
    >>> cfg = parse_config(
    ...     "src :: FromNetfront(); dst :: ToNetfront(); src -> dst;")
    >>> with ShardedRuntime(cfg, shards=4, executor="serial") as sharded:
    ...     sharded.inject_batch("src", [Packet(ip_src=n) for n in range(8)])
    ...     sharded.collect().egress_count
    8

    ``collect()`` pulls every shard's egress (in shard-index order),
    drops, element counters, and metrics registry, and merges them;
    between collects the shards run independently.  The merged egress
    is a permutation of what a single :class:`Runtime` would emit, with
    per-flow order preserved.
    """

    def __init__(
        self,
        config: ClickConfig,
        shards: int = 2,
        executor: str = "auto",
        obs=None,
        fallback: bool = True,
        start_time: float = 0.0,
        use_columns: Optional[bool] = None,
    ):
        if shards < 1:
            raise ConfigError("ShardedRuntime needs at least one shard")
        if executor not in _EXECUTORS:
            raise ConfigError(
                "unknown shard executor %r (expected one of %s)"
                % (executor, ", ".join(_EXECUTORS))
            )
        config.validate()
        self.config = config
        self.requested_shards = shards
        self.fallback_reason = shard_unsafe_reason(config)
        if self.fallback_reason is not None:
            if not fallback:
                raise ShardingError(self.fallback_reason)
            log.info(
                "config cannot be flow-sharded (%s); "
                "falling back to one single-process shard",
                self.fallback_reason,
            )
            shards = 1
            executor = "serial"
        elif executor == "auto":
            if shards > 1 and \
                    "fork" in multiprocessing.get_all_start_methods():
                executor = "process"
            else:
                executor = "serial"
        self.shards = shards
        self.executor = executor
        self.output: List[EgressRecord] = []
        self.dropped = 0
        self._closed = False
        #: Per shard: batches handed to the backend since its last
        #: successful collect -- work a dying worker takes with it.
        self._unconfirmed = [0] * shards
        obs_enabled = obs is not None and obs.enabled
        if executor == "process":
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._shards = [
                _ProcessShard(config, obs_enabled, start_time, ctx,
                              use_columns)
                for _ in range(shards)
            ]
        else:
            self._shards = [
                _SerialShard(config, obs_enabled, start_time, use_columns)
                for _ in range(shards)
            ]
        # Parent-side sharding metrics (the per-dataplane counters live
        # in the per-shard registries and surface via collect()).
        if obs_enabled:
            metrics = obs.metrics
            metrics.gauge(
                "dataplane_shards",
                "Worker shards behind the flow shard{,er}",
            ).set(shards)
            if self.fallback_reason is not None:
                metrics.counter(
                    "dataplane_shard_fallbacks_total",
                    "Configs that fell back to a single-process shard",
                ).inc()
            batches = metrics.counter(
                "dataplane_shard_batches_total",
                "Batches dispatched to each shard", labels=("shard",),
            )
            packets = metrics.counter(
                "dataplane_shard_packets_total",
                "Packets dispatched to each shard", labels=("shard",),
            )
            self._m_shard = [
                (batches.labels(str(i)).inc, packets.labels(str(i)).inc)
                for i in range(shards)
            ]
        else:
            self._m_shard = None

    # -- worker liveness -------------------------------------------------
    def _death_notice(self, shard: int) -> str:
        return (
            "shard %d (%s executor) worker died; %d batch(es) "
            "accepted but unconfirmed (their results were lost with "
            "the worker)"
            % (shard, self.executor, self._unconfirmed[shard])
        )

    def _check_workers(self) -> None:
        """Fail eagerly if any worker died since the last call.

        Without this, a dead worker surfaces only at the next
        :meth:`collect` -- after the caller has poured an arbitrary
        amount of traffic into a pipe nobody reads.  Every
        ``inject_*`` sweeps the backends first, so the failure names
        the dead shard while the caller still knows what it was
        sending.
        """
        for shard, backend in enumerate(self._shards):
            if not backend.is_alive():
                raise ShardingError(self._death_notice(shard))

    def _dispatch(self, shard: int, message: tuple) -> None:
        """Hand one message to a shard, translating transport failures
        into the same death notice the eager sweep raises."""
        backend = self._shards[shard]
        try:
            backend.submit(message)
        except ShardingError:
            if backend.is_alive():
                raise   # not a death (e.g. an unpicklable payload)
            raise ShardingError(self._death_notice(shard)) from None
        self._unconfirmed[shard] += 1

    # -- traffic ---------------------------------------------------------
    def inject(self, element: str, packet, port: int = 0) -> None:
        """Hand one packet to its flow's shard (convenience wrapper)."""
        self.inject_batch(element, [packet], port)

    def inject_batch(self, element: str, packets, port: int = 0) -> None:
        """Partition ``packets`` by flow hash and dispatch to shards.

        Packets whose :meth:`~repro.click.packet.Packet.flow_hash` is
        congruent modulo the shard count go to the same shard, in
        their original relative order -- per-flow order is preserved
        end to end.  The call returns once every sub-batch is handed
        to its shard backend; use :meth:`collect` to gather results.
        """
        if element not in self.config.elements:
            raise ConfigError("inject into unknown element %r" % (element,))
        if self._closed:
            raise ShardingError("inject into a closed ShardedRuntime")
        self._check_workers()
        packets = list(packets)
        if not packets:
            return
        n = self.shards
        if n == 1:
            groups = [packets]
        else:
            groups = [[] for _ in range(n)]
            for packet in packets:
                groups[packet.flow_hash() % n].append(packet)
        for shard, group in enumerate(groups):
            if not group:
                continue
            self._dispatch(shard, ("batch", element, port, group))
            if self._m_shard is not None:
                inc_batches, inc_packets = self._m_shard[shard]
                inc_batches()
                inc_packets(len(group))

    def inject_generated(
        self,
        element: str,
        factory: Callable,
        shard_args: Sequence[tuple],
        port: int = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        """Have each shard generate and inject its own packet train.

        ``factory(*shard_args[i])`` runs *inside* shard ``i`` (in the
        worker process, for the process executor) and must return that
        shard's packet list, which the worker injects in ``batch_size``
        chunks.  This is the zero-copy fan-out path for bulk workloads:
        nothing per-packet crosses the parent/worker boundary, which is
        what lets throughput scale with cores (the parent-side hash
        alone costs more than the compiled pipeline -- see
        ``docs/dataplane.md``).  The caller owns the shard assignment:
        partition work by ``flow_hash() % shards`` (as
        :func:`repro.sim.replay.replay_trace_sharded` does) to keep the
        per-flow contract.  ``factory`` must be a module-level callable
        so the process executor can ship it by reference.
        """
        if element not in self.config.elements:
            raise ConfigError("inject into unknown element %r" % (element,))
        if self._closed:
            raise ShardingError("inject into a closed ShardedRuntime")
        if len(shard_args) != self.shards:
            raise ShardingError(
                "inject_generated needs one args tuple per shard "
                "(%d != %d)" % (len(shard_args), self.shards)
            )
        self._check_workers()
        for shard, args in enumerate(shard_args):
            self._dispatch(
                shard,
                ("generate", factory, tuple(args), element, port,
                 batch_size),
            )
            if self._m_shard is not None:
                self._m_shard[shard][0]()

    # -- collection ------------------------------------------------------
    def collect(self, full: bool = True) -> ShardCollection:
        """Gather and merge every shard's results, in shard order.

        With ``full`` (the default) the shards return their egress
        records -- appended to :attr:`output` -- plus their element
        counter state; with ``full=False`` only the egress *count*
        crosses the boundary, which keeps collection O(shards) for
        throughput runs.  Either way each shard's output buffer is
        drained, :attr:`dropped` becomes the summed cumulative drop
        count, and the per-shard metrics registries are merged into a
        fresh registry (counters/histograms sum, gauges last-write in
        shard order).
        """
        if self._closed:
            raise ShardingError("collect on a closed ShardedRuntime")
        replies = []
        for index, shard in enumerate(self._shards):
            try:
                reply = shard.collect(full)
            except ShardingError:
                if shard.is_alive():
                    raise
                raise ShardingError(self._death_notice(index)) from None
            # The worker answered: everything submitted so far is
            # accounted for, even if it answered with an error.
            self._unconfirmed[index] = 0
            replies.append(reply)
        records: List[EgressRecord] = []
        count = 0
        dropped = 0
        registries = []
        states = []
        for shard, reply in enumerate(replies):
            error, payload, shard_dropped, registry, state = reply
            if error is not None:
                raise ShardingError(
                    "shard %d worker failed: %s" % (shard, error)
                )
            if full:
                records.extend(
                    EgressRecord(element, packet, when)
                    for element, packet, when in payload
                )
                count += len(payload)
                states.append(state)
            else:
                count += payload
            dropped += shard_dropped
            if registry is not None:
                registries.append(registry)
        self.output.extend(records)
        self.dropped = dropped
        merged = None
        if registries:
            merged = MetricsRegistry(enabled=True).merge(*registries)
        return ShardCollection(
            records, count, dropped, merged, states if full else None
        )

    def take_output(self) -> List[EgressRecord]:
        """Return and clear the egress records gathered by collects."""
        records = list(self.output)
        self.output.clear()
        return records

    def merged_metrics(self) -> Optional[MetricsRegistry]:
        """Collect (count-only) and return the merged shard registry."""
        return self.collect(full=False).metrics

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut every shard backend down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
