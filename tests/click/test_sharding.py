"""Tests for the flow-hash sharded dataplane (repro.click.sharding)."""

import pytest

from repro.click import (
    Packet,
    Runtime,
    ShardedRuntime,
    parse_config,
    shard_unsafe_reason,
)
from repro.click.packet import TCP, UDP
from repro.common.errors import ConfigError, ShardingError
from repro.obs import MetricsRegistry, Observability

FORWARDER = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> Counter() -> out;
"""

FIREWALL = """
    src :: FromNetfront();
    fw  :: IPFilter(allow tcp);
    out :: ToNetfront();
    src -> fw -> out;
"""

EXECUTORS = ("serial", "process")


def flow_packet(flow, seq=0, proto=TCP):
    return Packet(
        ip_src=(10 << 24) | flow, ip_dst=(172 << 24) | 5, ip_proto=proto,
        tp_src=40000 + flow, tp_dst=80, seq=seq,
    )


def traffic(flows=16, per_flow=4, proto=TCP):
    """Flow-interleaved traffic: flow 0, 1, ..., n-1, 0, 1, ..."""
    return [
        flow_packet(flow, seq, proto)
        for seq in range(per_flow)
        for flow in range(flows)
    ]


class TestShardUnsafeReason:
    def test_stateless_pipeline_is_shardable(self):
        assert shard_unsafe_reason(parse_config(FORWARDER)) is None

    def test_flow_keyed_state_is_shardable(self):
        config = parse_config("""
            src :: FromNetfront();
            fw :: StatefulFirewall();
            out :: ToNetfront();
            back :: FromNetfront();
            src -> fw -> out;
            back -> [1] fw;
            fw[1] -> Discard();
        """)
        assert shard_unsafe_reason(config) is None

    def test_buffering_element(self):
        config = parse_config(
            "src :: FromNetfront(); q :: Queue(10); src -> q;"
        )
        reason = shard_unsafe_reason(config)
        assert "q :: Queue" in reason
        assert "buffers" in reason

    def test_multiplying_element(self):
        config = parse_config("""
            src :: FromNetfront(); t :: Tee(2);
            src -> t; t[0] -> Discard(); t[1] -> Discard();
        """)
        reason = shard_unsafe_reason(config)
        assert "t :: Tee" in reason
        assert "multiplies" in reason

    def test_cross_flow_order_dependent_element(self):
        config = parse_config("""
            src :: FromNetfront(); rr :: RoundRobinSwitch(2);
            src -> rr; rr[0] -> Discard(); rr[1] -> Discard();
        """)
        assert "round-robin" in shard_unsafe_reason(config)

    def test_aggregate_rate_limiter(self):
        config = parse_config(
            "src :: FromNetfront(); src -> RateLimiter(100) -> Discard();"
        )
        assert "token bucket" in shard_unsafe_reason(config)

    def test_allocating_rewriter_is_unsafe(self):
        config = parse_config("""
            src :: FromNetfront();
            rw :: IPRewriter(pattern 1.2.3.4 1024-65535 - - 0 0);
            out :: ToNetfront();
            src -> rw -> out;
        """)
        assert "allocates ports" in shard_unsafe_reason(config)

    def test_static_rewriter_is_shardable(self):
        config = parse_config("""
            src :: FromNetfront();
            rw :: IPRewriter(pattern - - 172.16.15.133 - 0 0);
            out :: ToNetfront();
            src -> rw -> out;
        """)
        assert shard_unsafe_reason(config) is None

    def test_join_is_unsafe(self):
        config = parse_config("""
            a :: FromNetfront(); b :: FromNetfront();
            c :: Counter(); out :: ToNetfront();
            a -> c; b -> c; c -> out;
        """)
        reason = shard_unsafe_reason(config)
        assert "joins" in reason and "c" in reason

    def test_distinct_input_ports_are_not_a_join(self):
        config = parse_config("""
            a :: FromNetfront(); b :: FromNetfront();
            fw :: StatefulFirewall(); out :: ToNetfront();
            a -> fw; b -> [1] fw; fw -> out; fw[1] -> Discard();
        """)
        assert shard_unsafe_reason(config) is None


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigError, match="at least one shard"):
            ShardedRuntime(parse_config(FORWARDER), shards=0)

    @pytest.mark.parametrize("executor", ["gpu", "thread"])
    def test_rejects_unknown_executor(self, executor):
        with pytest.raises(ConfigError, match="unknown shard executor"):
            ShardedRuntime(parse_config(FORWARDER), executor=executor)

    def test_fallback_collapses_to_one_serial_shard(self):
        config = parse_config("""
            src :: FromNetfront(); t :: Tee(2);
            src -> t; t[0] -> Discard(); t[1] -> Discard();
        """)
        with ShardedRuntime(config, shards=4) as sharded:
            assert sharded.fallback_reason is not None
            assert sharded.shards == 1
            assert sharded.executor == "serial"
            assert sharded.requested_shards == 4

    def test_fallback_false_raises(self):
        config = parse_config(
            "src :: FromNetfront(); q :: Queue(); src -> q;"
        )
        with pytest.raises(ShardingError, match="buffers"):
            ShardedRuntime(config, shards=2, fallback=False)

    def test_fallback_is_logged(self, caplog):
        config = parse_config(
            "src :: FromNetfront(); q :: Queue(); src -> q;"
        )
        with caplog.at_level("INFO", logger="repro.click.sharding"):
            ShardedRuntime(config, shards=2).close()
        assert any("falling back" in r.message for r in caplog.records)

    def test_single_shard_auto_is_serial(self):
        with ShardedRuntime(parse_config(FORWARDER), shards=1) as sharded:
            assert sharded.executor == "serial"


@pytest.mark.parametrize("executor", EXECUTORS)
class TestExecutors:
    def test_egress_is_permutation_of_single_process(self, executor):
        packets = traffic(flows=12, per_flow=3)
        baseline = Runtime(parse_config(FORWARDER))
        baseline.inject_batch("src", [p.copy() for p in packets])
        expected = sorted(
            (r.packet["ip_src"], r.packet["seq"])
            for r in baseline.take_output()
        )
        with ShardedRuntime(
            parse_config(FORWARDER), shards=4, executor=executor,
        ) as sharded:
            sharded.inject_batch("src", packets)
            collection = sharded.collect()
        assert sorted(
            (r.packet["ip_src"], r.packet["seq"]) for r in collection.egress
        ) == expected

    def test_per_flow_order_is_preserved(self, executor):
        packets = traffic(flows=8, per_flow=5)
        with ShardedRuntime(
            parse_config(FORWARDER), shards=4, executor=executor,
        ) as sharded:
            sharded.inject_batch("src", packets)
            collection = sharded.collect()
        seqs = {}
        for record in collection.egress:
            seqs.setdefault(record.packet["ip_src"], []).append(
                record.packet["seq"]
            )
        for flow_seqs in seqs.values():
            assert flow_seqs == sorted(flow_seqs)

    def test_unrouted_drops_are_summed(self, executor):
        # Switch(1) steers everything to an unconnected port, which is
        # what Runtime.dropped counts.
        config = parse_config("""
            src :: FromNetfront(); sw :: Switch(1);
            out :: ToNetfront(); src -> sw; sw[0] -> out;
        """)
        packets = traffic(flows=10, per_flow=2)
        with ShardedRuntime(config, shards=4, executor=executor) as sharded:
            sharded.inject_batch("src", packets)
            collection = sharded.collect()
        assert collection.egress_count == 0
        assert collection.dropped == len(packets)
        assert sharded.dropped == len(packets)

    def test_element_drops_show_in_merged_state(self, executor):
        packets = traffic(flows=10, per_flow=2, proto=UDP)  # all denied
        with ShardedRuntime(
            parse_config(FIREWALL), shards=4, executor=executor,
        ) as sharded:
            sharded.inject_batch("src", packets)
            collection = sharded.collect()
        assert collection.egress_count == 0
        denied = sum(
            state["fw"]["dropped"] for state in collection.element_state
        )
        assert denied == len(packets)

    def test_counts_only_collect(self, executor):
        packets = traffic(flows=6, per_flow=2)
        with ShardedRuntime(
            parse_config(FORWARDER), shards=2, executor=executor,
        ) as sharded:
            sharded.inject_batch("src", packets)
            collection = sharded.collect(full=False)
        assert collection.egress == []
        assert collection.egress_count == len(packets)
        assert collection.element_state is None

    def test_metrics_merge_across_shards(self, executor):
        obs = Observability(metrics=MetricsRegistry())
        packets = traffic(flows=10, per_flow=2)
        with ShardedRuntime(
            parse_config(FORWARDER), shards=4, executor=executor, obs=obs,
        ) as sharded:
            sharded.inject_batch("src", packets)
            merged = sharded.collect().metrics
        family = merged.get("dataplane_packets_total")
        counts = {
            labels[0]: child.value for labels, child in family.samples()
        }
        assert counts["src"] == len(packets)
        assert counts["out"] == len(packets)

    def test_flow_pinning_matches_flow_hash(self, executor):
        obs = Observability(metrics=MetricsRegistry())
        shards = 4
        packets = traffic(flows=9, per_flow=3)
        expected = [0] * shards
        for packet in packets:
            expected[packet.flow_hash() % shards] += 1
        with ShardedRuntime(
            parse_config(FORWARDER), shards=shards, executor=executor,
            obs=obs,
        ) as sharded:
            sharded.inject_batch("src", packets)
            sharded.collect(full=False)
        family = obs.metrics.get("dataplane_shard_packets_total")
        observed = [0] * shards
        for labels, child in family.samples():
            observed[int(labels[0])] = child.value
        assert observed == expected


class TestLifecycle:
    def test_close_is_idempotent(self):
        sharded = ShardedRuntime(parse_config(FORWARDER), shards=2,
                                 executor="process")
        sharded.close()
        sharded.close()

    def test_inject_after_close_raises(self):
        sharded = ShardedRuntime(parse_config(FORWARDER), shards=2)
        sharded.close()
        with pytest.raises(ShardingError, match="closed"):
            sharded.inject("src", flow_packet(0))
        with pytest.raises(ShardingError, match="closed"):
            sharded.collect()

    def test_inject_unknown_element_raises(self):
        with ShardedRuntime(parse_config(FORWARDER), shards=2) as sharded:
            with pytest.raises(ConfigError, match="unknown element"):
                sharded.inject_batch("nope", [flow_packet(0)])

    def test_take_output_drains(self):
        with ShardedRuntime(parse_config(FORWARDER), shards=2) as sharded:
            sharded.inject_batch("src", traffic(flows=4, per_flow=1))
            sharded.collect()
            assert len(sharded.take_output()) == 4
            assert sharded.take_output() == []

    def test_parent_obs_counts_shards_and_fallbacks(self):
        obs = Observability(metrics=MetricsRegistry())
        config = parse_config(
            "src :: FromNetfront(); q :: Queue(); src -> q;"
        )
        with ShardedRuntime(config, shards=4, obs=obs):
            pass
        assert obs.metrics.gauge("dataplane_shards").value == 1
        assert obs.metrics.counter(
            "dataplane_shard_fallbacks_total"
        ).value == 1


class TestInjectGenerated:
    @staticmethod
    def factory(flow, count):
        return [flow_packet(flow, seq) for seq in range(count)]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_workers_generate_their_own_traffic(self, executor):
        with ShardedRuntime(
            parse_config(FORWARDER), shards=2, executor=executor,
        ) as sharded:
            sharded.inject_generated(
                "src", _module_factory, [(1, 5), (2, 7)],
            )
            assert sharded.collect(full=False).egress_count == 12

    def test_args_must_match_shard_count(self):
        with ShardedRuntime(parse_config(FORWARDER), shards=2) as sharded:
            with pytest.raises(ShardingError, match="one args tuple"):
                sharded.inject_generated("src", _module_factory, [(1, 1)])

    def test_unpicklable_factory_is_a_clean_error(self):
        with ShardedRuntime(
            parse_config(FORWARDER), shards=2, executor="process",
        ) as sharded:
            with pytest.raises(ShardingError, match="module-level"):
                sharded.inject_generated(
                    "src", lambda flow, count: [], [(1, 1), (2, 1)],
                )
            # The workers never saw the bad message; they still serve.
            sharded.inject_generated(
                "src", _module_factory, [(1, 2), (2, 2)],
            )
            assert sharded.collect(full=False).egress_count == 4


def _module_factory(flow, count):
    return [flow_packet(flow, seq) for seq in range(count)]


class _PoisonPacket(Packet):
    """Pickles fine in the parent, explodes when a worker unpickles it."""

    def __reduce__(self):
        return (_explode, ())


def _explode():
    raise RuntimeError("poison packet")


class TestWorkerErrors:
    def test_worker_failure_surfaces_at_collect(self):
        with ShardedRuntime(
            parse_config(FORWARDER), shards=1, executor="process",
        ) as sharded:
            sharded._shards[0].submit(
                ("batch", "src", 0, [_PoisonPacket()])
            )
            with pytest.raises(ShardingError, match="poison packet"):
                sharded.collect()
            # The worker survives a poisoned message and keeps serving.
            sharded.inject_batch("src", [flow_packet(0)])
            assert sharded.collect(full=False).egress_count == 1


class TestWorkerDeath:
    """A killed worker must surface on the next inject, not only at
    collect, and the error must say which shard, which executor, and
    how many batches it took down with it."""

    @staticmethod
    def _kill(sharded, shard):
        process = sharded._shards[shard]._process
        process.terminate()
        process.join(timeout=5.0)

    def test_inject_detects_a_dead_worker_eagerly(self):
        with ShardedRuntime(
            parse_config(FORWARDER), shards=2, executor="process",
        ) as sharded:
            # One batch per shard is in flight when shard 0 dies.
            sharded.inject_batch("src", traffic(flows=8, per_flow=1))
            self._kill(sharded, 0)
            with pytest.raises(ShardingError) as excinfo:
                sharded.inject_batch(
                    "src", traffic(flows=8, per_flow=1)
                )
            message = str(excinfo.value)
            assert "shard 0" in message
            assert "process executor" in message
            assert "1 batch(es)" in message
            assert "unconfirmed" in message

    def test_inject_generated_sweeps_workers_too(self):
        with ShardedRuntime(
            parse_config(FORWARDER), shards=2, executor="process",
        ) as sharded:
            self._kill(sharded, 1)
            with pytest.raises(ShardingError, match="shard 1"):
                sharded.inject_generated(
                    "src", _module_factory, [(1, 1), (2, 1)],
                )

    def test_collect_confirms_earlier_batches(self):
        with ShardedRuntime(
            parse_config(FORWARDER), shards=2, executor="process",
        ) as sharded:
            # A full round trip confirms the first batch ...
            sharded.inject_batch("src", traffic(flows=8, per_flow=1))
            sharded.collect(full=False)
            # ... so only the two batches after it count as lost.
            for _ in range(2):
                sharded.inject_batch(
                    "src", traffic(flows=8, per_flow=1)
                )
            self._kill(sharded, 1)
            with pytest.raises(ShardingError) as excinfo:
                sharded.inject_batch(
                    "src", traffic(flows=8, per_flow=1)
                )
            message = str(excinfo.value)
            assert "shard 1" in message
            assert "2 batch(es)" in message

    def test_collect_names_the_dead_shard(self):
        with ShardedRuntime(
            parse_config(FORWARDER), shards=2, executor="process",
        ) as sharded:
            sharded.inject_batch("src", traffic(flows=8, per_flow=1))
            self._kill(sharded, 0)
            with pytest.raises(ShardingError) as excinfo:
                sharded.collect()
            message = str(excinfo.value)
            assert "shard 0" in message
            assert "process executor" in message
