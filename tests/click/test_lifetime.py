"""A runtime is acyclic: dropping it frees it by reference counting.

A ``Runtime`` owns its elements, executors, plans and timers, and none
of them refers back to it strongly (elements and the executors see it
through a weak proxy).  So once the last outside reference goes, the
runtime, its ``output`` records and their packets are freed at once,
without waiting for the cyclic collector.

Every case runs with the collector off and ``gc.DEBUG_SAVEALL`` on:
after the runtime is dropped a weakref to it must be dead, and
``gc.collect()`` must find no garbage at all -- not only no runtime,
no cycle anywhere in what the case built.
"""

import gc
import weakref

import pytest

pytest.importorskip("numpy")

from repro.click import UDP, Packet, Runtime, parse_config
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError
from repro.core import ROLE_CLIENT, ClientRequest, Controller
from repro.netmodel import figure3_network
from repro.netmodel.forwarding import ForwardingPlane
from repro.obs import Observability
from repro.obs.export import parse_prometheus

from bench.inputs import batches, mixed_configs, packet_train, \
    split_by_config, trace_flows
from tests.click.test_executor_matrix import CONFIGS, traffic
from tests.conftest import FIGURE4_SOURCE


def assert_acyclic(case, *args):
    """Run ``case(*args)`` -- it builds, drives and drops a runtime and
    returns a weakref to it -- with the collector off; the runtime must
    be dead on return and a collection must find nothing."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ref = case(*args)
        dead = ref() is None
        found = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert dead, "runtime outlived its last reference"
    assert found == 0, "%d cyclic garbage objects: %s" % (found, kinds)


# -- the executor matrix's shapes -------------------------------------------

def matrix_case(source, obs_on, scheduled):
    obs = Observability() if obs_on else None
    runtime = Runtime(parse_config(source), obs=obs)
    at = 0.5 if scheduled else None
    for packet in traffic(5):
        runtime.inject("src", packet, at=at)
    runtime.inject_batch("src", traffic(24), at=at)
    runtime.run(until=1.0)
    assert runtime.output or runtime.dropped
    if obs_on:
        obs.metrics.snapshot()
    return weakref.ref(runtime)


@pytest.mark.parametrize("scheduled", [False, True], ids=["now", "at"])
@pytest.mark.parametrize("obs_on", [False, True], ids=["plain", "obs"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matrix_shape_frees_by_refcount(name, obs_on, scheduled):
    assert_acyclic(matrix_case, CONFIGS[name], obs_on, scheduled)


# -- the request_to_packets configurations ----------------------------------

MIXED = mixed_configs()


@pytest.fixture(scope="module")
def mixed_train():
    flows = trace_flows(1)[:300]
    return lambda: split_by_config(packet_train(flows), list(MIXED))


def mixed_case(source, packets, batch):
    runtime = Runtime(parse_config(source))
    if batch:
        for chunk in batches(packets):
            runtime.inject_batch("src", chunk)
    else:
        for packet in packets:
            runtime.inject("src", packet)
    runtime.run()
    assert runtime.output or runtime.dropped
    return weakref.ref(runtime)


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize("name", sorted(MIXED))
def test_mixed_config_frees_its_egress_train(name, batch, mixed_train):
    packets = mixed_train()[name]
    assert packets
    assert_acyclic(mixed_case, MIXED[name], packets, batch)


# -- buffers and pending timers ---------------------------------------------

def test_queue_unqueue_chain():
    def case():
        runtime = Runtime(parse_config("""
            src :: FromNetfront(); out :: ToNetfront();
            src -> Queue(8) -> Unqueue() -> Queue(4) -> Unqueue() -> out;
        """))
        for packet in traffic(5):
            runtime.inject("src", packet)
        runtime.inject_batch("src", traffic(24))
        assert len(runtime.output) == 29
        return weakref.ref(runtime)
    assert_acyclic(case)


def test_timed_unqueue_with_tick_pending():
    def case():
        runtime = Runtime(parse_config("""
            src :: FromNetfront(); out :: ToNetfront();
            src -> TimedUnqueue(1, 5) -> out;
        """))
        runtime.inject_batch("src", traffic(24))
        runtime.run(until=2.5)
        assert len(runtime.output) == 10
        assert runtime.pending_timers() == 1  # the next tick
        return weakref.ref(runtime)
    assert_acyclic(case)


def test_pending_deferred_injections():
    def case():
        runtime = Runtime(parse_config(
            "src :: FromNetfront(); out :: ToNetfront(); src -> out;"
        ))
        runtime.inject("src", Packet(), at=3.0)
        runtime.inject_batch("src", traffic(24), at=4.0)
        assert runtime.pending_timers() == 2
        return weakref.ref(runtime)
    assert_acyclic(case)


# -- a forwarding plane -----------------------------------------------------

def test_forwarding_plane_after_one_admission():
    network = figure3_network()
    result = Controller(network).request(ClientRequest(
        client_id="mobile1",
        role=ROLE_CLIENT,
        config_source=FIGURE4_SOURCE,
        requirements=(
            "reach from internet udp -> batcher:dst:0 dst 172.16.15.133"
            " -> client dst port 1500"
        ),
        owned_addresses=("172.16.15.133",),
        module_name="batcher",
    ))
    assert result.platform == "platform3"

    def case():
        plane = ForwardingPlane(network)
        runtime = plane.module_runtime("batcher")
        assert plane.send("internet", Packet(
            ip_src=parse_ip("8.8.8.8"), ip_dst=parse_ip(result.address),
            ip_proto=UDP, tp_dst=1500,
        )) == []
        (delivery,) = plane.run_until(120.0)
        assert delivery.node == "clients"
        return weakref.ref(runtime)
    assert_acyclic(case)


# -- an element or a registry that outlives its runtime ---------------------

def test_element_of_a_dropped_runtime_raises_config_error():
    runtime = Runtime(parse_config("""
        src :: FromNetfront(); q :: Queue(); out :: ToNetfront();
        src -> q -> Unqueue() -> out;
    """))
    element = runtime.element("q")
    del runtime
    with pytest.raises(ConfigError, match="emitted outside a runtime"):
        element.emit(0, Packet())
    with pytest.raises(ConfigError, match="scheduled outside a runtime"):
        element.schedule(1.0, lambda: None)


def test_registry_outlives_its_runtime():
    obs = Observability()
    runtime = Runtime(parse_config("""
        src :: FromNetfront(); out :: ToNetfront();
        src -> Queue(16) -> out;
    """), obs=obs)
    runtime.inject_batch("src", traffic(24))
    ref = weakref.ref(runtime)
    del runtime
    assert ref() is None
    snapshot = obs.metrics.snapshot()
    assert snapshot
    text = obs.to_prometheus()
    families = parse_prometheus(text)
    assert families["dataplane_queue_depth"]
    assert max(families["dataplane_queue_depth"].values()) == 16
