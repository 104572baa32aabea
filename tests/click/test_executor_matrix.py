"""Tier x accounting x timing matrix over the runtime's executors.

The registry-wide differential suites drive every element class
through one config shape each, obs off, injected immediately.  This
test crosses the cells they do not reach: graph shapes that end a
segment in every way the plan compiler knows (sink, partition,
unconnected port, off-chain emission, buffer, multiplying element,
cycle), each of the three entries (scalar ``inject`` loop, list batch,
column batch), observability off and on (deferred and exact
accounting), immediate and scheduled injection, and batch sizes on
both sides of ``columnar.MIN_BATCH``.  All three entries must agree on
per-sink egress counts, drops, numeric element state and -- with obs
on -- the whole metrics snapshot.
"""

from collections import Counter

import pytest

pytest.importorskip("numpy")

from repro.click import Packet, Runtime, TCP, UDP, parse_config
from repro.click import columnar
from repro.common.addr import parse_ip
from repro.obs import Observability

CONFIGS = {
    "linear-firewall": """
        src :: FromNetfront(); out :: ToNetfront();
        src -> CheckIPHeader()
            -> IPFilter(allow udp, allow tcp dst port 80)
            -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
            -> out;
    """,
    "classifier-split": """
        src :: FromNetfront(); c :: IPClassifier(udp, tcp);
        u :: ToNetfront(); t :: ToNetfront();
        src -> c; c[0] -> u; c[1] -> t;
    """,
    "unconnected-port": """
        src :: FromNetfront(); c :: IPClassifier(udp, tcp);
        u :: ToNetfront();
        src -> c; c[0] -> u;
    """,
    "off-chain-expiry": """
        src :: FromNetfront(); d :: DecIPTTL();
        out :: ToNetfront(); expired :: ToNetfront();
        src -> d -> out; d[1] -> expired;
    """,
    "queue-unqueue": """
        src :: FromNetfront(); out :: ToNetfront();
        src -> CheckIPHeader() -> Queue(1000) -> Unqueue()
            -> FlowMeter() -> out;
    """,
    "filter-tee": """
        src :: FromNetfront(); t :: Tee(2);
        a :: ToNetfront(); b :: ToNetfront();
        src -> IPFilter(allow udp) -> t; t[0] -> a; t[1] -> b;
    """,
    # d -> c -> d is a loop of single-output elements (c[0] is left
    # unconnected), so the segment from src ends by re-entering d.
    "cycle": """
        src :: FromNetfront(); d :: DecIPTTL();
        c :: IPClassifier(ip ttl 60, -);
        src -> d -> c; c[1] -> d;
    """,
}

ENTRIES = ("scalar", "batch", "columns")


def traffic(count):
    """A mixed train: two protocols, several flows, a few expired TTLs."""
    return [
        Packet(
            ip_src=parse_ip("8.8.8.8") + index % 5,
            ip_dst=parse_ip("192.0.2.10"),
            ip_proto=UDP if index % 3 else TCP,
            tp_src=1000 + index % 7,
            tp_dst=80 if index % 4 else 1500,
            ip_ttl=1 if index % 6 == 0 else 64,
            length=64 + index % 9,
        )
        for index in range(count)
    ]


def drive(source, entry, obs_on, at, count):
    obs = Observability() if obs_on else None
    runtime = Runtime(
        parse_config(source), obs=obs, use_columns=(entry == "columns")
    )
    packets = traffic(count)
    if entry == "scalar":
        for packet in packets:
            runtime.inject("src", packet, at=at)
    else:
        runtime.inject_batch("src", packets, at=at)
    if at is not None:
        assert not runtime.output
        runtime.run(until=at + 1.0)
    return (
        Counter(record.element for record in runtime.output),
        runtime.dropped,
        runtime.numeric_element_state(),
        obs.metrics.snapshot() if obs_on else None,
    )


@pytest.mark.parametrize("count", [5, 24], ids=["small", "large"])
@pytest.mark.parametrize("at", [None, 0.5], ids=["now", "scheduled"])
@pytest.mark.parametrize("obs_on", [False, True], ids=["plain", "obs"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_entry_agrees(name, obs_on, at, count):
    assert 5 < columnar.MIN_BATCH <= 24  # the sizes straddle the tier cut
    scalar, batch, columns = (
        drive(CONFIGS[name], entry, obs_on, at, count) for entry in ENTRIES
    )
    assert batch == scalar
    assert columns == scalar
    egress, dropped, _state, _snapshot = scalar
    assert sum(egress.values()) + dropped > 0  # the traffic went somewhere
