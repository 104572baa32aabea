"""The OR-chain branch of ``columnar.compile_interval_matcher``.

Sets of 2-7 intervals, and sets of 8 or more whose values reach past
``DENSE_TABLE_MAX_DOMAIN``, compile to ``chain_match`` instead of a
single range test or a dense lookup table.  Its column mask must equal
per-value membership, and an ``IPFilter`` whose rules compile to such
sets must give the same egress through columns as through scalar
``inject``.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.click import Runtime, TCP, UDP, parse_config
from repro.click import columnar
from repro.common.addr import parse_ip
from repro.common.intervals import IntervalSet
from test_batch_differential import _packet, egress_by_sink

#: Nine hosts, none adjacent, so each is its own interval.
HOSTS = ["192.0.2.%d" % i for i in range(1, 19, 2)]

CHAIN_SETS = {
    "2 intervals": IntervalSet([(10, 20), (30, 30)]),
    "3 intervals": IntervalSet([(0, 52), (54, 122), (124, 65535)]),
    "7 intervals": IntervalSet(
        [(low, low + 3) for low in range(100, 800, 100)]
    ),
    "9 hosts past the dense domain": IntervalSet.from_values(
        parse_ip(host) for host in HOSTS
    ),
}


def random_column(interval_set, rng, n=500):
    """Values on, next to and between the interval bounds, plus noise
    below and above the set."""
    near = [
        value + delta
        for low, high in interval_set.intervals
        for value in (low, high)
        for delta in (-1, 0, 1)
    ]
    low, high = interval_set.min(), interval_set.max()
    values = [rng.choice(near) for _ in range(n // 2)]
    values += [
        rng.randint(low - 50, high + 50) for _ in range(n - len(values))
    ]
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize("name", sorted(CHAIN_SETS))
def test_chain_mask_equals_contains(name):
    interval_set = CHAIN_SETS[name]
    matcher = columnar.compile_interval_matcher(interval_set)
    assert matcher.__name__ == "chain_match"
    rng = random.Random(name)
    for _ in range(5):
        col = random_column(interval_set, rng)
        mask = matcher(col)
        assert mask.tolist() == [int(v) in interval_set for v in col]


def test_past_dense_domain_needs_the_chain():
    interval_set = CHAIN_SETS["9 hosts past the dense domain"]
    assert len(interval_set.intervals) \
        >= columnar.DENSE_TABLE_MIN_INTERVALS
    assert interval_set.max() >= columnar.DENSE_TABLE_MAX_DOMAIN


FILTER = """
    src0 :: FromNetfront();
    f :: IPFilter(
        allow udp and not (dst port 53 or dst port 123 or dst port 161),
        allow tcp and not (%s),
        deny all);
    out0 :: ToNetfront();
    src0 -> f -> out0;
""" % " or ".join("dst host %s" % host for host in HOSTS)


def filter_traffic():
    rng = random.Random(7)
    packets = []
    for _ in range(200):
        proto = rng.choice((UDP, TCP))
        packets.append(_packet(
            ip_src="10.0.0.1",
            ip_dst=rng.choice(HOSTS + ["192.0.2.2", "192.0.2.200"]),
            ip_proto=proto,
            tp_src=4000,
            tp_dst=rng.choice((52, 53, 54, 122, 123, 124, 161, 162, 80)),
        ))
    return packets


def test_multi_port_ipfilter_columns_equal_scalar():
    scalar = Runtime(parse_config(FILTER), use_columns=False)
    for packet in filter_traffic():
        scalar.inject("src0", packet)
    columns = Runtime(parse_config(FILTER), use_columns=True)
    columns.inject_batch("src0", filter_traffic())
    assert columns.columnar_batches > 0
    assert egress_by_sink(columns) == egress_by_sink(scalar)
    assert columns.dropped == scalar.dropped
    # Both rules let some packets through and drop others.
    assert 0 < len(scalar.output) < len(filter_traffic())
