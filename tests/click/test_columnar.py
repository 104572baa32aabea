"""Property tests for the columnar batch representation.

``PacketColumns.from_packets``/``to_packets`` must round-trip any
traffic: packable int64 fields are lifted into the matrix, everything
else (missing fields, ``None``, floats, strings, out-of-int64-range
ints) lands verbatim in the side table, and materialization writes
back exactly the dirty columns for exactly the surviving rows.
"""

import pytest

pytest.importorskip("numpy")
hyp = pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.click import GRE, Packet, UDP
from repro.click import columnar
from repro.click.columnar import MISSING, PacketColumns

FIELDS = ("ip_src", "ip_dst", "ip_proto", "ip_ttl", "tp_src", "tp_dst")

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

packable_values = st.one_of(
    st.integers(min_value=I64_MIN, max_value=I64_MAX),
    st.booleans(),
)
unpackable_values = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.integers(min_value=I64_MAX + 1, max_value=I64_MAX + 2 ** 16),
    st.integers(min_value=I64_MIN - 2 ** 16, max_value=I64_MIN - 1),
)

#: Per-field cell: a packable value, an unpackable one, or absence.
cells = st.one_of(
    packable_values,
    unpackable_values,
    st.just(MISSING),
)


def build_packet(cell_values, encap):
    packet = Packet()
    for name, value in zip(FIELDS, cell_values):
        if value is MISSING:
            del packet.fields[name]
        else:
            packet.fields[name] = value
    if encap:
        # GRE-style tunnel header: ports make no sense on the outer
        # packet, so encapsulation *removes* them -- the classic way a
        # real train produces missing-field side columns.
        packet.encapsulate(ip_proto=GRE)
        packet.fields.pop("tp_src", None)
        packet.fields.pop("tp_dst", None)
    return packet


packet_strategy = st.builds(
    build_packet,
    st.tuples(*(cells for _ in FIELDS)),
    st.booleans(),
)
train_strategy = st.lists(packet_strategy, min_size=1, max_size=12)


def snapshot(packet):
    return (
        dict(packet.fields),
        dict(packet.annotations),
        [dict(layer) for layer in packet.encap_stack],
        packet.length,
        packet.uid,
    )


@given(train_strategy)
@settings(max_examples=200, deadline=None)
def test_round_trip_is_identity(train):
    """Lift + materialize with no kernel in between changes nothing."""
    before = [snapshot(p) for p in train]
    cols = PacketColumns.from_packets(train, FIELDS, need_length=True)
    out = cols.to_packets()
    assert out is train  # no dead rows: the original list comes back
    assert [snapshot(p) for p in out] == before


@given(train_strategy)
@settings(max_examples=200, deadline=None)
def test_lift_partitions_columns_exactly(train):
    """Every (row, field) cell is either in the matrix or the side
    table, matching the packet verbatim."""
    cols = PacketColumns.from_packets(train, FIELDS)
    for j, name in enumerate(FIELDS):
        if name in cols.side:
            expected = [p.fields.get(name, MISSING) for p in train]
            assert cols.side[name] == expected
            # A side column exists only because some cell is unpackable.
            assert not all(
                type(v) in (int, bool) and I64_MIN <= v <= I64_MAX
                for v in expected
            )
        else:
            for i, packet in enumerate(train):
                assert int(cols.column(name)[i]) == packet.fields[name]


@given(st.lists(
    st.tuples(*(packable_values for _ in FIELDS)),
    min_size=1, max_size=12,
))
@settings(max_examples=200, deadline=None)
def test_packable_train_has_no_side_table(rows):
    train = [build_packet(row, encap=False) for row in rows]
    cols = PacketColumns.from_packets(train, FIELDS)
    assert cols.side == {}
    assert cols.n == cols.n_alive == len(train)


@given(
    st.lists(st.tuples(*(packable_values for _ in FIELDS)),
             min_size=1, max_size=12),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_kill_and_dirty_write_back(rows, data):
    """Dirty columns materialize on survivors only; dead rows keep
    their original fields; 5-tuple writes leave no stale flow hash."""
    train = [build_packet(row, encap=False) for row in rows]
    for packet in train:
        packet.flow_key()
        packet.flow_hash()
    keep = data.draw(st.lists(
        st.booleans(), min_size=len(rows), max_size=len(rows),
    ))
    new_dst = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    originals = {p.uid: dict(p.fields) for p in train}
    cols = PacketColumns.from_packets(train, FIELDS)
    cols.set_all("ip_dst", new_dst)
    cols.kill(np.array(keep, dtype=bool))
    out = cols.to_packets()
    survivors = [p for p, k in zip(train, keep) if k]
    assert out == survivors
    for packet in survivors:
        assert packet.fields["ip_dst"] == new_dst
        fresh = Packet(**packet.fields)
        assert packet.flow_hash() == fresh.flow_hash()
        assert packet.flow_key()[1] == new_dst
    for packet, kept in zip(train, keep):
        if not kept:
            assert packet.fields == originals[packet.uid]


@given(
    st.lists(st.tuples(*(packable_values for _ in FIELDS)),
             min_size=2, max_size=12),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_non_uniform_dirty_write_back(rows, base):
    """The per-row (non-uniform) materialization path: distinct values
    written through a column view land on the right packets."""
    train = [build_packet(row, encap=False) for row in rows]
    cols = PacketColumns.from_packets(train, FIELDS)
    values = [(base + i) % (2 ** 32) for i in range(len(train))]
    cols.column("tp_src")[:] = values
    cols.mark_dirty("tp_src")
    out = cols.to_packets()
    assert [p.fields["tp_src"] for p in out] == values


def test_encapsulated_packet_side_table():
    """A tunneled packet without inner ports side-tables the port
    columns, and the runtime refuses to run a plan over it."""
    packet = Packet(ip_src=1, ip_dst=2, ip_proto=UDP, tp_src=3, tp_dst=4)
    packet.encapsulate(ip_proto=GRE)
    del packet.fields["tp_src"]
    del packet.fields["tp_dst"]
    cols = PacketColumns.from_packets([packet], FIELDS)
    assert set(cols.side) == {"tp_src", "tp_dst"}
    assert cols.side["tp_src"] == [MISSING]
    # The int columns of the same batch still lifted fine.
    assert int(cols.column("ip_proto")[0]) == GRE
    out = cols.to_packets()
    assert out[0].encap_depth == 1


def test_split_preserves_rows_and_state():
    train = [
        Packet(ip_src=i, ip_dst=100 + i, ip_proto=UDP,
               tp_src=1000 + i, tp_dst=53)
        for i in range(6)
    ]
    cols = PacketColumns.from_packets(train, FIELDS)
    cols.set_all("ip_ttl", 9)
    even = np.array([i % 2 == 0 for i in range(6)])
    children = cols.split([(0, even), (1, ~even)])
    assert [port for port, _ in children] == [0, 1]
    for port, child in children:
        expected = train[port::2]
        assert child.to_packets() == expected
        for packet in expected:
            assert packet.fields["ip_ttl"] == 9


def test_annotations_stamp_survivors_only():
    train = [Packet(ip_src=i) for i in range(4)]
    cols = PacketColumns.from_packets(train, FIELDS)
    cols.annotate("paint", 7)
    cols.kill(np.array([True, False, True, False]))
    out = cols.to_packets()
    assert [p.annotations.get("paint") for p in train] == [7, None, 7, None]
    assert len(out) == 2


def test_lengths_column_matches_packets():
    train = [Packet(ip_src=i, length=64 + i) for i in range(5)]
    cols = PacketColumns.from_packets(train, FIELDS, need_length=True)
    assert cols.lengths().tolist() == [64 + i for i in range(5)]
    assert cols.bytes_alive() == sum(64 + i for i in range(5))
    cols.kill(np.array([True, True, False, False, True]))
    assert cols.bytes_alive() == 64 + 65 + 68
