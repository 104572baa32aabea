"""Tests for the Packet abstraction."""

import pickle
import sys
import tracemalloc
from collections.abc import MutableMapping

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.click import Runtime, parse_config
from repro.click.packet import (
    HEADER_FIELDS,
    IP_DST,
    IP_PROTO,
    IP_SRC,
    PAYLOAD,
    TCP,
    TCP_FLAGS,
    TH_ACK,
    TH_SYN,
    TP_DST,
    TP_SRC,
    UDP,
    Packet,
)
from repro.common.addr import parse_ip


class TestFields:
    def test_defaults(self):
        p = Packet()
        assert p[IP_PROTO] == UDP
        assert p["ip_ttl"] == 64
        assert p[PAYLOAD] == b""

    def test_kwargs_set_fields(self):
        p = Packet(ip_src=parse_ip("1.2.3.4"), tp_dst=80)
        assert p[IP_SRC] == parse_ip("1.2.3.4")
        assert p[TP_DST] == 80

    def test_mapping_protocol(self):
        p = Packet()
        p["custom"] = 7
        assert "custom" in p
        assert p.get("custom") == 7
        assert p.get("missing", 42) == 42

    def test_header_fields_are_slots_and_fields_is_a_view(self):
        assert Packet.__slots__[:len(HEADER_FIELDS)] == HEADER_FIELDS
        assert "fields" not in Packet.__slots__
        p = Packet(tp_dst=80)
        assert p.tp_dst == 80
        assert isinstance(p.fields, MutableMapping)
        p.fields[IP_DST] = 5
        assert p.ip_dst == 5 and p[IP_DST] == 5

    def test_a_re_added_header_field_keeps_its_place(self):
        p = Packet()
        p["custom"] = 1
        del p.fields[IP_SRC]
        assert IP_SRC not in p and not hasattr(p, IP_SRC)
        p[IP_SRC] = 3
        assert list(p.fields) == list(HEADER_FIELDS) + ["custom"]

    def test_non_field_names_raise_key_error(self):
        p = Packet()
        for name in ("length", "copy", "fields", "_extra"):
            with pytest.raises(KeyError):
                p[name]
            assert name not in p
            assert p.get(name) is None
        p["length"] = 9
        assert p["length"] == 9 and p.length == 64

    def test_uids_unique(self):
        assert Packet().uid != Packet().uid


class TestCopy:
    def test_copy_is_independent(self):
        p = Packet(tp_dst=80, annotations={"paint": 1})
        q = p.copy()
        q[TP_DST] = 443
        q.annotations["paint"] = 2
        assert p[TP_DST] == 80
        assert p.annotations["paint"] == 1

    def test_copy_preserves_encap(self):
        p = Packet(ip_dst=1)
        p.encapsulate(ip_dst=2)
        q = p.copy()
        q.decapsulate()
        assert q[IP_DST] == 1
        assert p[IP_DST] == 2  # original untouched


class TestCopyMany:
    def test_clones_match_the_template(self):
        p = Packet(tp_dst=80, length=1500, annotations={"paint": 3})
        clones = p.copy_many(5)
        assert len(clones) == 5
        for clone in clones:
            assert clone.fields == p.fields
            assert clone.annotations == p.annotations
            assert clone.length == 1500

    def test_clones_are_independent(self):
        p = Packet(tp_dst=80, annotations={"paint": 1})
        a, b = p.copy_many(2)
        a[TP_DST] = 443
        a.annotations["paint"] = 2
        assert b[TP_DST] == 80 and p[TP_DST] == 80
        assert b.annotations["paint"] == 1

    def test_uids_unique_across_clones(self):
        clones = Packet().copy_many(10)
        assert len({c.uid for c in clones}) == 10

    def test_encap_stack_is_deep_enough(self):
        p = Packet(ip_dst=1)
        p.encapsulate(ip_dst=2)
        a, b = p.copy_many(2)
        a.decapsulate()
        assert a[IP_DST] == 1
        assert b[IP_DST] == 2  # sibling clone keeps its outer header

    def test_zero_clones(self):
        assert Packet().copy_many(0) == []

    def test_matches_scalar_copy(self):
        p = Packet(tp_src=7, payload=b"x", annotations={"k": "v"})
        p.encapsulate(ip_dst=9)
        scalar = p.copy()
        (bulk,) = p.copy_many(1)
        assert bulk.fields == scalar.fields
        assert bulk.annotations == scalar.annotations
        assert bulk.encap_stack == scalar.encap_stack
        assert bulk.length == scalar.length


class TestEncapsulation:
    def test_encap_decap_roundtrip(self):
        p = Packet(ip_src=10, ip_dst=20, ip_proto=UDP)
        p.encapsulate(ip_src=99, ip_dst=88, ip_proto=TCP)
        assert p[IP_DST] == 88
        assert p.encap_depth == 1
        p.decapsulate()
        assert p[IP_DST] == 20
        assert p[IP_PROTO] == UDP
        assert p.encap_depth == 0

    def test_nested_encap(self):
        p = Packet(ip_dst=1)
        p.encapsulate(ip_dst=2)
        p.encapsulate(ip_dst=3)
        assert p[IP_DST] == 3
        p.decapsulate()
        assert p[IP_DST] == 2
        p.decapsulate()
        assert p[IP_DST] == 1

    def test_decap_without_stack_raises(self):
        with pytest.raises(ValueError):
            Packet().decapsulate()

    def test_decapsulate_restores_a_missing_field(self):
        # A GRE-style outer header without ports over an inner one
        # that had none either: the outer ports vanish on decap.
        p = Packet(ip_dst=1)
        del p.fields[TP_SRC]
        p.encapsulate(ip_dst=2, tp_src=7)
        assert p[TP_SRC] == 7
        p.decapsulate()
        assert TP_SRC not in p and p[IP_DST] == 1

    def test_unnamed_fields_survive_encap(self):
        p = Packet(ip_ttl=33)
        p.encapsulate(ip_dst=5)
        assert p["ip_ttl"] == 33  # untouched outer fields inherited


class TestFlowKeys:
    def test_flow_key(self):
        p = Packet(ip_src=1, ip_dst=2, ip_proto=UDP, tp_src=10, tp_dst=20)
        assert p.flow_key() == (1, 2, UDP, 10, 20)
        assert p.reverse_flow_key() == (2, 1, UDP, 20, 10)

    def test_is_tcp_syn(self):
        syn = Packet(ip_proto=TCP, tcp_flags=TH_SYN)
        synack = Packet(ip_proto=TCP, tcp_flags=TH_SYN | TH_ACK)
        udp = Packet(ip_proto=UDP, tcp_flags=TH_SYN)
        assert syn.is_tcp_syn()
        assert not synack.is_tcp_syn()
        assert not udp.is_tcp_syn()

    def test_repr_mentions_protocol(self):
        assert "udp" in repr(Packet(ip_proto=UDP))


class TestFlowHash:
    def test_deterministic_for_equal_fields(self):
        a = Packet(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=20)
        b = Packet(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=20)
        assert a.flow_hash() == b.flow_hash()

    def test_seed_independent_golden_values(self):
        # These constants must hold under ANY PYTHONHASHSEED -- the
        # sharder relies on flow_hash being stable across worker
        # processes and across runs (unlike builtin hash() on str).
        p = Packet(ip_src=0x0A000001, ip_dst=0xAC100F85, ip_proto=TCP,
                   tp_src=40001, tp_dst=80)
        assert p.flow_hash() == 0xD66E6919664BB9BF
        assert Packet().flow_hash() == 0x88D8E4836109D035
        assert Packet(ip_src=1).flow_hash() == 0xBFD2B8D32AEA8B54

    def test_direction_symmetric(self):
        fwd = Packet(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=20)
        rev = Packet(ip_src=2, ip_dst=1, ip_proto=TCP, tp_src=20, tp_dst=10)
        assert fwd.flow_hash() == rev.flow_hash()

    def test_endpoints_not_interchangeable(self):
        # Symmetry must pair (src, sport) with (dst, dport); crossing
        # the address/port pairing is a different conversation.
        a = Packet(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=20)
        b = Packet(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=20, tp_dst=10)
        assert a.flow_hash() != b.flow_hash()

    def test_each_field_contributes(self):
        base = dict(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=20)
        reference = Packet(**base).flow_hash()
        for field, bumped in [
            ("ip_src", 3), ("ip_dst", 4), ("ip_proto", UDP),
            ("tp_src", 11), ("tp_dst", 21),
        ]:
            assert Packet(**{**base, field: bumped}).flow_hash() != reference

    def test_missing_fields_fall_back_to_zero(self):
        # Packet() carries no addresses/ports at all; explicit zeros
        # must land on the same hash (and None behaves like absent).
        bare = Packet()
        zeroed = Packet(ip_src=0, ip_dst=0, tp_src=0, tp_dst=0)
        assert bare.flow_hash() == zeroed.flow_hash()
        assert Packet(ip_src=None).flow_hash() == bare.flow_hash()

    def test_writes_through_the_fields_view_reset_the_cache(self):
        p = Packet(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=20)
        p.flow_key()
        p.flow_hash()
        p.fields[TP_DST] = 9
        assert p.flow_key() == (1, 2, TCP, 10, 9)
        assert p.flow_hash() == Packet(
            ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=9,
        ).flow_hash()
        del p.fields[TP_SRC]
        assert p.flow_hash() == Packet(
            ip_src=1, ip_dst=2, ip_proto=TCP, tp_dst=9,
        ).flow_hash()

    def test_sixty_four_bit_range(self):
        for n in range(64):
            h = Packet(ip_src=n, tp_src=n).flow_hash()
            assert 0 <= h < (1 << 64)

    def test_spreads_flows_across_shards(self):
        shards = 4
        buckets = [0] * shards
        for n in range(1000):
            p = Packet(ip_src=(10 << 24) | n, ip_dst=(172 << 24) | 5,
                       ip_proto=TCP, tp_src=40000 + n, tp_dst=80)
            buckets[p.flow_hash() % shards] += 1
        # Sequential clients must not alias onto few shards: every
        # shard takes a healthy cut of a 1000-flow population.
        assert min(buckets) > 150


class TestNoStaleFlowKey:
    """Whatever writes a 5-tuple field, ``flow_key()`` and
    ``flow_hash()`` then read as they would on a fresh packet with the
    same headers: the hash cache is checked against the packet's
    current 5-tuple, so no writer has a cache to clear."""

    WRITES = ((IP_SRC, 7), (IP_DST, 3), (IP_PROTO, UDP), (TP_SRC, 9),
              (TP_DST, 11))

    @staticmethod
    def primed():
        p = Packet(ip_src=1, ip_dst=2, ip_proto=TCP, tp_src=10, tp_dst=20)
        p.flow_key()
        p.flow_hash()
        return p

    @staticmethod
    def assert_fresh(packet):
        fresh = Packet(**packet.fields)
        assert packet.flow_key() == fresh.flow_key()
        assert packet.flow_hash() == fresh.flow_hash()

    @pytest.mark.parametrize("field, value", WRITES)
    def test_attribute_write(self, field, value):
        p = self.primed()
        setattr(p, field, value)
        self.assert_fresh(p)

    def test_every_write_in_turn(self):
        p = self.primed()
        for field, value in self.WRITES:
            setattr(p, field, value)
            self.assert_fresh(p)
            p[field] = value + 1
            self.assert_fresh(p)

    def test_a_clone_written_after_priming(self):
        template = self.primed()
        first, second = template.copy_many(2)
        first.ip_dst = 3
        self.assert_fresh(first)
        assert second.flow_hash() == template.flow_hash()

    def test_encapsulate_and_decapsulate(self):
        p = self.primed()
        p.encapsulate(ip_src=5, ip_dst=6, ip_proto=17)
        self.assert_fresh(p)
        p.decapsulate()
        self.assert_fresh(p)
        assert p.flow_key() == (1, 2, TCP, 10, 20)

    def test_column_write_back(self):
        columnar = pytest.importorskip("repro.click.columnar")
        pytest.importorskip("numpy")
        train = [self.primed() for _ in range(4)]
        cols = columnar.PacketColumns.from_packets(train, (IP_DST, TP_SRC))
        cols.set_all(IP_DST, 3)
        cols.set_rows(TP_SRC, [1, 3], [40, 41])
        assert cols.to_packets() is train
        for p in train:
            self.assert_fresh(p)
        assert [p.tp_src for p in train] == [10, 40, 10, 41]


class TestLazyState:
    """Annotations, encap stack and uid are created on first use; a
    first write on one packet never reaches another."""

    def test_first_annotation_on_a_copy_stays_there(self):
        template = Packet(tp_dst=80)
        clone = template.copy()
        clone.annotations["paint"] = 1
        assert template.annotations == {}
        template.annotations["tag"] = 2
        assert clone.annotations == {"paint": 1}

    def test_first_annotation_on_a_clone_stays_there(self):
        template = Packet(tp_dst=80)
        a, b = template.copy_many(2)
        a.annotations["paint"] = 1
        assert b.annotations == {} and template.annotations == {}
        template.annotate("tag", 2)
        b.annotate("paint", 3)
        assert a.annotations == {"paint": 1}
        assert b.annotations == {"paint": 3}
        assert template.annotations == {"tag": 2}

    def test_first_encapsulation_on_a_copy_stays_there(self):
        template = Packet(ip_dst=1)
        clone = template.copy()
        clone.encapsulate(ip_dst=2)
        assert template.encap_depth == 0 and template[IP_DST] == 1
        template.encapsulate(ip_dst=3)
        clone.decapsulate()
        assert template.encap_depth == 1 and template[IP_DST] == 3
        assert clone.encap_depth == 0 and clone[IP_DST] == 1

    def test_first_encapsulation_on_a_clone_stays_there(self):
        template = Packet(ip_dst=1)
        a, b = template.copy_many(2)
        a.encapsulate(ip_dst=2)
        assert b.encap_depth == 0 and template.encap_depth == 0
        template.encapsulate(ip_dst=3)
        b.encapsulate(ip_dst=4)
        assert [a.encap_depth, b.encap_depth] == [1, 1]
        a.decapsulate()
        b.decapsulate()
        assert template[IP_DST] == 3 and template.encap_depth == 1
        assert a.encap_stack == [] and b.encap_stack == []

    def test_decapsulating_a_clone_leaves_the_template_tunnelled(self):
        template = Packet(ip_dst=1)
        template.encapsulate(ip_dst=2)
        (clone,) = template.copy_many(1)
        clone.decapsulate()
        copied = template.copy()
        copied.decapsulate()
        assert template.encap_depth == 1 and template[IP_DST] == 2
        assert template.encap_stack == [dict(clone.fields)]

    def test_constructor_copies_the_annotation_dict(self):
        given = {"paint": 1}
        p = Packet(annotations=given)
        p.annotations["paint"] = 2
        given["tag"] = 3
        assert p.annotations == {"paint": 2}
        assert given == {"paint": 1, "tag": 3}
        empty = {}
        q = Packet(annotations=empty)
        q.annotations["paint"] = 1
        assert empty == {}

    def test_reads_answer_without_state(self):
        p = Packet()
        assert p.annotation("paint") is None
        assert p.annotation("paint", 0) == 0
        assert p.encap_depth == 0
        q = Packet(annotations={"paint": 2})
        assert q.annotation("paint", 0) == 2

    def test_decapsulate_on_a_fresh_packet_raises(self):
        for p in (Packet(), Packet().copy(), Packet().copy_many(1)[0]):
            with pytest.raises(ValueError):
                p.decapsulate()
        p = Packet()
        p.encapsulate(ip_dst=1)
        p.decapsulate()
        with pytest.raises(ValueError):
            p.decapsulate()

    def test_uid_is_unique_and_stable_once_read(self):
        template = Packet()
        packets = [template, template.copy()] + template.copy_many(5)
        packets.append(Packet())
        uids = [p.uid for p in packets]
        assert len(set(uids)) == len(packets)
        assert [p.uid for p in packets] == uids
        assert template.copy().uid not in uids

    @pytest.mark.parametrize("loaded", [False, True])
    def test_pickle_round_trip(self, loaded):
        p = Packet(ip_src=1, tp_dst=80, length=1500)
        if loaded:
            p.annotate("paint", 2)
            p.encapsulate(ip_dst=9, ip_proto=TCP)
        p.flow_hash()
        q = pickle.loads(pickle.dumps(p))
        assert q.fields == p.fields
        assert q.annotations == p.annotations
        assert q.encap_stack == p.encap_stack
        assert q.encap_depth == p.encap_depth
        assert q.length == 1500
        assert q.flow_hash() == p.flow_hash()
        q.annotate("tag", 1)
        q.encapsulate(ip_dst=7)
        assert "tag" not in p.annotations
        assert p.encap_depth == (1 if loaded else 0)

    def test_pickle_keeps_a_read_uid(self):
        p = Packet()
        uid = p.uid
        assert pickle.loads(pickle.dumps(p)).uid == uid


def _pickled(packets):
    return [pickle.dumps(p) for p in packets]


class TestReadersNeverAllocate:
    """Routing on an annotation or an encap depth the packet does not
    carry must not create the empty container: every packet pickles to
    the same bytes after the pass as before it."""

    SWITCH = """
        src :: FromNetfront();
        sw :: PaintSwitch();
        src -> sw;
        sw[0] -> a :: ToNetfront();
        sw[1] -> b :: ToNetfront();
    """
    # The classifier ends a column plan (FromNetfront and IPClassifier
    # both have kernels), so its groups reach PaintSwitch materialized.
    COLUMN_SWITCH = """
        src :: FromNetfront();
        c :: IPClassifier(udp, -);
        sw :: PaintSwitch();
        src -> c;
        c[0] -> sw;
        c[1] -> sw;
        sw[0] -> a :: ToNetfront();
        sw[1] -> b :: ToNetfront();
    """
    DECAP = """
        src :: FromNetfront();
        src -> d :: IPDecap() -> out :: ToNetfront();
    """

    @staticmethod
    def _train(n=32):
        return [Packet(ip_src=i, ip_proto=TCP if i % 3 else UDP, tp_dst=i)
                for i in range(n)]

    def _check(self, source, mode, delivered):
        packets = self._train()
        before = _pickled(packets)
        rt = Runtime(parse_config(source), use_columns=mode == "columns")
        if mode == "scalar":
            for packet in packets:
                rt.inject("src", packet)
        else:
            rt.inject_batch("src", packets)
        rt.run()
        assert _pickled(packets) == before
        assert len(rt.output) == (len(packets) if delivered else 0)
        return rt

    @pytest.mark.parametrize("mode", ["scalar", "batch"])
    def test_paint_switch(self, mode):
        rt = self._check(self.SWITCH, mode, delivered=True)
        assert {record.element for record in rt.output} == {"a"}

    def test_paint_switch_after_columns(self):
        rt = self._check(self.COLUMN_SWITCH, "columns", delivered=True)
        assert rt.columnar_batches > 0
        assert {record.element for record in rt.output} == {"a"}

    @pytest.mark.parametrize("mode", ["scalar", "batch"])
    def test_decap_depth_check(self, mode):
        rt = self._check(self.DECAP, mode, delivered=False)
        assert rt.element("d").dropped == 32


class TestFootprint:
    """Counts, not timings: tracemalloc bytes per ``copy_many`` clone,
    net of the list that holds the clones (which belongs to the
    caller).  A clone of a plain template is one 160-byte ``Packet``;
    a field dict per clone (the layout before header fields became
    slots) cost about 360 bytes."""

    @staticmethod
    def _bytes_per_clone(template, n=10_000):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            clones = template.copy_many(n)
            used = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(clones) == n
        return (used - sys.getsizeof(clones)) / n, clones

    def test_clone_costs_one_packet(self):
        template = Packet(ip_src=1, ip_dst=2, tp_src=3, tp_dst=80)
        per_clone, _clones = self._bytes_per_clone(template)
        assert per_clone <= 168

    def test_custom_field_pays_for_its_dict_only(self):
        template = Packet(ip_src=1, ip_dst=2, tp_src=3, tp_dst=80)
        template["vlan"] = 7
        per_clone, clones = self._bytes_per_clone(template)
        assert clones[0]["vlan"] == 7
        assert per_clone - sys.getsizeof(clones[0]._extra) <= 168


# -- the mapping protocol against a plain-dict reference ---------------------

#: What ``Packet()`` carries before any write, in iteration order.
REFERENCE_DEFAULTS = {
    "ip_src": 0, "ip_dst": 0, "ip_proto": UDP, "ip_ttl": 64, "ip_tos": 0,
    "tp_src": 0, "tp_dst": 0, "tcp_flags": 0, "payload": b"",
}
#: Non-header names a rule may write; ``length`` and ``copy`` are also
#: packet attributes, and as field names they must stay plain keys.
CUSTOM_NAMES = ("custom", "vlan", "length", "copy")
#: Names no rule writes: reading them as fields must raise KeyError.
NEVER_WRITTEN = ("fields", "_extra", "uid", "annotations", "_fkey",
                 "encapsulate")
WRITABLE = HEADER_FIELDS + CUSTOM_NAMES
EVERY_NAME = WRITABLE + NEVER_WRITTEN
#: ``Packet(**kwargs)`` names (``length`` is the constructor's own).
KWARG_NAMES = HEADER_FIELDS + ("custom", "vlan")
MAX_PACKETS = 8
_ABSENT = object()

field_values = st.one_of(
    st.integers(min_value=-1, max_value=1 << 40),
    st.none(),
    st.binary(max_size=3),
)
picks = st.integers(min_value=0, max_value=1 << 16)


class Reference:
    """What one packet must read as: plain dicts and a list."""

    def __init__(self, fields, annotations=None, encap=None, length=64):
        self.fields = dict(fields)
        self.annotations = dict(annotations or {})
        self.encap = [dict(layer) for layer in encap or ()]
        self.length = length

    def copy(self):
        return Reference(self.fields, self.annotations, self.encap,
                         self.length)


class PacketModel(RuleBasedStateMachine):
    """Packets driven side by side with plain-dict references.

    Every rule applies one operation to a packet and to its reference;
    after every step each packet -- including the copies, clones and
    unpickled twins made along the way -- must read exactly like its
    own reference, so a write that leaks between packets fails too.

    A header field, once deleted, is never written again: where a
    re-added header field falls in the iteration order is outside
    what this model pins.
    """

    def __init__(self):
        super().__init__()
        self.pairs = []

    def _pair(self, pick):
        return self.pairs[pick % len(self.pairs)]

    def _writable(self, ref, name):
        return name not in HEADER_FIELDS or name in ref.fields

    @initialize(kwargs=st.dictionaries(st.sampled_from(KWARG_NAMES),
                                       field_values, max_size=4),
                length=st.integers(min_value=0, max_value=9000))
    def first(self, kwargs, length):
        self.construct(kwargs, length)

    @precondition(lambda self: len(self.pairs) < MAX_PACKETS)
    @rule(kwargs=st.dictionaries(st.sampled_from(KWARG_NAMES),
                                 field_values, max_size=4),
          length=st.integers(min_value=0, max_value=9000))
    def construct(self, kwargs, length):
        packet = Packet(length=length, **kwargs)
        self.pairs.append(
            (packet, Reference({**REFERENCE_DEFAULTS, **kwargs},
                               length=length))
        )

    @rule(pick=picks, name=st.sampled_from(WRITABLE), value=field_values,
          through_view=st.booleans())
    def set_field(self, pick, name, value, through_view):
        packet, ref = self._pair(pick)
        if not self._writable(ref, name):
            return
        if through_view:
            packet.fields[name] = value
        else:
            packet[name] = value
        ref.fields[name] = value

    @rule(pick=picks, name=st.sampled_from(WRITABLE), pop=st.booleans())
    def delete_field(self, pick, name, pop):
        packet, ref = self._pair(pick)
        if name not in ref.fields:
            with pytest.raises(KeyError):
                del packet.fields[name]
            assert packet.fields.pop(name, _ABSENT) is _ABSENT
            return
        expected = ref.fields.pop(name)
        if pop:
            assert packet.fields.pop(name) == expected
        else:
            del packet.fields[name]

    @rule(pick=picks, name=st.sampled_from(("paint", "tag")),
          value=st.integers(min_value=0, max_value=3))
    def annotate(self, pick, name, value):
        packet, ref = self._pair(pick)
        packet.annotate(name, value)
        ref.annotations[name] = value

    @precondition(lambda self: len(self.pairs) < MAX_PACKETS)
    @rule(pick=picks, n=st.integers(min_value=0, max_value=3))
    def copy(self, pick, n):
        packet, ref = self._pair(pick)
        clones = [packet.copy()] if n == 0 else packet.copy_many(n)
        for clone in clones[:MAX_PACKETS - len(self.pairs)]:
            self.pairs.append((clone, ref.copy()))

    @precondition(lambda self: len(self.pairs) < MAX_PACKETS)
    @rule(pick=picks, protocol=st.integers(min_value=2, max_value=5))
    def pickle_round_trip(self, pick, protocol):
        packet, ref = self._pair(pick)
        twin = pickle.loads(pickle.dumps(packet, protocol=protocol))
        self.pairs.append((twin, ref.copy()))

    @rule(pick=picks, outer=st.dictionaries(st.sampled_from(KWARG_NAMES),
                                            field_values, max_size=3))
    def encapsulate(self, pick, outer):
        packet, ref = self._pair(pick)
        outer = {name: value for name, value in outer.items()
                 if self._writable(ref, name)}
        packet.encapsulate(**outer)
        ref.encap.append(dict(ref.fields))
        ref.fields.update(outer)

    @rule(pick=picks)
    def decapsulate(self, pick):
        packet, ref = self._pair(pick)
        if not ref.encap:
            with pytest.raises(ValueError):
                packet.decapsulate()
            return
        packet.decapsulate()
        ref.fields = ref.encap.pop()

    @invariant()
    def every_packet_reads_like_its_reference(self):
        for packet, ref in self.pairs:
            view = packet.fields
            assert list(view) == list(ref.fields)
            assert list(view.items()) == list(ref.fields.items())
            assert dict(view) == ref.fields
            assert len(view) == len(ref.fields)
            for name in EVERY_NAME:
                expected = ref.fields.get(name, _ABSENT)
                assert (name in packet) == (expected is not _ABSENT)
                assert (name in view) == (expected is not _ABSENT)
                assert packet.get(name, _ABSENT) == expected
                assert view.get(name, _ABSENT) == expected
                if expected is _ABSENT:
                    with pytest.raises(KeyError):
                        packet[name]
                    with pytest.raises(KeyError):
                        view[name]
                else:
                    assert packet[name] == expected
                    assert view[name] == expected
            assert packet.get("missing") is None
            assert packet.encap_depth == len(ref.encap)
            assert [list(layer.items()) for layer in packet.encap_stack] \
                == [list(layer.items()) for layer in ref.encap]
            assert packet.annotations == ref.annotations
            assert packet.length == ref.length


TestPacketModel = PacketModel.TestCase
TestPacketModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
