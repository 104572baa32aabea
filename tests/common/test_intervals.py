"""Tests for IntervalSet, including model-based hypothesis properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.intervals import FULL_RANGE, IntervalSet

# Small universe so hypothesis can compare against Python sets exactly.
small_values = st.integers(min_value=0, max_value=60)
small_intervals = st.lists(
    st.tuples(small_values, small_values).map(
        lambda pair: (min(pair), max(pair))
    ),
    max_size=6,
)


def as_set(interval_set: IntervalSet) -> set:
    return set(interval_set)


class TestConstruction:
    def test_empty(self):
        assert IntervalSet.empty().is_empty()
        assert not IntervalSet.empty()

    def test_single(self):
        s = IntervalSet.single(5)
        assert 5 in s
        assert 4 not in s
        assert s.size() == 1
        assert s.singleton_value() == 5

    def test_from_interval_inverted_is_empty(self):
        assert IntervalSet.from_interval(5, 3).is_empty()

    def test_normalization_merges_adjacent(self):
        s = IntervalSet([(1, 3), (4, 6)])
        assert s.intervals == ((1, 6),)

    def test_normalization_merges_overlap(self):
        s = IntervalSet([(1, 5), (3, 9)])
        assert s.intervals == ((1, 9),)

    def test_from_values(self):
        s = IntervalSet.from_values([3, 1, 2, 9])
        assert s.intervals == ((1, 3), (9, 9))


class TestQueries:
    def test_contains_binary_search(self):
        s = IntervalSet([(0, 10), (20, 30), (40, 50)])
        for v in (0, 10, 25, 50):
            assert v in s
        for v in (11, 19, 31, 39, 51, -1):
            assert v not in s

    def test_min_max(self):
        s = IntervalSet([(5, 9), (1, 2)])
        assert s.min() == 1
        assert s.max() == 9

    def test_min_of_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalSet.empty().min()

    def test_singleton_value_none_for_bigger(self):
        assert IntervalSet.from_interval(1, 2).singleton_value() is None

    def test_iteration(self):
        assert list(IntervalSet([(1, 3), (7, 7)])) == [1, 2, 3, 7]


class TestAlgebra:
    def test_intersect(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(5, 15)])
        assert (a & b).intervals == ((5, 10),)

    def test_union(self):
        a = IntervalSet([(0, 3)])
        b = IntervalSet([(10, 12)])
        assert (a | b).intervals == ((0, 3), (10, 12))

    def test_subtract_splits(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(4, 6)])
        assert (a - b).intervals == ((0, 3), (7, 10))

    def test_complement(self):
        s = IntervalSet([(2, 3)])
        assert s.complement(0, 5).intervals == ((0, 1), (4, 5))

    def test_subset(self):
        assert IntervalSet([(2, 3)]).is_subset(IntervalSet([(0, 9)]))
        assert not IntervalSet([(2, 11)]).is_subset(IntervalSet([(0, 9)]))
        assert IntervalSet.empty().is_subset(IntervalSet.empty())

    def test_overlaps(self):
        assert IntervalSet([(0, 5)]).overlaps(IntervalSet([(5, 9)]))
        assert not IntervalSet([(0, 4)]).overlaps(IntervalSet([(5, 9)]))

    def test_full_range_size(self):
        assert FULL_RANGE.size() == 1 << 32

    def test_equality_and_hash(self):
        a = IntervalSet([(1, 3), (4, 5)])
        b = IntervalSet([(1, 5)])
        assert a == b
        assert hash(a) == hash(b)


class TestModelBased:
    """Every operation must agree with Python's set semantics."""

    @given(small_intervals, small_intervals)
    def test_intersect_matches_sets(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        assert as_set(a & b) == as_set(a) & as_set(b)

    @given(small_intervals, small_intervals)
    def test_union_matches_sets(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        assert as_set(a | b) == as_set(a) | as_set(b)

    @given(small_intervals, small_intervals)
    def test_subtract_matches_sets(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        assert as_set(a - b) == as_set(a) - as_set(b)

    @given(small_intervals)
    def test_size_matches(self, xs):
        s = IntervalSet(xs)
        assert s.size() == len(as_set(s))

    @given(small_intervals, small_intervals)
    def test_subset_matches(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        assert a.is_subset(b) == as_set(a).issubset(as_set(b))

    @given(small_intervals)
    def test_intervals_are_normalized(self, xs):
        s = IntervalSet(xs)
        for (a1, b1), (a2, b2) in zip(s.intervals, s.intervals[1:]):
            assert b1 + 1 < a2  # disjoint and non-adjacent
            assert a1 <= b1 and a2 <= b2


class TestResultCacheAfterClear:
    def test_stamp_from_before_a_clear_counts_as_absent(self):
        from repro.common import intervals

        stamped = IntervalSet([(3, 9), (20, 30)])
        other = IntervalSet([(5, 25)])
        stamped.intersect(other)
        intervals.clear_result_cache()
        misses = intervals.result_cache_stats()["misses"]
        fresh = IntervalSet([(3, 9), (20, 30)])
        first = fresh.intersect(other)
        # The stale stamp re-interns to the fresh set's id, so the
        # same operation is a hit, not a second miss under a new key.
        assert stamped.intersect(other) is first
        assert intervals.result_cache_stats()["misses"] == misses + 1


class TestPickling:
    def test_unpickled_set_does_not_carry_its_intern_stamp(self):
        # An intern id names one value only inside the process that
        # issued it.  The child stamps the parent's ids for ``a`` and
        # ``b`` on other values and caches their intersection, so a
        # carried stamp would hit that entry and answer {150-200}.
        import os
        import pickle
        import subprocess
        import sys

        import repro

        a = IntervalSet.from_interval(0, 9)
        b = IntervalSet.from_interval(5, 20)
        a.intersect(b)
        child = """
import pickle, sys
from repro.common import intervals
from repro.common.intervals import IntervalSet
issued = intervals._NEXT_ID
x, y = IntervalSet([(100, 200)]), IntervalSet([(150, 300)])
for stamp, value in ((%d, x), (%d, y)):
    intervals._NEXT_ID = stamp
    intervals.intern(value)
intervals._NEXT_ID = max(issued, x._intern_id, y._intern_id) + 1
x.intersect(y)
a, b = pickle.loads(sys.stdin.buffer.read())
print((a & b).intervals)
""" % (a._intern_id, b._intern_id)
        done = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps((a, b)),
            stdout=subprocess.PIPE,
            check=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(
                os.path.dirname(repro.__file__))),
        )
        assert done.stdout.decode().strip() == "((5, 9),)"

    def test_round_trip_is_equal_and_unstamped(self):
        import pickle

        value = IntervalSet([(1, 3), (7, 9)])
        value.union(IntervalSet.single(5))
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy._intern_id is None
        assert copy | IntervalSet.single(5) == IntervalSet(
            [(1, 3), (5, 5), (7, 9)])
