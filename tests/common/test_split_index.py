"""SplitIndex against the brute-force scan it stands for."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.intervals import (
    FULL_RANGE,
    WIDE_SPLIT,
    IntervalSet,
    SplitIndex,
)

values = st.integers(min_value=0, max_value=60)
interval_sets = st.lists(
    st.tuples(values, values).map(lambda pair: (min(pair), max(pair))),
    max_size=4,
).map(IntervalSet)
#: None is a branch that does not test the field (a wildcard).
branch_sets = st.one_of(st.none(), interval_sets)
#: Up to 40 branches: both sides of WIDE_SPLIT.
overlapping_splits = st.lists(branch_sets, max_size=40)
domains = st.one_of(
    interval_sets,
    st.just(IntervalSet.empty()),
    st.just(FULL_RANGE),
)


@st.composite
def disjoint_splits(draw):
    """Branches that partition part of 0..60, as an LPM split does
    (values owned by None or by index ``n`` belong to no branch)."""
    n = draw(st.integers(min_value=0, max_value=40))
    owners = draw(st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=n)),
        min_size=61, max_size=61,
    ))
    return [
        IntervalSet.from_values(
            value for value, owner in enumerate(owners) if owner == index
        )
        for index in range(n)
    ]


def brute_force(sets, domain):
    return [
        index for index, allowed in enumerate(sets)
        if allowed is None or not domain.intersect(allowed).is_empty()
    ]


class TestMeeting:
    @settings(max_examples=300, deadline=None)
    @given(sets=overlapping_splits, domain=domains)
    def test_equals_a_scan_on_overlapping_and_wildcard_splits(
        self, sets, domain
    ):
        assert SplitIndex(sets).meeting(domain) == brute_force(sets, domain)

    @settings(max_examples=200, deadline=None)
    @given(sets=disjoint_splits(), domain=domains)
    def test_equals_a_scan_on_disjoint_splits(self, sets, domain):
        assert SplitIndex(sets).meeting(domain) == brute_force(sets, domain)

    def test_wide_splits_bisect_and_narrow_ones_scan(self):
        narrow = [IntervalSet.single(value) for value in range(WIDE_SPLIT - 1)]
        wide = narrow + [None]
        assert SplitIndex(narrow)._lows is None
        assert SplitIndex(wide)._lows is not None

    def test_empty_and_full_domains(self):
        for width in (3, WIDE_SPLIT, 3 * WIDE_SPLIT):
            sets = [IntervalSet.single(2 * value) for value in range(width)]
            sets[1] = None
            sets[2] = IntervalSet.empty()
            split = SplitIndex(sets)
            assert split.meeting(IntervalSet.empty()) == [1]
            assert split.meeting(FULL_RANGE) == [
                index for index in range(width) if index != 2
            ]

    def test_a_nested_span_does_not_hide_a_later_one(self):
        # [0,100] reaches past [10,11]; a query at 50 must still find
        # the long span after walking past the short one.
        sets = [IntervalSet.from_interval(10, 11)] * (WIDE_SPLIT - 1)
        sets = [IntervalSet.from_interval(0, 100)] + sets
        split = SplitIndex(sets)
        assert split.meeting(IntervalSet.single(50)) == [0]
        assert split.meeting(IntervalSet.single(11)) == list(
            range(WIDE_SPLIT))
