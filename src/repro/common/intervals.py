"""Integer interval sets.

The symbolic execution engine represents the domain of every packet header
field as a set of disjoint inclusive integer intervals.  This keeps
satisfiability checks linear (SYMNET's central scalability trick: no SMT
solver, just interval arithmetic), which is what makes Figure 10 of the
paper linear in network size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Interval = Tuple[int, int]


# ---------------------------------------------------------------------------
# Hash-consing and operation-result caching
# ---------------------------------------------------------------------------
#
# IntervalSet instances are immutable value objects, so identical values
# can be shared (hash-consed) and the results of the binary operations
# can be cached: the symbolic engine narrows the *same* (domain, clause)
# pair across thousands of forked flows, and with the cache each
# distinct pair is computed exactly once.  Caching is transparent --
# a hit is content-equal to what the miss path computes (see
# ``clear_result_cache``).


class _CacheStats:
    """Mutable counters for the interning/result caches."""

    __slots__ = ("hits", "misses", "interned")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.interned = 0


_STATS = _CacheStats()
#: interval tuple -> the canonical IntervalSet carrying it.
_INTERN: Dict[Tuple[Interval, ...], "IntervalSet"] = {}
#: Per-operation result caches keyed on ``(left id, right id)``.  Keys
#: are pairs of small intern ids, not interval tuples: CPython rehashes
#: tuple contents on every lookup, so content keys would make each hit
#: cost O(intervals) -- measurably slow for wide sets like the 32-bit
#: egress complement.
_AND_RESULTS: Dict[Tuple[int, int], "IntervalSet"] = {}
_OR_RESULTS: Dict[Tuple[int, int], "IntervalSet"] = {}
_SUB_RESULTS: Dict[Tuple[int, int], "IntervalSet"] = {}
#: Intern ids are handed out by a never-reset monotonic counter, so an
#: id names one interval tuple forever: clearing the caches can orphan
#: ids but can never alias two values to one key.
_NEXT_ID = 0
#: ``_NEXT_ID`` at the last clear.  A stamp below it was issued before
#: the clear and counts as absent: every clear empties the result caches
#: too, so such a stamp can only miss, and the miss re-stamps the set
#: before computing.  A stamped set and a value-equal fresh one thus
#: never key the result caches differently, and hits pay nothing.
_FLOOR = 0
#: Caches are cleared wholesale when they exceed this bound; real
#: workloads stay far below it, so this is an anti-leak backstop, not an
#: eviction policy.
_MAX_ENTRIES = 1 << 16


def clear_result_cache() -> None:
    """Drop every cached value and result (counters are kept).

    The next operation on any pair recomputes it on the miss path;
    the result is content-equal to the one that was cached.

    >>> a = IntervalSet.from_interval(0, 9)
    >>> b = IntervalSet.from_interval(5, 20)
    >>> a.intersect(b) is a.intersect(b)
    True
    >>> cached = a.intersect(b)
    >>> clear_result_cache()
    >>> a.intersect(b).intervals == cached.intervals
    True
    """
    global _FLOOR
    _INTERN.clear()
    _AND_RESULTS.clear()
    _OR_RESULTS.clear()
    _SUB_RESULTS.clear()
    _FLOOR = _NEXT_ID


def _restamp(*values: "IntervalSet") -> None:
    """Re-intern ``values`` whose stamps predate the last clear."""
    for value in values:
        if value._intern_id < _FLOOR:
            intern(value)


def result_cache_stats() -> Dict[str, int]:
    """Counters: result-cache hits/misses and interned value count."""
    return {
        "hits": _STATS.hits,
        "misses": _STATS.misses,
        "interned": _STATS.interned,
        "results_cached": (
            len(_AND_RESULTS) + len(_OR_RESULTS) + len(_SUB_RESULTS)
        ),
    }


def intern(value: "IntervalSet") -> "IntervalSet":
    """The canonical shared instance for ``value`` (hash-consing).

    Returns ``value`` itself when it is the first carrier of its
    interval tuple, or the previously seen instance otherwise.  Either
    way ``value`` leaves with the content's intern id stamped on it,
    so later operations on a non-canonical duplicate still hit the
    result caches.
    """
    global _NEXT_ID
    key = value._intervals
    cached = _INTERN.get(key)
    if cached is not None:
        value._intern_id = cached._intern_id
        return cached
    if len(_INTERN) >= _MAX_ENTRIES:
        clear_result_cache()
    value._intern_id = _NEXT_ID
    _NEXT_ID += 1
    _INTERN[key] = value
    _STATS.interned += 1
    return value


class IntervalSet:
    """An immutable set of integers stored as sorted disjoint intervals.

    Instances are value objects: all operations return new sets.

    >>> s = IntervalSet.from_interval(10, 20) | IntervalSet.single(25)
    >>> 15 in s, 22 in s, 25 in s
    (True, False, True)
    """

    __slots__ = ("_intervals", "_intern_id")

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._intervals: Tuple[Interval, ...] = tuple(
            _normalize(list(intervals))
        )
        #: Small id stamped by :func:`intern`; None until interned.
        self._intern_id: Optional[int] = None

    def __reduce__(self):
        # The intern stamp is not pickled: another process hands out
        # its ids to other values, so a carried stamp would key that
        # process's result caches to the wrong intervals.
        return (IntervalSet, (self._intervals,))

    # -- constructors ----------------------------------------------------
    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return _EMPTY

    @classmethod
    def single(cls, value: int) -> "IntervalSet":
        """The singleton set ``{value}``."""
        cached = _INTERN.get(((value, value),))
        if cached is not None:
            return cached
        return intern(cls([(value, value)]))

    @classmethod
    def from_interval(cls, low: int, high: int) -> "IntervalSet":
        """The inclusive range ``[low, high]`` (empty if ``low > high``)."""
        if low > high:
            return _EMPTY
        cached = _INTERN.get(((low, high),))
        if cached is not None:
            return cached
        return intern(cls([(low, high)]))

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntervalSet":
        """A set holding exactly ``values``."""
        return cls([(v, v) for v in values])

    # -- queries ----------------------------------------------------------
    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The sorted, disjoint intervals backing this set."""
        return self._intervals

    def is_empty(self) -> bool:
        """Whether the set contains no values."""
        return not self._intervals

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __contains__(self, value: int) -> bool:
        # Binary search over disjoint sorted intervals.
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            a, b = self._intervals[mid]
            if value < a:
                hi = mid - 1
            elif value > b:
                lo = mid + 1
            else:
                return True
        return False

    def size(self) -> int:
        """Number of integers in the set."""
        return sum(b - a + 1 for a, b in self._intervals)

    def singleton_value(self) -> Optional[int]:
        """The sole member if the set has exactly one element, else None."""
        if len(self._intervals) == 1:
            a, b = self._intervals[0]
            if a == b:
                return a
        return None

    def min(self) -> int:
        """Smallest member (raises ValueError on the empty set)."""
        if not self._intervals:
            raise ValueError("empty IntervalSet has no minimum")
        return self._intervals[0][0]

    def max(self) -> int:
        """Largest member (raises ValueError on the empty set)."""
        if not self._intervals:
            raise ValueError("empty IntervalSet has no maximum")
        return self._intervals[-1][1]

    def __iter__(self) -> Iterator[int]:
        for a, b in self._intervals:
            yield from range(a, b + 1)

    # -- algebra ----------------------------------------------------------
    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection."""
        lid = self._intern_id
        if lid is None:
            lid = intern(self)._intern_id
        rid = other._intern_id
        if rid is None:
            rid = intern(other)._intern_id
        key = (lid, rid)
        cached = _AND_RESULTS.get(key)
        if cached is not None:
            _STATS.hits += 1
            return cached
        if lid < _FLOOR or rid < _FLOOR:
            _restamp(self, other)
            return self.intersect(other)
        result = intern(self._intersect(other))
        _STATS.misses += 1
        if len(_AND_RESULTS) >= _MAX_ENTRIES:
            _AND_RESULTS.clear()
        _AND_RESULTS[key] = result
        return result

    def _intersect(self, other: "IntervalSet") -> "IntervalSet":
        result: List[Interval] = []
        i = j = 0
        left, right = self._intervals, other._intervals
        while i < len(left) and j < len(right):
            a1, b1 = left[i]
            a2, b2 = right[j]
            low, high = max(a1, a2), min(b1, b2)
            if low <= high:
                result.append((low, high))
            if b1 < b2:
                i += 1
            else:
                j += 1
        out = IntervalSet.__new__(IntervalSet)
        out._intervals = tuple(result)
        out._intern_id = None
        return out

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        lid = self._intern_id
        if lid is None:
            lid = intern(self)._intern_id
        rid = other._intern_id
        if rid is None:
            rid = intern(other)._intern_id
        key = (lid, rid)
        cached = _OR_RESULTS.get(key)
        if cached is not None:
            _STATS.hits += 1
            return cached
        if lid < _FLOOR or rid < _FLOOR:
            _restamp(self, other)
            return self.union(other)
        result = intern(IntervalSet(self._intervals + other._intervals))
        _STATS.misses += 1
        if len(_OR_RESULTS) >= _MAX_ENTRIES:
            _OR_RESULTS.clear()
        _OR_RESULTS[key] = result
        return result

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self - other``."""
        lid = self._intern_id
        if lid is None:
            lid = intern(self)._intern_id
        rid = other._intern_id
        if rid is None:
            rid = intern(other)._intern_id
        key = (lid, rid)
        cached = _SUB_RESULTS.get(key)
        if cached is not None:
            _STATS.hits += 1
            return cached
        if lid < _FLOOR or rid < _FLOOR:
            _restamp(self, other)
            return self.subtract(other)
        result = intern(self._subtract(other))
        _STATS.misses += 1
        if len(_SUB_RESULTS) >= _MAX_ENTRIES:
            _SUB_RESULTS.clear()
        _SUB_RESULTS[key] = result
        return result

    def _subtract(self, other: "IntervalSet") -> "IntervalSet":
        result: List[Interval] = []
        pending = list(self._intervals)
        cut = other._intervals
        for a, b in pending:
            pieces = [(a, b)]
            for c, d in cut:
                next_pieces: List[Interval] = []
                for x, y in pieces:
                    if d < x or c > y:
                        next_pieces.append((x, y))
                        continue
                    if x < c:
                        next_pieces.append((x, c - 1))
                    if y > d:
                        next_pieces.append((d + 1, y))
                pieces = next_pieces
                if not pieces:
                    break
            result.extend(pieces)
        return IntervalSet(result)

    def complement(self, low: int, high: int) -> "IntervalSet":
        """Complement of the set within the universe ``[low, high]``."""
        return IntervalSet.from_interval(low, high).subtract(self)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.subtract(other)

    def is_subset(self, other: "IntervalSet") -> bool:
        """Whether every member of ``self`` is in ``other``."""
        return self.subtract(other).is_empty()

    def overlaps(self, other: "IntervalSet") -> bool:
        """Whether the sets share at least one member."""
        return not self.intersect(other).is_empty()

    # -- dunder -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        parts = ", ".join(
            "%d" % a if a == b else "%d-%d" % (a, b)
            for a, b in self._intervals
        )
        return "IntervalSet{%s}" % parts


def _normalize(intervals: Sequence[Interval]) -> List[Interval]:
    """Sort, validate, and coalesce adjacent/overlapping intervals."""
    cleaned = [(int(a), int(b)) for a, b in intervals if a <= b]
    cleaned.sort()
    merged: List[Interval] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1] + 1:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return merged


_EMPTY = IntervalSet(())

#: Domain of a 32-bit field (IPv4 addresses) and general default universe.
FULL_RANGE = IntervalSet.from_interval(0, (1 << 32) - 1)


# ---------------------------------------------------------------------------
# Split index
# ---------------------------------------------------------------------------

#: Splits with at least this many branches are bisected by
#: :class:`SplitIndex`; narrower ones are scanned.  The sorted spans
#: cost a build per table version, so they pay only on wide splits.
#: Timed against the scan on a 2-vCPU x86 VM (CPython 3.11, interval
#: results cached), per lookup with one build per version: at 20
#: lookups per version bisecting costs 1.05x the scan at 4 branches,
#: 0.77x at 8, 0.58x at 16 and 0.33x at 202; at 5 per version it
#: first stops losing at 16 (0.97x); at 1-2 per version it loses at
#: every width (1.4-3.4x).  The admission workloads' routers have 3-4
#: branches, their platform demuxes 1 or 16.
WIDE_SPLIT = 16


class SplitIndex:
    """Which branches of a split a domain can meet.

    Built from a table's ordered branch sets on one field, where None
    marks a branch that does not test the field and so meets every
    domain.  :meth:`meeting` answers in ascending branch order and
    equals testing the domain against every set, which is what a
    split narrower than :data:`WIDE_SPLIT` does.  A wider one sorts
    the sets' intervals by low end once and keeps the running maximum
    of their high ends: a domain interval then bisects to the first
    span that can reach it and walks only the spans that start inside
    it.  Disjoint sets (a router's LPM split) walk no span they do not
    meet; overlapping ones stay exact, they only walk more.

    >>> split = SplitIndex([IntervalSet.from_interval(0, 9), None,
    ...                     IntervalSet.from_interval(5, 20)])
    >>> split.meeting(IntervalSet.single(7))
    [0, 1, 2]
    >>> split.meeting(IntervalSet.single(15))
    [1, 2]
    """

    __slots__ = ("_sets", "_wild", "_lows", "_reach", "_spans")

    def __init__(self, sets: Sequence[Optional["IntervalSet"]]):
        self._sets = tuple(sets)
        #: None while the split is scanned.
        self._lows: Optional[List[int]] = None
        if len(self._sets) < WIDE_SPLIT:
            return
        self._wild = [
            index for index, allowed in enumerate(self._sets)
            if allowed is None
        ]
        #: (low, high, branch index) of every interval, by low end.
        self._spans = sorted(
            (low, high, index)
            for index, allowed in enumerate(self._sets)
            if allowed is not None
            for low, high in allowed._intervals
        )
        self._lows = [low for low, _high, _index in self._spans]
        self._reach: List[int] = []
        top = -1
        for _low, high, _index in self._spans:
            top = max(top, high)
            self._reach.append(top)

    def meeting(self, domain: "IntervalSet") -> List[int]:
        """Ascending indices of the branches ``domain`` can meet."""
        lows = self._lows
        if lows is None:
            return [
                index for index, allowed in enumerate(self._sets)
                if allowed is None or domain.intersect(allowed)._intervals
            ]
        spans = self._spans
        hits = set(self._wild)
        for low, high in domain._intervals:
            # Spans before ``at`` all end below ``low``; spans from
            # ``end`` on all start above ``high``.
            at = bisect_left(self._reach, low)
            end = bisect_right(lows, high)
            for _low, span_high, index in spans[at:end]:
                if span_high >= low:
                    hits.add(index)
        return sorted(hits)
