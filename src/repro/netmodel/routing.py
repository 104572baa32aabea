"""Longest-prefix-match routing tables.

Used concretely (``lookup``) by the platform simulator and symbolically
(``symbolic_split``) by router models: with a symbolic destination, a
router splits the flow per route entry, constraining each branch to the
entry's prefix *minus* every more-specific prefix -- the standard LPM
semantics expressed as interval arithmetic.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.common.addr import format_prefix, prefix_range
from repro.common.intervals import IntervalSet, SplitIndex
from repro.symexec.tuning import OPT


class Route(NamedTuple):
    """One routing entry: prefix -> output interface."""

    network: int
    plen: int
    out_port: int

    def __str__(self) -> str:
        return "%s -> port %d" % (
            format_prefix(self.network, self.plen),
            self.out_port,
        )


class RoutingTable:
    """An ordered set of routes with LPM lookup."""

    def __init__(self, routes: Optional[List[Route]] = None):
        self.routes: List[Route] = []
        #: Bumped by every mutation; validates ``_split``.
        self._version = 0
        #: ``(version, branches, index)``: :meth:`split` for ``_version``.
        self._split: Optional[
            Tuple[int, List[Tuple[int, IntervalSet]], SplitIndex]
        ] = None
        for route in routes or []:
            self.add(route.network, route.plen, route.out_port)

    def add(self, network: int, plen: int, out_port: int) -> None:
        """Insert a route, keeping the table sorted most-specific-first."""
        low, _ = prefix_range(network, plen)
        self.routes.append(Route(low, plen, out_port))
        self.routes.sort(key=lambda r: (-r.plen, r.network))
        self._version += 1

    def remove_port(self, out_port: int) -> None:
        """Drop every route pointing at ``out_port``."""
        self.routes = [r for r in self.routes if r.out_port != out_port]
        self._version += 1

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix-match: the output port, or None (no route)."""
        for route in self.routes:
            low, high = prefix_range(route.network, route.plen)
            if low <= address <= high:
                return route.out_port
        return None

    def symbolic_split(self) -> List[Tuple[int, IntervalSet]]:
        """The table as disjoint (out_port, destination set) branches.

        Branch sets are mutually disjoint and respect LPM: an address
        covered by a /24 and a /16 appears only in the /24's branch.
        Empty branches (fully shadowed routes) are omitted.
        Callers must treat the returned list as read-only.
        """
        return self.split()[0]

    def split(self) -> Tuple[List[Tuple[int, IntervalSet]], SplitIndex]:
        """:meth:`symbolic_split` and a :class:`SplitIndex` over its
        destination sets.

        Both are pure functions of the route list, and router models
        ask for them per symbolic arrival, so they are memoized
        together; the memo is validated against a version counter
        bumped by every ``add``/``remove_port``.
        """
        cached = self._split
        if cached is not None and cached[0] == self._version:
            OPT.memo_hits += 1
            return cached[1], cached[2]
        covered = IntervalSet.empty()
        branches: List[Tuple[int, IntervalSet]] = []
        for route in self.routes:  # most-specific first
            low, high = prefix_range(route.network, route.plen)
            allowed = IntervalSet.from_interval(low, high).subtract(covered)
            covered = covered.union(
                IntervalSet.from_interval(low, high)
            )
            if not allowed.is_empty():
                branches.append((route.out_port, allowed))
        index = SplitIndex([allowed for _port, allowed in branches])
        self._split = (self._version, branches, index)
        return branches, index

    def __len__(self) -> int:
        return len(self.routes)

    def __repr__(self) -> str:
        return "RoutingTable(%d routes)" % len(self.routes)
