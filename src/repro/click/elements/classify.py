"""Classification elements: ``IPFilter``, ``IPClassifier``, ``Classifier``.

All three are driven by the tcpdump-subset flow-spec language in
:mod:`repro.policy.flowspec`, so a pattern written in a client request
means exactly the same thing to the dataplane and to the symbolic engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.click import columnar
from repro.click.element import (
    Element,
    PushBatchResult,
    PushColumnsResult,
    PushResult,
    register_element,
)
from repro.common.errors import ConfigError
from repro.policy.flowspec import FlowSpec, parse_flowspec


class FirstMatch(Element):
    """A first-match table: each packet leaves by the first row it matches.

    ``rows`` is ``[(FlowSpec, output port or None), ...]`` in match
    order; a row whose port is ``None`` drops what it matches, and a
    packet no row matches is dropped too.  Subclasses only parse their
    arguments into rows (:meth:`set_rows`); the scalar, batch and
    column executors and the symbolic model all read the same rows.
    """

    n_inputs = 1
    cycle_cost = 1.2
    has_column_kernel = True

    def set_rows(self, rows: List[Tuple[FlowSpec, Optional[int]]]) -> None:
        """Install the table; a subclass's ``configure`` ends here."""
        self.rows = rows
        # Hoisted DNF tuples for the batch loop and the column kernel.
        self._compiled = tuple(
            (out, spec.compiled()) for spec, out in rows
        )
        self.column_fields = tuple(sorted({
            field
            for _out, clauses in self._compiled
            for clause in clauses
            for field, _allowed in clause
        }))
        self._col_rows = None  # compiled lazily on first column batch
        self.dropped = 0

    def push(self, port: int, packet) -> PushResult:
        for spec, out in self.rows:
            if spec.matches(packet):
                if out is not None:
                    return [(out, packet)]
                break
        self.dropped += 1
        return []

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        # First-match dispatch over the precompiled DNF: plain tuple
        # loops over header attributes instead of a FlowSpec.matches()
        # call per row per packet.  Groups keep first-emission port
        # order (dict insertion order).
        compiled = self._compiled
        groups = {}
        dropped = 0
        for packet in packets:
            out = None
            for row_out, clauses in compiled:
                matched = False
                for clause in clauses:
                    for field, allowed_set in clause:
                        if getattr(packet, field, 0) not in allowed_set:
                            break
                    else:
                        matched = True
                        break
                if matched:
                    out = row_out
                    break
            if out is None:
                dropped += 1
            else:
                try:
                    groups[out].append(packet)
                except KeyError:
                    groups[out] = [packet]
        if dropped:
            self.dropped += dropped
        return list(groups.items())

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        # Each table row claims the batch rows it matches out of the
        # still-unclaimed alive set; the scan stops once none is left.
        # A single surviving group is killed in place; several are
        # split in first-matching-row order, the order push_batch's
        # dict-insertion grouping produces.
        np = columnar.np
        rows = self._col_rows
        if rows is None:
            rows = self._col_rows = tuple(
                (out, columnar.compile_clause_matchers(clauses))
                for out, clauses in self._compiled
            )
        n = cols.n
        unclaimed = cols.alive_mask()
        claimed = {}
        for out, clause_matchers in rows:
            mask = columnar.match_dnf(cols, clause_matchers, n)
            mask &= unclaimed
            unclaimed &= ~mask
            if out is not None:
                other = claimed.get(out)
                claimed[out] = mask if other is None else other | mask
            if not unclaimed.any():
                break
        groups = [(out, mask) for out, mask in claimed.items() if mask.any()]
        before = cols.n_alive
        if len(groups) == 1:
            (out, mask), = groups
            cols.kill(mask)
            self.dropped += before - cols.n_alive
            return [(out, cols)]
        self.dropped += before - sum(int(mask.sum()) for _o, mask in groups)
        if not groups:
            return []
        groups.sort(key=lambda g: int(np.argmax(g[1])))
        return cols.split(groups)


@register_element("IPFilter")
class IPFilter(FirstMatch):
    """Sequential allow/deny rules; first match wins.

    Arguments are rules like ``allow udp port 1500`` / ``deny all`` /
    ``drop src net 10.0.0.0/8``.  Unmatched packets are dropped (Click's
    implicit trailing ``deny all``).  Allowed packets exit on port 0.
    """

    n_outputs = 1

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ConfigError("IPFilter needs at least one rule")
        rows = []
        for rule in args:
            action, _, spec_text = rule.strip().partition(" ")
            action = action.lower()
            if action in ("allow", "accept", "pass"):
                out = 0
            elif action in ("deny", "drop", "reject"):
                out = None
            else:
                raise ConfigError("bad IPFilter action in %r" % (rule,))
            rows.append((parse_flowspec(spec_text), out))
        self.set_rows(rows)


@register_element("IPClassifier")
class IPClassifier(FirstMatch):
    """Sends each packet out the port of its first matching pattern.

    One flow-spec argument per output port; the last argument may be
    ``-`` to catch everything else.  Unmatched packets are dropped.
    """

    n_outputs = None  # one output per pattern

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ConfigError("IPClassifier needs at least one pattern")
        self.set_rows([
            (FlowSpec.any() if arg.strip() == "-"
             else parse_flowspec(arg.strip()), index)
            for index, arg in enumerate(args)
        ])


@register_element("IngressFilter")
class IngressFilter(Element):
    """Directional anti-spoofing filter (Section 7 mitigation).

    Two interfaces: traffic entering interface 0 (inbound, from the
    outside) is dropped when its *source* lies in one of the protected
    prefixes -- outsiders cannot spoof inside addresses.  Interface 1
    (outbound) passes everything; inside sources legitimately appear
    there.

    ``IngressFilter(PREFIX, PREFIX, ...)``.
    """

    n_inputs = 2
    n_outputs = 2
    cycle_cost = 1.0
    has_column_kernel = True
    column_fields = ("ip_src",)

    INBOUND = 0
    OUTBOUND = 1

    def configure(self, args: List[str]) -> None:
        from repro.common.addr import parse_prefix, prefix_range
        from repro.common.intervals import IntervalSet

        if not args:
            raise ConfigError(
                "IngressFilter needs at least one protected prefix"
            )
        protected = IntervalSet.empty()
        for arg in args:
            network, plen = parse_prefix(arg.strip())
            low, high = prefix_range(network, plen)
            protected = protected.union(
                IntervalSet.from_interval(low, high)
            )
        self.protected = protected
        self._col_protected = None  # compiled lazily
        self.dropped_spoofed = 0

    def push(self, port: int, packet) -> PushResult:
        if port == self.INBOUND and packet.ip_src in self.protected:
            self.dropped_spoofed += 1
            return []
        return [(port, packet)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        if port != self.INBOUND:
            return [(port, cols)]
        matcher = self._col_protected
        if matcher is None:
            matcher = self._col_protected = \
                columnar.compile_interval_matcher(self.protected)
        spoofed = matcher(cols.column("ip_src"))
        before = cols.n_alive
        cols.kill(~spoofed)
        killed = before - cols.n_alive
        if killed:
            self.dropped_spoofed += killed
        if not cols.n_alive:
            return []
        return [(port, cols)]


@register_element("Classifier")
class Classifier(IPClassifier):
    """Accepted as an alias of :class:`IPClassifier`.

    Real Click's ``Classifier`` matches raw byte offsets; every use in the
    paper's configurations is expressible as an IP-level pattern, so we
    reuse the flow-spec syntax rather than model byte offsets.
    """
