"""Classification elements: ``IPFilter``, ``IPClassifier``, ``Classifier``.

All three are driven by the tcpdump-subset flow-spec language in
:mod:`repro.policy.flowspec`, so a pattern written in a client request
means exactly the same thing to the dataplane and to the symbolic engine.
"""

from __future__ import annotations

from typing import List, Tuple

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


def _dnf_fields(compiled_specs) -> tuple:
    """All header fields a sequence of compiled DNFs constrains."""
    fields = set()
    for clauses in compiled_specs:
        for clause in clauses:
            for field, _allowed in clause:
                fields.add(field)
    return tuple(sorted(fields))


@register_element("IPFilter")
class IPFilter(Element):
    """Sequential allow/deny rules; first match wins.

    Arguments are rules like ``allow udp port 1500`` / ``deny all`` /
    ``drop src net 10.0.0.0/8``.  Unmatched packets are dropped (Click's
    implicit trailing ``deny all``).  Allowed packets exit on port 0.
    """

    n_inputs = 1
    n_outputs = 1
    cycle_cost = 1.2
    has_column_kernel = True

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ConfigError("IPFilter needs at least one rule")
        self.rules: List[Tuple[bool, FlowSpec]] = []
        for rule in args:
            action, _, spec_text = rule.strip().partition(" ")
            action = action.lower()
            if action in ("allow", "accept", "pass"):
                allowed = True
            elif action in ("deny", "drop", "reject"):
                allowed = False
            else:
                raise ConfigError("bad IPFilter action in %r" % (rule,))
            self.rules.append((allowed, parse_flowspec(spec_text)))
        # Hoisted DNF tuples for the vectorized batch matcher.
        self._compiled = tuple(
            (allowed, spec.compiled()) for allowed, spec in self.rules
        )
        self.column_fields = _dnf_fields(c for _a, c in self._compiled)
        self._col_rules = None  # compiled lazily on first column batch
        self.dropped = 0

    def push(self, port: int, packet) -> PushResult:
        for allowed, spec in self.rules:
            if spec.matches(packet):
                if allowed:
                    return [(0, packet)]
                break
        self.dropped += 1
        return []

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        # Vectorized first-match-wins over the precompiled DNF: plain
        # tuple loops over header attributes instead of a
        # FlowSpec.matches() call per rule per packet.
        compiled = self._compiled
        out: List = []
        append = out.append
        dropped = 0
        for packet in packets:
            verdict = False
            for allowed, clauses in compiled:
                matched = False
                for clause in clauses:
                    for field, allowed_set in clause:
                        if getattr(packet, field, 0) not in allowed_set:
                            break
                    else:
                        matched = True
                        break
                if matched:
                    verdict = allowed
                    break
            if verdict:
                append(packet)
            else:
                dropped += 1
        if dropped:
            self.dropped += dropped
        if not out:
            return []
        return [(0, out)]

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        # First-match-wins over whole columns: each rule's DNF mask is
        # intersected with the still-undecided rows, allow rules
        # accumulate into the verdict, and the scan stops as soon as
        # every row is decided.
        np = columnar.np
        rules = self._col_rules
        if rules is None:
            rules = self._col_rules = tuple(
                (allowed, columnar.compile_clause_matchers(clauses))
                for allowed, clauses in self._compiled
            )
        n = cols.n
        verdict = None
        undecided = None
        for allowed, clause_matchers in rules:
            mask = columnar.match_dnf(cols, clause_matchers, n)
            if undecided is None:
                eligible = mask
                undecided = ~mask
            else:
                eligible = mask & undecided
                undecided &= ~mask
            if allowed:
                verdict = eligible if verdict is None \
                    else verdict | eligible
            if not undecided.any():
                break
        if verdict is None:
            verdict = np.zeros(n, dtype=bool)
        before = cols.n_alive
        cols.kill(verdict)
        killed = before - cols.n_alive
        if killed:
            self.dropped += killed
        if not cols.n_alive:
            return []
        return [(0, cols)]


@register_element("IPClassifier")
class IPClassifier(Element):
    """Sends each packet out the port of its first matching pattern.

    One flow-spec argument per output port; the last argument may be
    ``-`` to catch everything else.  Unmatched packets are dropped.
    """

    n_inputs = 1
    n_outputs = None  # one output per pattern
    cycle_cost = 1.2
    has_column_kernel = True

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ConfigError("IPClassifier needs at least one pattern")
        self.patterns: List[FlowSpec] = []
        for arg in args:
            text = arg.strip()
            if text == "-":
                self.patterns.append(FlowSpec.any())
            else:
                self.patterns.append(parse_flowspec(text))
        self._compiled = tuple(spec.compiled() for spec in self.patterns)
        self.column_fields = _dnf_fields(self._compiled)
        self._col_patterns = None  # compiled lazily on first column batch
        self.dropped = 0

    def push(self, port: int, packet) -> PushResult:
        for index, spec in enumerate(self.patterns):
            if spec.matches(packet):
                return [(index, packet)]
        self.dropped += 1
        return []

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        # Vectorized first-match dispatch over the precompiled DNF;
        # groups keep first-emission port order (dict insertion order).
        compiled = self._compiled
        groups = {}
        dropped = 0
        for packet in packets:
            for index, clauses in enumerate(compiled):
                matched = False
                for clause in clauses:
                    for field, allowed_set in clause:
                        if getattr(packet, field, 0) not in allowed_set:
                            break
                    else:
                        matched = True
                        break
                if matched:
                    try:
                        groups[index].append(packet)
                    except KeyError:
                        groups[index] = [packet]
                    break
            else:
                dropped += 1
        if dropped:
            self.dropped += dropped
        return list(groups.items())

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        # First-match dispatch: each pattern claims its matching rows
        # out of the still-unclaimed alive set.  Groups are emitted in
        # first-matching-row order -- the same order push_batch's
        # dict-insertion grouping produces -- and a single full group
        # skips the split entirely.
        np = columnar.np
        patterns = self._col_patterns
        if patterns is None:
            patterns = self._col_patterns = tuple(
                columnar.compile_clause_matchers(clauses)
                for clauses in self._compiled
            )
        n = cols.n
        unclaimed = cols.alive_mask()
        groups = []
        for index, clause_matchers in enumerate(patterns):
            mask = columnar.match_dnf(cols, clause_matchers, n)
            mask &= unclaimed
            if mask.any():
                groups.append((index, mask))
                unclaimed &= ~mask
                if not unclaimed.any():
                    break
        leftover = int(unclaimed.sum())
        if leftover:
            self.dropped += leftover
        if not groups:
            return []
        if len(groups) == 1 and int(groups[0][1].sum()) == cols.n_alive:
            # Every alive row matched one pattern: no split needed.
            return [(groups[0][0], cols)]
        groups.sort(key=lambda g: int(np.argmax(g[1])))
        return cols.split(groups)


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
