"""Columnar (struct-of-arrays) packet batches.

A :class:`PacketColumns` holds one batch of packets as parallel int64
field arrays -- one column per header field -- plus a validity mask, so
vectorized element kernels (``Element.push_columns``) can process the
whole batch with numpy column operations instead of touching one
``Packet`` object per packet.  This is the same list-of-objects to
parallel-arrays move FastClick makes in C++ and SymNet makes for
verification: per-packet attribute traversal becomes a handful of
whole-column operations.

The representation is intentionally *lossless and lazy*:

* **Row identity.**  ``cols.packets[i]`` is row ``i``'s original
  ``Packet`` object.  Annotations, encap stacks, payloads and uids ride
  along untouched; only the numeric header columns are lifted out.
* **One matrix.**  All columns live in a single row-major ``(n, ncols)``
  int64 matrix built with one ``struct.pack_into`` pass (the fastest
  pure-Python path measured; see ``docs/dataplane.md``).  A column is a
  strided view -- writing it writes the matrix.
* **Side-table fallback.**  A column whose values cannot be packed into
  int64 (missing field, ``None``, float, out-of-range int, string) is
  recorded verbatim in :attr:`PacketColumns.side` instead; the runtime
  refuses to run a column plan over a batch with side columns and falls
  back to the exact ``push_batch`` path.
* **Deferred materialization.**  Nothing is written back to the
  ``Packet`` objects until :meth:`to_packets` -- at a segment exit, a
  sink, or a partition point -- and then only *dirty* columns for
  *surviving* rows.  Rows killed mid-plan never materialize their
  writes; a dropped packet is unobservable either way.

``push_columns`` kernels follow the ``push_batch`` contract (no empty
groups, per-group order preserved) plus two columnar rules: a kernel
may take ownership of any mask it passes to :meth:`kill`, and a kernel
that writes a column must mark it dirty (:meth:`set_all` and
:meth:`set_rows` do this automatically).
"""

from __future__ import annotations

import struct
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.click.packet import IP_DST, IP_PROTO, IP_SRC, TP_DST, TP_SRC

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np
except ImportError:  # pragma: no cover - CI images without numpy
    np = None

#: Sentinel recorded in the side table for a field a packet lacks.
MISSING = object()

#: Smallest batch worth lifting into columns.  Each kernel pays a fixed
#: few-microsecond numpy dispatch cost per batch; below this the
#: per-packet ``push_batch`` path wins, so the runtime routes smaller
#: batches there (tests lower it to force the columnar path).
MIN_BATCH = 8

#: Fields whose rewrite invalidates a packet's cached flow key/hash.
FLOW_KEY_FIELDS = frozenset((IP_SRC, IP_DST, IP_PROTO, TP_SRC, TP_DST))

_fields_of = attrgetter("fields")
_length_of = attrgetter("length")

#: Values representable in one int64 column cell.
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def available() -> bool:
    """Whether the columnar tier can run (numpy is importable)."""
    return np is not None


def _packable(value) -> bool:
    return type(value) in (int, bool) and _I64_MIN <= value <= _I64_MAX


class PacketColumns:
    """One batch of packets as parallel int64 field columns.

    Build with :meth:`from_packets`, read columns with :meth:`column`,
    and materialize surviving rows back to ``Packet`` objects with
    :meth:`to_packets`.  Instances are runtime-internal and mutable;
    the runtime owns them the way it owns ``push_batch`` lists.
    """

    __slots__ = (
        "packets", "n", "fields", "side", "alive", "n_alive",
        "dirty", "pending_annots", "_index", "_mat", "_lengths",
    )

    @classmethod
    def from_packets(
        cls,
        packets: Sequence,
        fields: Sequence[str],
        need_length: bool = False,
    ) -> "PacketColumns":
        """Lift ``fields`` of ``packets`` into columns.

        One ``struct.pack_into`` pass builds the whole matrix; any
        unpackable value (missing field, non-int, out of int64 range)
        sends that column -- and only that column -- to the side
        table via the per-column slow path.
        """
        self = cls.__new__(cls)
        packets = packets if type(packets) is list else list(packets)
        n = len(packets)
        fields = tuple(fields)
        ncols = len(fields)
        self.packets = packets
        self.n = n
        self.fields = fields
        self._index = {name: j for j, name in enumerate(fields)}
        self.side: Dict[str, list] = {}
        self.alive = None
        self.n_alive = n
        self.dirty: set = set()
        self.pending_annots: Dict[str, object] = {}
        self._lengths = None
        try:
            if ncols > 1:
                getter = itemgetter(*fields)
                buf = bytearray(8 * n * ncols)
                struct.pack_into(
                    "%dq" % (n * ncols), buf, 0,
                    *chain.from_iterable(map(getter, map(_fields_of,
                                                         packets))),
                )
            elif ncols == 1:
                getter = itemgetter(fields[0])
                buf = bytearray(8 * n)
                struct.pack_into(
                    "%dq" % n, buf, 0,
                    *map(getter, map(_fields_of, packets)),
                )
            else:
                buf = bytearray(0)
            self._mat = np.frombuffer(buf, dtype=np.int64).reshape(n, ncols)
        except (KeyError, TypeError, ValueError, OverflowError,
                struct.error):
            self._build_slow(packets, fields)
        if need_length:
            self._build_lengths()
        return self

    def _build_slow(self, packets: List, fields: Tuple[str, ...]) -> None:
        """Per-column build: good columns into the matrix, bad columns
        (any unpackable cell) verbatim into the side table."""
        n = self.n
        self._mat = np.zeros((n, len(fields)), dtype=np.int64)
        fdicts = [p.fields for p in packets]
        for j, name in enumerate(fields):
            vals = [f.get(name, MISSING) for f in fdicts]
            if all(map(_packable, vals)):
                self._mat[:, j] = vals
            else:
                self.side[name] = vals

    def _build_lengths(self) -> None:
        vals = list(map(_length_of, self.packets))
        if all(map(_packable, vals)):
            self._lengths = np.array(vals, dtype=np.int64)
        else:
            self.side["__length__"] = vals

    # -- column access -----------------------------------------------------
    def column(self, name: str):
        """The int64 column for ``name`` (a writable view; writers must
        mark the column dirty)."""
        return self._mat[:, self._index[name]]

    def lengths(self):
        """The packet-length column (built lazily)."""
        if self._lengths is None:
            self._build_lengths()
        return self._lengths

    def set_all(self, name: str, value: int) -> None:
        """Set every row of ``name`` to ``value`` and mark it dirty."""
        self._mat[:, self._index[name]] = value
        self.dirty.add(name)

    def set_rows(self, name: str, rows, values) -> None:
        """Set ``rows`` of column ``name`` and mark it dirty."""
        self._mat[:, self._index[name]][rows] = values
        self.dirty.add(name)

    def mark_dirty(self, name: str) -> None:
        """Record that column ``name`` was written through a view."""
        self.dirty.add(name)

    def annotate(self, name: str, value) -> None:
        """Stamp annotation ``name`` on every surviving row at
        materialization time (last write wins, like scalar order)."""
        self.pending_annots[name] = value

    # -- liveness ----------------------------------------------------------
    def kill(self, keep) -> None:
        """Restrict liveness to rows where ``keep`` is True.

        ``keep`` is a bool array over all rows; already-dead rows stay
        dead.  The batch may take ownership of ``keep`` -- callers must
        not reuse the mask afterwards.
        """
        alive = self.alive
        if alive is None:
            kept = int(keep.sum())
            if kept != self.n:
                self.alive = keep
                self.n_alive = kept
            return
        alive &= keep
        self.n_alive = int(alive.sum())

    def alive_mask(self):
        """A bool mask over all rows (a fresh copy when all-alive)."""
        if self.alive is None:
            return np.ones(self.n, dtype=bool)
        return self.alive.copy()

    def alive_rows(self):
        """Indices of surviving rows, or ``None`` when all survive."""
        if self.alive is None:
            return None
        return np.flatnonzero(self.alive)

    def bytes_alive(self) -> int:
        """Total packet bytes over surviving rows."""
        lengths = self.lengths()
        if self.alive is None:
            return int(lengths.sum())
        return int(lengths[self.alive].sum())

    # -- splitting ---------------------------------------------------------
    def split(self, groups) -> List[Tuple[int, "PacketColumns"]]:
        """Partition into compacted per-port children.

        ``groups`` is ``[(port, mask), ...]`` with each mask a bool
        array over all rows, already restricted to alive rows and
        pairwise disjoint.  Children copy their rows out of the parent
        (kernels may then write whole child columns safely).
        """
        out = []
        for port, mask in groups:
            rows = np.flatnonzero(mask)
            child = PacketColumns.__new__(PacketColumns)
            row_list = rows.tolist()
            child.packets = [self.packets[i] for i in row_list]
            child.n = len(row_list)
            child.fields = self.fields
            child._index = self._index
            child._mat = self._mat[rows]
            child.side = {
                name: [vals[i] for i in row_list]
                for name, vals in self.side.items()
            }
            child.alive = None
            child.n_alive = child.n
            child.dirty = set(self.dirty)
            child.pending_annots = dict(self.pending_annots)
            child._lengths = (
                None if self._lengths is None else self._lengths[rows]
            )
            out.append((port, child))
        return out

    # -- materialization ---------------------------------------------------
    def to_packets(self) -> List:
        """Materialize surviving rows back to ``Packet`` objects.

        Dirty columns are written into each survivor's field dict
        (invalidating cached flow keys when a 5-tuple field changed);
        pending annotations are stamped; dead rows are skipped
        entirely.  When no row died the original list object is
        returned (the runtime owns it, per the ``push_batch``
        contract).
        """
        if self.alive is None:
            out = self.packets
            rows = None
        else:
            rows = np.flatnonzero(self.alive)
            out = [self.packets[i] for i in rows.tolist()]
        index = self._index
        for name in self.dirty:
            col = self._mat[:, index[name]]
            if rows is not None:
                col = col[rows]
            # Rewrites usually target a constant (NAT to one address):
            # a uniform column skips the tolist/zip entirely.
            value = int(col[0]) if len(col) else 0
            if bool((col == value).all()):
                if name in FLOW_KEY_FIELDS:
                    for packet in out:
                        packet.fields[name] = value
                        packet._fkey = None
                        packet._fhash = None
                else:
                    for packet in out:
                        packet.fields[name] = value
                continue
            vals = col.tolist()
            if name in FLOW_KEY_FIELDS:
                for packet, value in zip(out, vals):
                    packet.fields[name] = value
                    packet._fkey = None
                    packet._fhash = None
            else:
                for packet, value in zip(out, vals):
                    packet.fields[name] = value
        for name, value in self.pending_annots.items():
            for packet in out:
                packet.annotations[name] = value
        return out

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return "PacketColumns(n=%d, alive=%d, fields=%r%s)" % (
            self.n, self.n_alive, list(self.fields),
            ", side=%r" % sorted(self.side) if self.side else "",
        )


# -- compiled interval matchers ---------------------------------------------

#: Interval count above which a small-domain membership test compiles to
#: a dense lookup table instead of a chain of range comparisons (the
#: ``tcp syn``-style flag sets produce ~64 intervals over 0..255).
DENSE_TABLE_MIN_INTERVALS = 8

#: Largest domain a dense lookup table may span.
DENSE_TABLE_MAX_DOMAIN = 1 << 16


def compile_interval_matcher(interval_set) -> Callable:
    """Compile an :class:`~repro.common.intervals.IntervalSet` into a
    vectorized membership test ``fn(column) -> bool mask``.

    Few intervals compile to an OR-chain of range comparisons; many
    intervals over a small domain (flag sets) compile to one dense
    bool table indexed by clipped column values.
    """
    intervals = interval_set.intervals
    if not intervals:
        return lambda col: np.zeros(len(col), dtype=bool)
    if len(intervals) == 1:
        low, high = intervals[0]
        if low == high:
            return lambda col: col == low
        return lambda col: (col >= low) & (col <= high)
    low_all = intervals[0][0]
    high_all = intervals[-1][1]
    if (
        len(intervals) >= DENSE_TABLE_MIN_INTERVALS
        and low_all >= 0
        and high_all < DENSE_TABLE_MAX_DOMAIN
    ):
        table = np.zeros(high_all + 1, dtype=bool)
        for low, high in intervals:
            table[low:high + 1] = True

        def dense(col, _table=table, _high=high_all):
            clipped = np.clip(col, 0, _high)
            return _table[clipped] & (col >= 0) & (col <= _high)

        return dense

    def chain_match(col, _intervals=intervals):
        mask = None
        for low, high in _intervals:
            part = (col == low) if low == high \
                else (col >= low) & (col <= high)
            mask = part if mask is None else mask | part
        return mask

    return chain_match


def compile_clause_matchers(compiled_dnf):
    """Compile a ``FlowSpec.compiled()`` DNF into columnar matchers.

    Returns a tuple of clauses, each a tuple of ``(field,
    matcher_fn)`` pairs; an empty clause matches everything (mirrors
    the scalar matcher's semantics exactly, including the implicit
    ``fields.get(field, 0)`` default -- a batch whose packets lack the
    field never reaches these matchers, because the missing column
    lands in the side table and the runtime falls back).
    """
    return tuple(
        tuple(
            (field, compile_interval_matcher(allowed_set))
            for field, allowed_set in clause
        )
        for clause in compiled_dnf
    )


def match_dnf(cols: PacketColumns, clause_matchers, n: int):
    """Evaluate compiled DNF clauses over a batch.

    Returns a bool mask over all rows (dead rows included -- callers
    intersect with liveness).
    """
    mask = None
    for clause in clause_matchers:
        clause_mask = None
        for field, matcher in clause:
            part = matcher(cols.column(field))
            clause_mask = part if clause_mask is None \
                else clause_mask & part
        if clause_mask is None:  # empty clause: matches everything
            return np.ones(n, dtype=bool)
        mask = clause_mask if mask is None else mask | clause_mask
    if mask is None:
        return np.zeros(n, dtype=bool)
    return mask
