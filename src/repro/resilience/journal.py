"""The controller's write-ahead deployment journal.

Section 4.3's controller is the single point whose loss would strand
every tenant: ``deployed``, ``client_addresses``, and the installed
flow rules exist only in its memory.  The journal fixes that with the
classic write-ahead discipline:

* before mutating state the controller appends an ``intent`` record,
* after the mutation commits it appends a matching ``commit`` record.

:meth:`Controller.recover <repro.core.controller.Controller.recover>`
replays the journal -- folding committed deploys, kills, and
migrations in order, dropping intents that never committed -- and then
*reconciles* the platforms against the rebuilt state (orphan trial
placements left by a crash between intent and commit are undeployed
and their addresses released).  The result converges to the exact
pre-crash control-plane state; the chaos harness asserts digest
equality.

Record format (one JSON object per line via :meth:`to_jsonl`)::

    {"seq": 3, "op": "deploy", "phase": "commit",
     "module_id": "batcher", "client_id": "mobile1",
     "platform": "platform3", "address": 3221225985,
     "sandboxed": false, "proto": 17, "port": 1500,
     "timestamp": 12.5, "config_fingerprint": "..."}

Click configurations and parsed requirement objects ride along
in-memory (replay needs them to re-verify after recovery); the JSONL
projection carries the config *fingerprint* only and is meant for
auditing, not for cross-process replay.

The journal keeps its *fold*, not its history: the replay views are
maintained as records arrive, and records no view can depend on any
more are dropped by an amortised compaction, so a long-lived
controller retains memory proportional to what is deployed.
``len(journal)`` still counts every record ever appended; the JSONL
projection covers the retained ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

#: Journal operations.
OP_DEPLOY = "deploy"
OP_KILL = "kill"
OP_MIGRATE = "migrate"
OP_REGISTER = "register-address"

#: Record phases.
PHASE_INTENT = "intent"
PHASE_COMMIT = "commit"


@dataclass
class JournalRecord:
    """One append-only journal entry."""

    seq: int
    op: str
    phase: str
    module_id: str = ""
    client_id: str = ""
    platform: str = ""
    address: Optional[int] = None
    #: Migration provenance.
    source: str = ""
    source_address: Optional[int] = None
    sandboxed: bool = False
    proto: Optional[int] = None
    port: Optional[int] = None
    timestamp: float = 0.0
    #: Free-text provenance for records written on behalf of another
    #: control-plane domain (e.g. ``"reshard:shard-0"`` when a live
    #: reshard adopts a module from a peer shard).  Audit-only: replay
    #: ignores it.
    origin: str = ""
    #: In-memory payloads (not serialized to JSONL).
    config: Optional[object] = None
    requirements: Tuple = ()

    def to_dict(self) -> dict:
        """JSON-safe projection (config reduced to its fingerprint)."""
        out = {
            "seq": self.seq,
            "op": self.op,
            "phase": self.phase,
            "module_id": self.module_id,
            "client_id": self.client_id,
            "platform": self.platform,
            "address": self.address,
            "sandboxed": self.sandboxed,
            "proto": self.proto,
            "port": self.port,
            "timestamp": self.timestamp,
        }
        if self.op == OP_MIGRATE:
            out["source"] = self.source
            out["source_address"] = self.source_address
        if self.origin:
            out["origin"] = self.origin
        fingerprint = getattr(self.config, "fingerprint", None)
        if callable(fingerprint):
            out["config_fingerprint"] = fingerprint()
        return out


#: Compaction waits until settled records outnumber unsettled ones by
#: more than this, so a journal of a few records is never rewritten.
_COMPACT_SLACK = 16


class DeploymentJournal:
    """In-memory write-ahead log of deployment state.

    :meth:`append` folds every record into the replay views as it
    arrives -- live deployments, open intents, registered addresses,
    deploy count -- so the views answer in O(live state) without
    rescanning history.  :attr:`records` holds the *retained* records:
    everything still unsettled (open intents, the deploy and latest
    migration of every live module, address registrations) plus
    settled ones not yet compacted away.  A record is settled once it
    can no longer change any view: both halves of a deploy whose
    module has since been killed, kill pairs, superseded or no-op
    migrations.  Replaying the retained records reproduces the live
    state, the open intents and the registrations.
    """

    def __init__(self, obs=None):
        from repro.obs import NULL_OBSERVABILITY

        self.records: List[JournalRecord] = []
        self._seq = itertools.count(1)
        #: Records ever appended (``len()``), compacted or not.
        self._appended = 0
        #: Settled records still in :attr:`records`.
        self._settled = 0
        self.compactions = 0
        #: module id -> effective deployment record (the fold).
        self._live: Dict[str, JournalRecord] = {}
        #: module id -> retained records behind its ``_live`` entry:
        #: the deploy pair, then the latest committed migrate pair.
        self._live_backing: Dict[str, List[JournalRecord]] = {}
        #: (op, module id) -> intents awaiting their commit, oldest
        #: first.
        self._open: Dict[Tuple[str, str], List[JournalRecord]] = {}
        self._registered: Dict[str, List[int]] = {}
        self._deploys_seen = 0
        obs = obs if obs is not None else NULL_OBSERVABILITY
        self._c_records = obs.metrics.counter(
            "resilience_journal_records_total",
            "Journal records appended", labels=("op", "phase"),
        )
        self._c_compactions = obs.metrics.counter(
            "resilience_journal_compactions_total",
            "Times settled journal records were dropped",
        )

    def append(self, op: str, phase: str, **fields) -> JournalRecord:
        """Append one record; returns it (seq assigned)."""
        record = JournalRecord(
            seq=next(self._seq), op=op, phase=phase, **fields
        )
        self.records.append(record)
        self._appended += 1
        self._c_records.labels(op, phase).inc()
        if phase == PHASE_INTENT:
            self._open.setdefault(
                (op, record.module_id), []
            ).append(record)
            if op == OP_DEPLOY:
                self._deploys_seen += 1
        elif phase == PHASE_COMMIT:
            self._fold_commit(record)
            if self._settled > (
                len(self.records) - self._settled + _COMPACT_SLACK
            ):
                self.compact()
        return record

    def _fold_commit(self, record: JournalRecord) -> None:
        """Apply one commit to the views and count what it settles."""
        op, module_id = record.op, record.module_id
        # A commit matches the latest earlier intent with the same op
        # and module id.
        pair = [record]
        key = (op, module_id)
        stack = self._open.get(key)
        if stack:
            pair.insert(0, stack.pop())
            if not stack:
                del self._open[key]
        if op == OP_DEPLOY:
            self._settled += len(self._live_backing.get(module_id, ()))
            self._live[module_id] = record
            self._live_backing[module_id] = pair
        elif op == OP_KILL:
            self._live.pop(module_id, None)
            self._settled += len(pair) + len(
                self._live_backing.pop(module_id, ())
            )
        elif op == OP_MIGRATE:
            base = self._live.get(module_id)
            if base is None:
                self._settled += len(pair)
                return
            # Migrations rewrite platform/address in place (the config,
            # listen steering, and requirements carry over).
            self._live[module_id] = replace(
                base, seq=record.seq, op=OP_DEPLOY, phase=PHASE_COMMIT,
                platform=record.platform, address=record.address,
                source="", source_address=None, origin="",
            )
            backing = self._live_backing[module_id]
            deploy_pair = [r for r in backing if r.op == OP_DEPLOY]
            self._settled += len(backing) - len(deploy_pair)
            self._live_backing[module_id] = deploy_pair + pair
        elif op == OP_REGISTER and record.address is not None:
            self._registered.setdefault(
                record.client_id, []
            ).append(record.address)

    def compact(self) -> int:
        """Drop settled records; returns how many went."""
        keep = {
            record.seq
            for group in (self._open, self._live_backing)
            for records in group.values()
            for record in records
        }
        before = len(self.records)
        self.records = [
            r for r in self.records
            if r.op == OP_REGISTER or r.seq in keep
        ]
        self._settled = 0
        self.compactions += 1
        self._c_compactions.inc()
        return before - len(self.records)

    # -- replay views ------------------------------------------------------
    def committed(self) -> List[JournalRecord]:
        """Retained commit-phase records in append order."""
        return [r for r in self.records if r.phase == PHASE_COMMIT]

    def pending_intents(self) -> List[JournalRecord]:
        """Intents with no matching commit (in-flight at a crash)."""
        return sorted(
            (r for stack in self._open.values() for r in stack),
            key=lambda r: r.seq,
        )

    def live_state(self) -> Dict[str, JournalRecord]:
        """module id -> effective deployment record after replay:
        deploys create, kills remove, migrations rewrite
        platform/address."""
        return dict(self._live)

    def registered_addresses(self) -> Dict[str, List[int]]:
        """client id -> explicitly registered addresses, in order."""
        return {
            client_id: list(addresses)
            for client_id, addresses in self._registered.items()
        }

    def deploys_seen(self) -> int:
        """Deploy intents ever written (seeds the module-id counter)."""
        return self._deploys_seen

    # -- serialization -----------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per retained record, newline separated."""
        return "\n".join(
            json.dumps(r.to_dict(), sort_keys=True) for r in self.records
        )

    def __len__(self) -> int:
        """Records ever appended (compaction does not shrink this)."""
        return self._appended


class _NullJournal:
    """Shared no-op journal for controllers run without one."""

    __slots__ = ()

    def append(self, op, phase, **fields):
        return None


#: The shared disabled journal (mirrors ``NULL_METRIC``'s idiom).
NULL_JOURNAL = _NullJournal()
