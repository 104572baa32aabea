"""Tests for the write-ahead deployment journal and replay views."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.resilience.journal import (
    DeploymentJournal,
    NULL_JOURNAL,
    OP_DEPLOY,
    OP_KILL,
    OP_MIGRATE,
    OP_REGISTER,
    PHASE_COMMIT,
    PHASE_INTENT,
)


def deploy_pair(journal, module_id, platform="pa", address=1,
                client_id="alice", **extra):
    journal.append(OP_DEPLOY, PHASE_INTENT, module_id=module_id,
                   client_id=client_id, platform=platform,
                   address=address, **extra)
    return journal.append(OP_DEPLOY, PHASE_COMMIT, module_id=module_id,
                          client_id=client_id, platform=platform,
                          address=address, **extra)


class TestAppend:
    def test_seq_is_monotonic_from_one(self):
        journal = DeploymentJournal()
        records = [
            journal.append(OP_DEPLOY, PHASE_INTENT, module_id="m%d" % i)
            for i in range(3)
        ]
        assert [r.seq for r in records] == [1, 2, 3]
        assert len(journal) == 3

    def test_records_counter_by_op_and_phase(self):
        obs = Observability()
        journal = DeploymentJournal(obs=obs)
        deploy_pair(journal, "m1")
        text = obs.to_prometheus()
        assert (
            'resilience_journal_records_total'
            '{op="deploy",phase="intent"} 1' in text
        )
        assert (
            'resilience_journal_records_total'
            '{op="deploy",phase="commit"} 1' in text
        )


class TestPendingIntents:
    def test_unmatched_intent_is_pending(self):
        journal = DeploymentJournal()
        deploy_pair(journal, "m1")
        journal.append(OP_DEPLOY, PHASE_INTENT, module_id="m2")
        pending = journal.pending_intents()
        assert [r.module_id for r in pending] == ["m2"]

    def test_commit_matches_the_latest_intent(self):
        journal = DeploymentJournal()
        journal.append(OP_DEPLOY, PHASE_INTENT, module_id="m1")
        journal.append(OP_DEPLOY, PHASE_INTENT, module_id="m1")
        journal.append(OP_DEPLOY, PHASE_COMMIT, module_id="m1")
        assert len(journal.pending_intents()) == 1

    def test_ops_match_independently(self):
        journal = DeploymentJournal()
        journal.append(OP_MIGRATE, PHASE_INTENT, module_id="m1")
        journal.append(OP_KILL, PHASE_COMMIT, module_id="m1")
        assert [r.op for r in journal.pending_intents()] == [OP_MIGRATE]


class TestLiveState:
    def test_deploy_kill_migrate_fold(self):
        journal = DeploymentJournal()
        deploy_pair(journal, "m1", platform="pa", address=10,
                    proto=17, port=1500)
        deploy_pair(journal, "m2", platform="pa", address=11)
        journal.append(OP_KILL, PHASE_COMMIT, module_id="m2")
        journal.append(OP_MIGRATE, PHASE_COMMIT, module_id="m1",
                       platform="pb", address=20,
                       source="pa", source_address=10)
        live = journal.live_state()
        assert sorted(live) == ["m1"]
        assert live["m1"].platform == "pb"
        assert live["m1"].address == 20
        # Steering and identity carry over from the original deploy.
        assert live["m1"].proto == 17 and live["m1"].port == 1500
        assert live["m1"].client_id == "alice"

    def test_migration_without_a_base_deploy_is_ignored(self):
        journal = DeploymentJournal()
        journal.append(OP_MIGRATE, PHASE_COMMIT, module_id="ghost",
                       platform="pb", address=5)
        assert journal.live_state() == {}

    def test_uncommitted_intents_do_not_appear(self):
        journal = DeploymentJournal()
        journal.append(OP_DEPLOY, PHASE_INTENT, module_id="m1",
                       platform="pa", address=10)
        assert journal.live_state() == {}


class TestViews:
    def test_registered_addresses_in_order(self):
        journal = DeploymentJournal()
        journal.append(OP_REGISTER, PHASE_COMMIT,
                       client_id="alice", address=7)
        journal.append(OP_REGISTER, PHASE_COMMIT,
                       client_id="alice", address=9)
        journal.append(OP_REGISTER, PHASE_COMMIT,
                       client_id="bob", address=8)
        assert journal.registered_addresses() == {
            "alice": [7, 9], "bob": [8],
        }

    def test_deploys_seen_counts_intents(self):
        journal = DeploymentJournal()
        deploy_pair(journal, "m1")
        journal.append(OP_DEPLOY, PHASE_INTENT, module_id="m2")
        journal.append(OP_KILL, PHASE_INTENT, module_id="m1")
        assert journal.deploys_seen() == 2


class TestJsonl:
    def test_one_json_object_per_record(self):
        journal = DeploymentJournal()
        deploy_pair(journal, "m1", proto=17, port=1500)
        lines = journal.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["op"] == "deploy" and first["phase"] == "intent"
        assert first["module_id"] == "m1"
        assert first["proto"] == 17 and first["port"] == 1500

    def test_config_reduced_to_fingerprint(self):
        from repro.click.config import parse_config

        config = parse_config(
            "FromNetfront() -> dst :: ToNetfront();"
        )
        journal = DeploymentJournal()
        deploy_pair(journal, "m1", config=config)
        record = json.loads(journal.to_jsonl().splitlines()[0])
        assert record["config_fingerprint"]
        assert "config" not in record

    def test_migrations_carry_provenance(self):
        journal = DeploymentJournal()
        journal.append(OP_MIGRATE, PHASE_COMMIT, module_id="m1",
                       platform="pb", address=20,
                       source="pa", source_address=10)
        record = json.loads(journal.to_jsonl())
        assert record["source"] == "pa"
        assert record["source_address"] == 10


class TestNullJournal:
    def test_append_is_a_noop(self):
        assert NULL_JOURNAL.append(OP_DEPLOY, PHASE_INTENT,
                                   module_id="m") is None

    def test_controller_without_journal_uses_the_null_object(self):
        from repro.core.controller import Controller
        from repro.resilience.chaos import chaos_network

        controller = Controller(chaos_network())
        assert controller.journal is NULL_JOURNAL


# -- the fold against a rescanning oracle -----------------------------------

MODULES = ("a", "b", "c")
PLATFORMS = ("pa", "pb", "pc")

#: One journal-level operation: (kind, module id, platform, address).
journal_ops = st.lists(
    st.tuples(
        st.sampled_from((
            "deploy", "deploy-intent", "kill", "kill-intent",
            "migrate", "migrate-intent", "register",
        )),
        st.sampled_from(MODULES),
        st.sampled_from(PLATFORMS),
        st.integers(min_value=1, max_value=9),
    ),
    max_size=60,
)


def write(journal, log, kind, module_id, platform, address):
    """Append what ``kind`` stands for; ``log`` keeps every record."""
    def append(op, phase, **fields):
        log.append(journal.append(op, phase, **fields))

    fields = dict(
        module_id=module_id, client_id="client-" + module_id,
        platform=platform, address=address,
    )
    if kind == "register":
        append(OP_REGISTER, PHASE_COMMIT,
               client_id="client-" + module_id, address=address)
        return
    op = {"deploy": OP_DEPLOY, "kill": OP_KILL, "migrate": OP_MIGRATE}[
        kind.split("-")[0]
    ]
    append(op, PHASE_INTENT, **fields)
    if not kind.endswith("-intent"):
        append(op, PHASE_COMMIT, **fields)


def rescan(records):
    """The views as a from-scratch scan of ``records`` computes them
    (what the journal did before it kept a fold)."""
    open_intents, live, registered = {}, {}, {}
    for record in records:
        key = (record.op, record.module_id)
        if record.phase == PHASE_INTENT:
            open_intents.setdefault(key, []).append(record)
            continue
        if open_intents.get(key):
            open_intents[key].pop()
        if record.op == OP_DEPLOY:
            live[record.module_id] = (record.platform, record.address)
        elif record.op == OP_KILL:
            live.pop(record.module_id, None)
        elif record.op == OP_MIGRATE and record.module_id in live:
            live[record.module_id] = (record.platform, record.address)
        elif record.op == OP_REGISTER:
            registered.setdefault(record.client_id, []).append(
                record.address
            )
    pending = sorted(
        r.seq for stack in open_intents.values() for r in stack
    )
    return live, pending, registered


def views(journal):
    return (
        {
            module_id: (record.platform, record.address)
            for module_id, record in journal.live_state().items()
        },
        [r.seq for r in journal.pending_intents()],
        journal.registered_addresses(),
    )


class TestFoldAndCompaction:
    @settings(max_examples=200, deadline=None)
    @given(journal_ops)
    def test_views_match_a_rescan_before_and_after_compaction(self, ops):
        journal, log = DeploymentJournal(), []
        for op in ops:
            write(journal, log, *op)
        expected = rescan(log)
        deploys = sum(
            1 for r in log if r.op == OP_DEPLOY and r.phase == PHASE_INTENT
        )
        assert views(journal) == expected
        journal.compact()
        assert views(journal) == expected
        assert journal.deploys_seen() == deploys
        assert len(journal) == len(log)
        # What compaction kept is enough to replay the views from.
        assert rescan(journal.records) == expected
        # And it kept nothing else once every module is settled.
        for module_id in MODULES:
            write(journal, log, "kill", module_id, "pa", 1)
        journal.compact()
        assert {r.op for r in journal.records if r.phase == PHASE_COMMIT} \
            <= {OP_REGISTER}

    def test_small_journals_are_never_rewritten(self):
        journal = DeploymentJournal()
        for round_ in range(4):
            deploy_pair(journal, "m")
            journal.append(OP_KILL, PHASE_INTENT, module_id="m")
            journal.append(OP_KILL, PHASE_COMMIT, module_id="m")
        assert journal.compactions == 0
        assert len(journal.records) == len(journal) == 16

    def test_settled_history_is_dropped_once_it_dominates(self):
        obs = Observability()
        journal = DeploymentJournal(obs=obs)
        deploy_pair(journal, "resident")
        for round_ in range(50):
            deploy_pair(journal, "m")  # the same id, over and over
            journal.append(OP_KILL, PHASE_INTENT, module_id="m")
            journal.append(OP_KILL, PHASE_COMMIT, module_id="m")
        assert len(journal) == 202
        assert journal.compactions >= 1
        assert len(journal.records) < 40
        assert set(journal.live_state()) == {"resident"}
        assert [r.module_id for r in journal.records[:2]] == [
            "resident", "resident",
        ]
        assert "resilience_journal_compactions_total %d" % (
            journal.compactions
        ) in obs.to_prometheus()


#: One controller-level operation: (kind, module name, platform index).
controller_ops = st.lists(
    st.tuples(
        st.sampled_from(("admit", "kill", "migrate", "register")),
        st.sampled_from(MODULES),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1, max_size=25,
)


class TestRecoveryAfterCompaction:
    @settings(max_examples=25, deadline=None)
    @given(controller_ops)
    def test_recover_reaches_the_same_digest(self, ops):
        from repro.core import ClientRequest, Controller, ROLE_CLIENT
        from repro.resilience import controller_state_digest
        from repro.resilience.chaos import chaos_network

        journal = DeploymentJournal()
        controller = Controller(chaos_network(), journal=journal)
        for kind, name, index in ops:
            if kind == "admit":
                controller.request(ClientRequest(
                    client_id="client-" + name,
                    role=ROLE_CLIENT,
                    config_source=(
                        "FromNetfront() -> IPFilter(allow udp port 1500)"
                        " -> IPRewriter(pattern - - 172.16.15.133 - 0 0)"
                        " -> dst :: ToNetfront();"
                    ),
                    requirements="reach from internet udp -> %s:dst:0"
                                 " -> client" % name,
                    owned_addresses=("172.16.15.133",),
                    module_name=name,
                ))
            elif kind == "kill":
                controller.kill(name)
            elif kind == "migrate":
                controller.migrate(name, PLATFORMS[index])
            else:
                controller.register_client_address(
                    "client-" + name, "172.16.20.%d" % (index + 1)
                )
        before = controller_state_digest(controller)
        as_written = controller_state_digest(
            Controller.recover(chaos_network(), journal)
        )
        journal.compact()
        compacted = controller_state_digest(
            Controller.recover(chaos_network(), journal)
        )
        assert as_written == before
        assert compacted == before
