"""Policy edits reuse the statements they keep.

``Controller.set_operator_requirements`` keeps every requirement of
the previous policy whose source -- the statement's
whitespace-normalised text -- is still in the new block, and parses
only the rest.  These tests pin what "the same
statement" means, that a bad edit changes nothing, and that a
controller edited many times decides exactly like a fresh one given
the final text.
"""

import random

import pytest

from repro.common.errors import PolicyError
from repro.core import Controller
from repro.core import controller as controller_module
from repro.netmodel.examples import star_network
from repro.policy import grammar, parse_requirements, split_statements

PLATFORMS = 4

#: Statements of every mode; some hold on the star and some do not.
POOL = [
    "reach from internet udp dst net 192.0.1.0/24 -> platform0",
    "reach from internet udp dst net 192.0.3.0/24 -> platform2",
    "reach from 192.0.1.0/24 -> internet",
    "isolate from client -> 192.0.2.0/24",
    "isolate from internet tcp dst port 22 -> clients",
    "always from internet tcp dst net 192.0.3.0/24 -> r0 -> platform2",
    "always from client -> r0 -> internet",
    "always from internet udp -> r0\n    -> platform1",
]

MALFORMED = [
    "reach from internet",
    "always from internet -> client",
    "reach from internet -> client const",
    "reach from internet -> 1.2.3.4:x:y:z",
]


def verdicts(results):
    return [(bool(r), str(r.requirement), r.reason) for r in results]


def parses(monkeypatch):
    seen = []
    original = grammar.parse_requirement

    def counted(text):
        seen.append(text)
        return original(text)

    monkeypatch.setattr(grammar, "parse_requirement", counted)
    monkeypatch.setattr(controller_module, "parse_requirement", counted)
    return seen


class TestWhatIsReused:
    def test_whitespace_variants_are_the_same_statement(self, monkeypatch):
        controller = Controller(star_network(PLATFORMS), POOL[0])
        kept = controller.operator_requirements[0]
        seen = parses(monkeypatch)
        controller.set_operator_requirements(
            "  reach   from internet udp\n\tdst net 192.0.1.0/24\n"
            "      ->   platform0  ")
        assert seen == []
        assert controller.operator_requirements == [kept]
        assert controller.operator_requirements[0] is kept

    @pytest.mark.parametrize("statement", POOL[3:])
    def test_isolate_and_always_are_reused(self, monkeypatch, statement):
        controller = Controller(star_network(PLATFORMS), statement)
        kept = controller.operator_requirements[0]
        assert kept.mode in ("isolate", "always")
        seen = parses(monkeypatch)
        controller.set_operator_requirements(statement + "\n" + POOL[0])
        assert seen == [POOL[0]]
        assert controller.operator_requirements[0] is kept

    def test_a_changed_statement_is_reparsed(self, monkeypatch):
        controller = Controller(star_network(PLATFORMS), POOL[0])
        seen = parses(monkeypatch)
        edited = POOL[0].replace("udp", "tcp")
        controller.set_operator_requirements(edited)
        assert seen == [edited]
        assert str(controller.operator_requirements[0]) == edited

    def test_reuse_is_bounded_by_the_policy(self, monkeypatch):
        # Only the policy being replaced is reused: a statement dropped
        # by an earlier edit is parsed again when it comes back.
        controller = Controller(star_network(PLATFORMS), POOL[0])
        controller.set_operator_requirements(POOL[1])
        seen = parses(monkeypatch)
        controller.set_operator_requirements(POOL[0])
        assert seen == [POOL[0]]

    def test_split_statements_normalises_each_statement(self):
        assert split_statements("\n".join(POOL)) == [
            " ".join(statement.split()) for statement in POOL
        ]
        for statement, requirement in zip(
            split_statements("\n".join(POOL)),
            parse_requirements("\n".join(POOL)),
        ):
            assert requirement.source == statement


class TestMalformedEdits:
    @pytest.mark.parametrize("bad", MALFORMED)
    def test_bad_edit_changes_nothing(self, bad):
        controller = Controller(star_network(PLATFORMS), "\n".join(POOL))
        before = verdicts(controller.verify_snapshot())
        requirements = controller.operator_requirements
        listed = list(requirements)
        cached = controller.stats()["verification_cache"]["entries"]
        with pytest.raises(PolicyError):
            controller.set_operator_requirements(
                "\n".join(POOL[:2] + [bad] + POOL[4:]))
        assert controller.operator_requirements is requirements
        assert controller.operator_requirements == listed
        assert controller.stats()["verification_cache"]["entries"] == cached
        stats = controller.stats()["verification_cache"]
        assert verdicts(controller.verify_snapshot()) == before
        after = controller.stats()["verification_cache"]
        # Every verdict is still cached: the snapshot re-explored none.
        assert after["hits"] - stats["hits"] == len(POOL)
        assert after["stores"] == stats["stores"]


def flowspec_state(requirements):
    """Everything a parsed FlowSpec holds, down to the clause objects."""
    state = {}
    for requirement in requirements:
        for hop in requirement.hops:
            spec = hop.flow
            if spec is not None:
                state[id(spec)] = (
                    spec, spec.source, id(spec.clauses),
                    [(id(clause), clause.constraint_items())
                     for clause in spec.clauses],
                )
    return state


class TestEditSequences:
    @pytest.mark.parametrize("seed", range(3))
    def test_edited_controller_decides_like_a_fresh_one(self, seed):
        rng = random.Random(seed)
        current = [POOL[0]]
        controller = Controller(star_network(PLATFORMS), current[0])
        parsed = flowspec_state(controller.operator_requirements)
        for _step in range(12):
            move = rng.random()
            if move < 0.35 or len(current) < 2:
                current.insert(rng.randrange(len(current) + 1),
                               rng.choice(POOL))
            elif move < 0.6:
                current.pop(rng.randrange(len(current)))
            elif move < 0.8:
                # Re-flow one statement's whitespace.
                index = rng.randrange(len(current))
                current[index] = "  " + current[index].replace(
                    " -> ", "\n\t->   ")
            else:
                with pytest.raises(PolicyError):
                    controller.set_operator_requirements("\n".join(
                        current + [rng.choice(MALFORMED)]))
            text = "\n".join(current)
            controller.set_operator_requirements(text)
            for key, state in flowspec_state(
                    controller.operator_requirements).items():
                parsed.setdefault(key, state)
            fresh = Controller(star_network(PLATFORMS), text)
            assert verdicts(controller.verify_snapshot()) == \
                verdicts(fresh.verify_snapshot())
        # Verification never mutates a parsed FlowSpec (reuse shares
        # them across policies, so one that changed would leak).
        for spec, source, clauses_id, clauses in parsed.values():
            assert spec.source == source
            assert id(spec.clauses) == clauses_id
            assert [(id(clause), clause.constraint_items())
                    for clause in spec.clauses] == clauses
