"""Workload rules the timed runs rely on, checked on short loops."""

import pytest

from bench import harness, inputs
from bench.workloads import WORKLOADS, admit_churn


def test_no_shard_ever_holds_two_open_egress_residents():
    state = admit_churn.State(seed=5)
    kinds = {}
    stream = state.stream

    def remember():
        for tenant in stream:
            kinds[tenant.request.module_name] = tenant
            yield tenant

    state.stream = remember()
    rec = harness.Recorder()
    for _ in range(400):
        state.step(rec)
        for segment in admit_churn.segments(state):
            resident = list(segment.controller.deployed)
            assert len(resident) <= admit_churn.RESIDENTS_PER_SHARD
            assert sum(kinds[m].open_egress for m in resident) <= 1
    assert not state.problems
    assert any(t.open_egress for t in kinds.values())


def test_a_wrong_decision_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(
        admit_churn, "decision_of", lambda result: inputs.REJECT
    )
    state = admit_churn.State(seed=5)
    for _ in range(20):
        state.step(harness.Recorder())
    assert state.problems
    assert len(admit_churn.verify(state)) >= len(state.problems)


def test_the_golden_verdicts_are_the_first_thousand_of_the_golden_seed():
    with open(admit_churn.GOLDEN_PATH) as handle:
        golden = handle.read().strip()
    assert len(golden) == 1000
    state = admit_churn.State(seed=admit_churn.GOLDEN_SEED)
    for _ in range(120):
        state.step(harness.Recorder())
    assert "".join(state.verdicts) == golden[:120]
    state.verdicts[3] = "?"
    assert any("golden" in p for p in admit_churn.verify(state))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fixed_op_budgets_do_the_same_work_twice(name):
    """A traced pass is bounded by op counts, so two passes of one seed
    attempt exactly the same operations."""
    workload = WORKLOADS[name]
    attempted = []
    for _ in range(2):
        state = workload.setup(3)
        try:
            workload.run(state, harness.Recorder(),
                         harness.Budget(scale=0.25))
            assert workload.verify(state) == []
        finally:
            if hasattr(workload, "teardown"):
                workload.teardown(state)
        attempted.append(state.attempted)
    assert attempted[0] == attempted[1] > 0


def test_tracer_records_parents_and_self_time():
    tracer = harness.Tracer()

    class Layer:
        def inner(self):
            return 1

    layer = Layer()
    tracer.wrap(layer, "inner", "layer.inner")
    tracer.request = 42
    assert tracer.timed("outer", lambda: layer.inner() + layer.inner()) == 2
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "layer.inner", "layer.inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert {span[4] for span in tracer.spans} == {42}
    own = tracer.self_seconds()
    assert own["outer"] <= tracer.total("outer")
    assert abs(sum(own.values()) - tracer.total("outer")) < 1e-9
    assert 0.99 < tracer.coverage() <= 1.0
