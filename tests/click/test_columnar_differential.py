"""Registry-wide differential test: columnar vs scalar execution.

The columnar tier re-runs the whole differential matrix of
``test_batch_differential``: every registered element class processes
the same diverse traffic three ways -- scalar ``inject``, the
list-based ``push_batch`` executor, and the struct-of-arrays column
plans -- and all three must agree on the canonical egress at every
sink, the runtime drop count, and every element's numeric state.

``columnar.MIN_BATCH`` is forced to 1 so even the small differential
trains take the column-plan path wherever a plan exists.  Elements
without kernels (and segments broken by joins, buffering, or
side-table columns) exercise the fallback: the runtime must route
those batches through ``push_batch`` untouched, which this test
proves by equality and by the runtime's fallback counters.
"""

import pytest

pytest.importorskip("numpy")

from repro.click import Runtime, parse_config
from repro.click import columnar
from test_batch_differential import (
    SPECS,
    Spec,
    build_config,
    egress_by_sink,
    forward_packets,
    numeric_state,
)


@pytest.fixture(autouse=True)
def _force_columnar(monkeypatch):
    """Lift every batch, however small, into columns."""
    monkeypatch.setattr(columnar, "MIN_BATCH", 1)


def run_columns(name: str, spec: Spec, mode: str):
    runtime = Runtime(
        parse_config(build_config(name, spec)),
        use_columns=(mode == "columns"),
    )
    entries = spec.entries or tuple(
        "src%d" % i for i in range(spec.inputs)
    )
    per_source = spec.traffic()
    assert len(per_source) >= len(entries)
    for entry, packets in zip(entries, per_source):
        if mode == "scalar":
            for packet in packets:
                runtime.inject(entry, packet)
        else:
            runtime.inject_batch(entry, packets)
    if spec.run:
        runtime.run(until=60.0)
    return (
        egress_by_sink(runtime),
        runtime.dropped,
        numeric_state(runtime),
        runtime,
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_columnar_matches_scalar_and_batch(name):
    spec = SPECS[name]
    s_egress, s_dropped, s_state, _ = run_columns(name, spec, "scalar")
    b_egress, b_dropped, b_state, _ = run_columns(name, spec, "batch")
    c_egress, c_dropped, c_state, rt = run_columns(name, spec, "columns")
    assert c_egress == s_egress
    assert c_dropped == s_dropped
    assert c_state == s_state
    assert (c_egress, c_dropped, c_state) \
        == (b_egress, b_dropped, b_state)


#: Elements with kernels whose default differential config compiles to
#: an all-kernel segment, so the column plan must actually engage.
KERNEL_COVERED = (
    "CheckIPHeader",
    "Counter",
    "Discard",
    "FlowMeter",
    "IPClassifier",
    "IPFilter",
    "IPRewriter",
    "Idle",
    "Paint",
    "SetIPAddress",
    "SetIPSrc",
    "SetIPTOS",
    "SetIPTTL",
    "SetTPDst",
    "SetTPSrc",
    "Switch",
    "DecIPTTL",
)


@pytest.mark.parametrize("name", KERNEL_COVERED)
def test_column_plan_engages(name):
    """Kernel-bearing elements must actually run the columnar path on
    at least one batch of the differential traffic (batches carrying
    side-table columns -- portless ICMP packets -- legitimately fall
    back, but clean batches must lift)."""
    spec = SPECS[name]
    *_ignored, rt = run_columns(name, spec, "columns")
    assert rt.columnar_batches + rt.columnar_fallbacks > 0
    assert rt.columnar_batches > 0, (
        "no batch took the column plan for %s" % name
    )


def test_kernel_less_segment_falls_back_entirely():
    """A segment containing a kernel-less element compiles to no plan,
    so its batches cross via push_batch (downstream all-kernel
    segments -- the bare sinks here -- may still lift)."""
    runtime = Runtime(parse_config(
        "src0 :: FromNetfront(); dut :: Tee(2);"
        " out0 :: ToNetfront(); out1 :: ToNetfront();"
        " src0 -> dut; dut[0] -> out0; dut[1] -> out1;"
    ), use_columns=True)
    runtime.inject_batch("src0", forward_packets())
    plan = runtime.segment_plan("src0")
    assert plan.tier == "batch"
    assert plan.why_not_columns == "dut: Tee has no column kernel"
    assert runtime.columnar_fallbacks == 0
    # Tee duplicated the train into both sinks.
    assert len(runtime.output) == 2 * len(forward_packets())


def test_side_table_batch_falls_back():
    """A batch whose lifted columns hit the side table (portless
    packets under a port-writing kernel) must fall back to push_batch
    -- which handles them fine -- and count the fallback."""
    runtime = Runtime(parse_config(
        "src0 :: FromNetfront(); dut :: SetTPSrc(4000);"
        " out0 :: ToNetfront(); src0 -> dut -> out0;"
    ), use_columns=True)
    packets = forward_packets()
    for packet in packets:
        packet.fields.pop("tp_src", None)
    runtime.inject_batch("src0", packets)
    assert runtime.columnar_fallbacks > 0
    assert runtime.columnar_batches == 0
    assert len(runtime.output) == len(packets)
    assert all(
        record.packet.fields["tp_src"] == 4000
        for record in runtime.output
    )


def test_use_columns_false_never_lifts():
    runtime = Runtime(parse_config(
        "src0 :: FromNetfront(); dut :: Counter();"
        " out0 :: ToNetfront(); src0 -> dut -> out0;"
    ), use_columns=False)
    runtime.inject_batch("src0", forward_packets())
    assert runtime.columnar_batches == 0
    assert len(runtime.output) == len(forward_packets())
