"""Section 7: amplification attacks and their mitigations.

Not a figure in the paper, but a quantified claim: spoofed-source
traffic can turn a DNS-style module into an amplifier; ingress
filtering confines spoofing, and banning connectionless traffic
removes the vector entirely ("operators must choose between
flexibility of client processing and security").
"""

from _report import fmt, print_table
from repro.usecases.amplification import compare_mitigations


def test_amplification_mitigations(benchmark):
    rows_raw = benchmark.pedantic(
        lambda: compare_mitigations(queries=100), rounds=1, iterations=1
    )
    rows = [
        (label, fmt(factor, 1) + "x", packets)
        for label, factor, packets in rows_raw
    ]
    print_table(
        "Section 7: DNS-style amplification against an In-Net module",
        ("operator policy", "amplification", "packets at victim"),
        rows,
        note="Ingress filtering confines spoofing to the attacker's "
             "own domain; a TCP-only policy removes reflection "
             "entirely (no handshake, no response).",
    )
    by_label = {label: factor for label, factor, _p in rows_raw}
    assert by_label["UDP, no ingress filtering"] >= 5
    assert by_label["UDP, ingress filtering"] == 0
    assert by_label["TCP only (connectionless banned)"] == 0

