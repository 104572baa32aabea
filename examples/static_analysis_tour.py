#!/usr/bin/env python3
"""A tour of the symbolic execution engine: the paper's Figure 2.

Reproduces the static-checking walkthrough of Section 3: a network
with a stateful firewall that only allows outgoing UDP, and a content
provider's server that answers by swapping source and destination.
Symbolic execution proves (a) the payload arrives unchanged, and
(b) the server's replies are implicitly authorized (IPdst is bound to
the variable IPsrc had on ingress), so it is safe to host the server
in the operator's network.

The finale times the whole pipeline as the controller runs it: a cold
admission (compile + place + verify from scratch) against a warm one
(verdict and model caches hot), with the engine fast path's
prune/memo/copy-on-write counters alongside — the kind of counts tier-1
pins for a cold admission.  See docs/symexec.md for the machinery.

Run:  python examples/static_analysis_tour.py
"""

import time

from repro.click import parse_config
from repro.common import fields as F
from repro.core import (
    ClientRequest, Controller, ROLE_CLIENT, ROLE_THIRD_PARTY,
    SecurityAnalyzer,
)
from repro.netmodel.examples import figure3_network
from repro.symexec import SymbolicEngine, SymGraph
from repro.symexec import tuning

FIGURE2_NETWORK = """
    client :: FromNetfront();
    fw_out :: IPFilter(allow udp);
    server :: EchoResponder();
    back   :: ToNetfront();
    client -> fw_out -> server -> back;
"""


def show_flow(flow) -> None:
    print("  path     :", " -> ".join(t.node for t in flow.trace))
    print("  writes   :", ", ".join(
        "%s@%s" % (w.field, w.node) for w in flow.writes) or "(none)")
    ingress = flow.trace[0].snapshot
    egress = flow.trace[-1].snapshot
    print("  ip_proto :", flow.field_domain(F.IP_PROTO))
    print("  aliasing : egress ip_dst %s ingress ip_src  (uids %d / %d)"
          % ("IS" if egress[F.IP_DST] == ingress[F.IP_SRC] else "is NOT",
             egress[F.IP_DST], ingress[F.IP_SRC]))
    print("  payload  : %s" % (
        "invariant end-to-end"
        if not flow.writers_of(F.PAYLOAD)
        else "rewritten by " + "/".join(flow.writers_of(F.PAYLOAD))
    ))


def main() -> None:
    print("== Figure 2: symbolic execution of firewall + server ==\n")
    config = parse_config(FIGURE2_NETWORK)
    engine = SymbolicEngine(SymGraph.from_click(config))
    exploration = engine.inject("client")
    print("symbolic flows delivered: %d  (model evaluations: %d)\n"
          % (len(exploration.delivered), exploration.steps))
    for flow in exploration.delivered:
        show_flow(flow)

    print("\n== The same proof, as the controller runs it ==\n")
    analyzer = SecurityAnalyzer()
    server_only = parse_config("""
        src :: FromNetfront();
        server :: EchoResponder();
        out :: ToNetfront();
        src -> server -> out;
    """)
    report = analyzer.analyze(server_only, ROLE_THIRD_PARTY)
    print("third-party EchoResponder verdict: %s" % report.verdict)
    print("-> the operator can host the content provider's server")
    print("   without sandboxing: every reply goes back to its sender.")

    print("\n== And a case it must refuse ==\n")
    spoofer = parse_config("""
        src :: FromNetfront();
        evil :: SetIPSrc(6.6.6.6);
        out :: ToNetfront();
        src -> evil -> out;
    """)
    report = analyzer.analyze(spoofer, ROLE_THIRD_PARTY)
    print("spoofing module verdict: %s" % report.verdict)
    for finding in report.findings:
        print("  %s" % finding)

    print("\n== What a verdict costs: cold vs. warm admission ==\n")
    controller = Controller(figure3_network())
    request = ClientRequest(
        client_id="mobile1",
        role=ROLE_CLIENT,
        config_source="""
            FromNetfront() ->
            IPFilter(allow udp port 1500) ->
            IPRewriter(pattern - - 172.16.15.133 - 0 0)
            -> TimedUnqueue(120, 100)
            -> dst :: ToNetfront();
        """,
        requirements="reach from internet udp -> client dst port 1500",
        owned_addresses=("172.16.15.133",),
        module_name="batcher",
    )
    before = tuning.counters()
    started = time.perf_counter()
    result = controller.request(request, dry_run=True)
    cold = time.perf_counter() - started
    delta = {k: v - before[k] for k, v in tuning.counters().items()}
    started = time.perf_counter()
    controller.request(request, dry_run=True)
    warm = time.perf_counter() - started
    print("cold admission: %6.2f ms  (accepted=%s; nothing cached:"
          % (cold * 1e3, result.accepted))
    print("                compile the network model, trial-place,")
    print("                verify every requirement symbolically)")
    print("warm admission: %6.2f ms  (verdict + model caches hot)"
          % (warm * 1e3))
    print("\nEven the cold path is fast because the engine prunes and")
    print("reuses instead of recomputing.  This admission alone did:")
    print("  flow forks        : %5d" % delta["forks"])
    print("  branches pruned   : %5d  (proven empty before forking)"
          % delta["prunes"])
    print("  model memo hits   : %5d  (router splits, table branches)"
          % delta["memo_hits"])
    print("  copy-on-write     : %5d  (forks that actually diverged)"
          % delta["cow_copies"])
    interval = tuning.stats()["interval_cache"]
    print("  interval-op cache : %d hits / %d misses"
          % (interval["hits"], interval["misses"]))
    print("\nNone of it changes a verdict: tests/symexec/")
    print("test_differential.py holds this one engine to the seed")
    print("engine's recorded output, byte for byte, and tier-1 pins")
    print("the work of a cold admission on the 63-middlebox network")
    print("by exact counts.")


if __name__ == "__main__":
    main()
