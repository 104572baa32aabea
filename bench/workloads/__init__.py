"""The four workloads, in the order ``BENCHMARK.json`` lists them.

Each module offers ``setup(seed)`` (everything before the timed
region), ``run(state, rec, budget)``, ``verify(state)`` (the oracles),
``end_to_end(state, rec)`` and ``layer_probes(state, rec, before,
after)``; ``teardown(state)`` and ``instrument(state, rec)`` where it
has processes to stop or child spans to install.  A state may carry
``cold_seconds`` timed during set-up; the runner pools them over its
set-ups before ``end_to_end`` reads them.
"""

from bench.workloads import (
    admit_churn,
    operator_ops,
    replay_firewall,
    request_to_packets,
)

WORKLOADS = {
    module.NAME: module
    for module in (
        admit_churn, operator_ops, replay_firewall, request_to_packets,
    )
}
