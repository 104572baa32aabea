"""The In-Net policy and requirements language (Section 4.2).

Two small languages live here:

* **flow specifications** -- a tcpdump-like predicate syntax
  (``udp dst port 1500 and src net 10.0.0.0/8``) parsed by
  :mod:`repro.policy.flowspec` into disjunctions of per-field interval
  constraints, usable both to match concrete packets and to constrain
  symbolic ones;
* **reachability requirements** -- the paper's
  ``reach from <node> [flow] {-> <node> [flow] [const fields]}+``
  statements, parsed by :mod:`repro.policy.grammar`.

Clients and operators use the same API: clients state how they want the
network to behave without knowing topology or operator policy; operators
state rules that must always hold (e.g. all HTTP traffic traverses the
HTTP optimizer).
"""

from repro.policy.flowspec import (
    FIELD_UNIVERSES,
    Clause,
    FlowSpec,
    parse_const_fields,
    parse_flowspec,
)
from repro.policy.grammar import (
    Hop,
    NodeRef,
    ReachRequirement,
    parse_requirement,
    parse_requirements,
    split_statements,
)

__all__ = [
    "FlowSpec",
    "Clause",
    "parse_flowspec",
    "parse_const_fields",
    "FIELD_UNIVERSES",
    "ReachRequirement",
    "Hop",
    "NodeRef",
    "parse_requirement",
    "parse_requirements",
    "split_statements",
]
