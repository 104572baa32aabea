"""SYMNET-style symbolic execution for networks (Section 3).

The paper treats the network as a distributed program and the packets it
carries as that program's variables.  This package implements the static
analysis that idea requires:

* :mod:`repro.symexec.sympacket` -- symbolic packets whose header fields
  are free or bound symbolic variables with interval domains,
* :mod:`repro.symexec.models` -- loop-free abstract models of every
  Click element (state pushed into the flow, no dynamic allocation --
  the three properties Section 4.3 credits for SYMNET's scalability),
  each a compiler that binds one element's configuration into the
  transfer function its graph node runs,
* :mod:`repro.symexec.engine` -- the exploration engine that injects a
  symbolic packet at a node and tracks every flow over every path,
  splitting on branches and recording constraint/modification history,
* :mod:`repro.symexec.reachability` -- evaluation of the paper's
  ``reach`` requirements (including ``const`` invariants) against the
  exploration output,
* :mod:`repro.symexec.summaries` -- SymNet-style compositional
  summaries: those transfer functions composed into segment chains,
  and footprint-keyed verdict reuse for incremental re-verification.
"""

from repro.symexec.engine import (
    Exploration,
    SymbolicEngine,
    SymFlow,
    SymGraph,
    TraceEntry,
)
from repro.symexec.equivalence import (
    EquivalenceResult,
    canonical_flow,
    configs_equivalent,
    explorations_equivalent,
    flow_signature,
)
from repro.symexec.models import model_for, models_registry
from repro.symexec.reachability import (
    InvariantViolation,
    ReachabilityChecker,
    ReachResult,
)
from repro.symexec.summaries import (
    UNCHANGED_SCOPE,
    ChangedScope,
    SegmentSummary,
    SummaryCache,
    VerificationCache,
)
from repro.symexec.sympacket import SymPacket, SymVar, VarFactory
from repro.symexec.tuning import (
    counters,
    optimizations_enabled,
    reset_counters,
    seed_mode,
    set_optimizations,
    stats,
)

__all__ = [
    "SymVar",
    "SymPacket",
    "VarFactory",
    "SymFlow",
    "SymGraph",
    "SymbolicEngine",
    "Exploration",
    "TraceEntry",
    "model_for",
    "EquivalenceResult",
    "canonical_flow",
    "configs_equivalent",
    "explorations_equivalent",
    "flow_signature",
    "models_registry",
    "SummaryCache",
    "SegmentSummary",
    "VerificationCache",
    "ChangedScope",
    "UNCHANGED_SCOPE",
    "ReachabilityChecker",
    "ReachResult",
    "InvariantViolation",
    "counters",
    "optimizations_enabled",
    "reset_counters",
    "seed_mode",
    "set_optimizations",
    "stats",
]
