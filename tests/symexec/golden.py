"""Golden fixtures: the symbolic engine held to recorded reference output.

``golden_explorations.json`` (next to this module) and
``tests/core/golden_decisions.json`` pin what the verifier computes on
the fixed differential corpus: every delivered and dropped flow of an
exploration in :func:`~repro.symexec.canonical_flow` form plus the step
count (as a digest), and every verdict and admission decision with its
reason in clear text.  Each file's ``reference`` header names the
commit and the engine that produced it: the committed files came from
this module run in a checkout of that commit, where the seed engine
(every cost layer off, controllers built from scratch) still existed,
and where the optimized engine produced the same files.

The differential tests (``test_differential.py``,
``test_summary_differential.py``, ``test_compiled_models.py``,
``test_reachability.py`` and the decision sequences in
``tests/core/test_admission_cache.py``) compare against these files.

Regenerate in place with::

    PYTHONPATH=src python -m tests.symexec.golden

A clean ``git diff`` afterwards is the check: a change there means the
engine's output changed, which a refactor must never do.  The
``reference`` header of an existing file is kept as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
EXPLORATIONS = os.path.join(HERE, "golden_explorations.json")
DECISIONS = os.path.join(HERE, os.pardir, "core", "golden_decisions.json")

#: Header of a freshly generated file (an existing file keeps its own).
REFERENCE = {
    "commit": "(the commit that regenerated this file)",
    "command": "PYTHONPATH=src python -m tests.symexec.golden",
    "encoding": "exploration sha256 is over json.dumps(value, "
                "sort_keys=True, separators=(',', ':')) of "
                "canonical_exploration()",
}


def encode(value) -> str:
    """The canonical JSON text of a value built from tuples and scalars."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(canonical) -> Dict[str, object]:
    """Counts plus a sha256 of one :func:`canonical_exploration` value."""
    delivered, dropped, steps = canonical
    return {
        "delivered": len(delivered),
        "dropped": len(dropped),
        "steps": steps,
        "sha256": hashlib.sha256(encode(canonical).encode()).hexdigest(),
    }


def plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(encode(value))


@lru_cache(maxsize=None)
def _load(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def explorations() -> Dict[str, object]:
    """The pinned exploration corpus (``golden_explorations.json``)."""
    return _load(EXPLORATIONS)


def decisions() -> Dict[str, object]:
    """The pinned controller sequences (``golden_decisions.json``)."""
    return _load(DECISIONS)


def build_explorations() -> Dict[str, object]:
    """Run the exploration corpus through the current engine."""
    from tests.symexec import test_differential as diff
    from tests.symexec import test_reachability as reach
    from tests.symexec.test_compiled_models import SCENARIOS

    network = []
    for factory, requirement in diff.NETWORK_SCENARIOS:
        net = factory()
        canonical, verdict = diff.explore_network(net, requirement)
        network.append({
            "network": net.name,
            "requirement": requirement,
            "exploration": digest(canonical),
            "verdict": plain(verdict),
        })
    return {
        "network": network,
        "click": {
            name: digest(diff.explore_click(source))
            for name, source in sorted(SCENARIOS.items())
        },
        "admission": {
            label: plain(diff.admit(requirements))
            for label, requirements in diff.ADMISSIONS.items()
        },
        "always": plain(reach.always_verdicts()),
    }


def build_decisions() -> Dict[str, object]:
    """Run the controller sequences through the current controller."""
    from tests.core.test_admission_cache import TestDecisionEquivalence
    from tests.symexec.test_summary_differential import repeat_admission

    return {
        "decisions": plain(TestDecisionEquivalence.decisions()),
        "repeated": plain(TestDecisionEquivalence.repeated()),
        "repeat_admission": plain(repeat_admission()),
    }


def _write(path: str, body: Dict[str, object]) -> None:
    header = REFERENCE
    if os.path.exists(path):
        with open(path) as handle:
            header = json.load(handle).get("reference", REFERENCE)
    with open(path, "w") as handle:
        json.dump(dict(reference=header, **body), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def main() -> None:
    _write(EXPLORATIONS, build_explorations())
    _write(DECISIONS, build_decisions())


if __name__ == "__main__":
    main()
