"""One aggregated view over the per-layer plugin registries.

The registries themselves live with the code they index — cores in
:mod:`repro.uarch`, attackers in :mod:`repro.attacker`, solvers in
:mod:`repro.synthesis`, templates and restrictions in
:mod:`repro.contracts.riscv_template`, evaluation executors in
:mod:`repro.evaluation.backends` — so each layer stays the single
source of truth for its plugins.  This module just collects them for
the pipeline front end and the CLI ``list`` subcommand.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.adaptive.stopping import STOPPING_REGISTRY
from repro.attacker import ATTACKER_REGISTRY
from repro.contracts.riscv_template import RESTRICTION_REGISTRY, TEMPLATE_REGISTRY
from repro.evaluation.backends import EXECUTOR_REGISTRY
from repro.registry import Registry
from repro.resilience.faults import FAULT_REGISTRY
from repro.synthesis import SOLVER_REGISTRY
from repro.testgen.strategies import GENERATOR_REGISTRY
from repro.uarch import CORE_REGISTRY

#: Every pipeline axis, in CLI display order.
REGISTRIES: Dict[str, Registry] = {
    "cores": CORE_REGISTRY,
    "attackers": ATTACKER_REGISTRY,
    "solvers": SOLVER_REGISTRY,
    "templates": TEMPLATE_REGISTRY,
    "restrictions": RESTRICTION_REGISTRY,
    "executors": EXECUTOR_REGISTRY,
    "generators": GENERATOR_REGISTRY,
    "stopping-rules": STOPPING_REGISTRY,
    "faults": FAULT_REGISTRY,
}


def describe_registries(only: Optional[str] = None) -> str:
    """Human-readable listing of the registries (``repro-synthesize
    list``); ``only`` restricts the output to one registry by its
    :data:`REGISTRIES` key (``"templates"``, ``"restrictions"``, ...).
    """
    if only is not None and only not in REGISTRIES:
        raise ValueError(
            "unknown registry %r (choose from %s)" % (only, ", ".join(REGISTRIES))
        )
    lines = []
    for title, registry in REGISTRIES.items():
        if only is not None and title != only:
            continue
        lines.append("%s:" % title)
        for name in registry.names():
            description = registry.describe(name)
            lines.append(
                "  %-24s %s" % (name, description) if description else "  %s" % name
            )
    return "\n".join(lines)
