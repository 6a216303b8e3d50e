"""Stopping rules for the adaptive synthesis loop.

A :class:`StoppingRule` decides, after each completed round, whether
the loop has converged.  Rules are plugins (:data:`STOPPING_REGISTRY`)
so campaigns and the CLI can select them by name:

- ``contract-stable`` — the synthesized contract has not changed for
  ``patience`` consecutive rounds (the default, and the paper-faithful
  convergence criterion: fresh evidence keeps failing to move the
  contract);
- ``full-coverage`` — every targetable atom has distinguished at least
  one evaluated test case (the strongest signal the corpus is
  saturated; may never fire on templates with unobservable atoms);
- ``budget`` — never stops early; the loop runs its full round budget
  (the fixed-budget baseline expressed as a rule).

The loop itself always stops when the round budget is exhausted,
reporting ``"budget-exhausted"``; rules only ever stop *earlier*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.registry import Registry


@dataclass(frozen=True)
class AdaptiveState:
    """What a stopping rule may inspect after a completed round."""

    #: Index of the just-completed round (0-based).
    round_index: int
    #: Sorted contract atom ids per completed round, oldest first.
    contracts: Tuple[Tuple[int, ...], ...]
    #: Atoms that have distinguished at least one evaluated case.
    covered_atom_ids: FrozenSet[int]
    #: Atoms the loop is trying to cover (the restricted template).
    targetable_atom_ids: FrozenSet[int]
    #: Test cases evaluated so far / the loop's total case budget.
    cumulative_cases: int
    max_cases: int

    @property
    def atom_coverage(self) -> float:
        if not self.targetable_atom_ids:
            return 1.0
        covered = self.covered_atom_ids & self.targetable_atom_ids
        return len(covered) / len(self.targetable_atom_ids)


class StoppingRule:
    """Decides whether the loop has converged after a round."""

    name = "abstract"

    def check(self, state: AdaptiveState) -> Optional[str]:
        """A human-readable stop reason, or ``None`` to continue."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s()" % type(self).__name__


class ContractStableRule(StoppingRule):
    """Stop when the contract is unchanged for ``patience`` rounds.

    The rule compares atom sets, so it reads the solver's tie-break:
    two rounds with equally precise optima stop the loop only if the
    solver picks the same one both times.  A solver that breaks ties
    differently can move the stop (and the cases evaluated).
    """

    name = "contract-stable"

    def __init__(self, patience: int = 2):
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience

    def check(self, state: AdaptiveState) -> Optional[str]:
        if len(state.contracts) < self.patience + 1:
            return None
        window = state.contracts[-(self.patience + 1) :]
        if all(contract == window[0] for contract in window[1:]):
            return "contract stable for %d rounds" % self.patience
        return None


class FullCoverageRule(StoppingRule):
    """Stop when every targetable atom has distinguished some case."""

    name = "full-coverage"

    def check(self, state: AdaptiveState) -> Optional[str]:
        if state.targetable_atom_ids <= state.covered_atom_ids:
            return "full atom coverage (%d atoms)" % len(state.targetable_atom_ids)
        return None


class BudgetRule(StoppingRule):
    """Never stops early: run the full round budget."""

    name = "budget"

    def check(self, state: AdaptiveState) -> Optional[str]:
        return None


#: All registered stopping rules, keyed by ``name``.
STOPPING_REGISTRY = Registry("stopping rule", "adaptive-loop stopping rules")
STOPPING_REGISTRY.register(
    ContractStableRule.name,
    ContractStableRule,
    description="contract unchanged for `patience` consecutive rounds",
)
STOPPING_REGISTRY.register(
    FullCoverageRule.name,
    FullCoverageRule,
    description="every targetable atom distinguished at least once",
)
STOPPING_REGISTRY.register(
    BudgetRule.name,
    BudgetRule,
    description="never stop early; exhaust the round budget",
)


def resolve_stopping_rules(stop) -> Tuple[StoppingRule, ...]:
    """``stop`` as a tuple of rules: a registry name, a rule instance,
    or a sequence of either (``None`` resolves to no early rule)."""
    if stop is None:
        return ()
    if isinstance(stop, (str, StoppingRule)):
        stop = (stop,)
    rules = []
    for item in stop:
        if isinstance(item, str):
            rules.append(STOPPING_REGISTRY.create(item))
        elif isinstance(item, StoppingRule):
            rules.append(item)
        else:
            raise TypeError(
                "stopping rules are registry names or StoppingRule "
                "instances, not %r" % (item,)
            )
    return tuple(rules)
