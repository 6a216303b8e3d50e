"""Figure 2: precision of synthesized contracts vs. synthesis-set size,
for the base template and its cumulative refinements.

For each template restriction (IL+RL+ML, +AL, +BL, +DL) and each
prefix of the synthesis set, a contract is synthesized and its
precision measured on a held-out evaluation set.  The paper's shape:
precision increases with richer templates; data-dependency leakages
(DL) give the largest improvement; precision dips when new leak kinds
are first discovered (the contract must cover them with coarse atoms
until finer ones are available).

The (restriction x prefix) sweep is a :class:`CampaignSpec`: one cell
per grid point, all cells sharing one dataset stream, so the largest
budget is evaluated once and every smaller cell's pipeline takes its
prefix from the dataset cache.  Test cases are generated per test id, which makes a
budget-``n`` cell's dataset byte-identical to ``prefix(n)`` of the
full synthesis set — the campaign path reproduces the pre-campaign
driver output exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.campaign import CampaignRunner, CampaignSpec
from repro.contracts.riscv_template import (
    build_riscv_template,
    cumulative_family_sets,
    restriction_label,
)
from repro.contracts.template import Contract
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import experiment_pipeline
from repro.reporting.curves import Series, render_ascii_chart, write_csv
from repro.synthesis.metrics import evaluate_contract


@dataclass
class Fig2Result:
    """Precision curves per template restriction."""

    series: List[Series]
    prefixes: List[int]
    evaluation_count: int
    core_name: str = "ibex"

    def final_precision(self, label: str) -> Optional[float]:
        for series in self.series:
            if series.label == label:
                return series.points[-1][1]
        raise KeyError(label)

    def render(self) -> str:
        chart = render_ascii_chart(self.series, log_x=False)
        return (
            "Fig. 2 — contract precision on %d held-out test cases (%s)\n%s"
            % (self.evaluation_count, self.core_name, chart)
        )


def fig2_campaign(config: ExperimentConfig, core_name: str = "ibex") -> CampaignSpec:
    """The Figure 2 grid: cumulative restrictions x synthesis prefixes."""
    return CampaignSpec(
        name="fig2-%s" % core_name,
        cores=(core_name,),
        attackers=(config.attacker,),
        templates=("riscv-rv32im",),
        restrictions=tuple(
            restriction_label(families) for families in cumulative_family_sets()
        ),
        solvers=(config.solver,),
        budgets=tuple(config.synthesis_prefixes()),
        seeds=(config.synthesis_seed,),
        verify=0,
    )


def run_fig2(
    config: Optional[ExperimentConfig] = None,
    core_name: str = "ibex",
) -> Fig2Result:
    """Run the Figure 2 experiment through the campaign runner."""
    config = config if config is not None else ExperimentConfig()
    spec = fig2_campaign(config, core_name)
    campaign = CampaignRunner(
        spec,
        results_dir=config.results_dir,
        cache=config.cache,
        executor=config.executor,
        manifest=config.cache,
    ).run()
    evaluation_set = experiment_pipeline(
        config, core_name, "riscv-rv32im",
        config.evaluation_test_cases, config.evaluation_seed,
    ).evaluate()

    template = build_riscv_template()
    prefixes = config.synthesis_prefixes()
    series: List[Series] = []
    for restriction in spec.restrictions:
        points: List[Tuple[float, Optional[float]]] = []
        for prefix in prefixes:
            outcome = campaign.outcome(restriction=restriction, budget=prefix)
            contract = Contract(template, outcome.atom_ids)
            counts = evaluate_contract(contract, evaluation_set)
            points.append((float(prefix), counts.precision))
        series.append(Series(label=restriction, points=points))

    result = Fig2Result(
        series=series,
        prefixes=prefixes,
        evaluation_count=len(evaluation_set),
        core_name=core_name,
    )
    _save(config, result)
    return result


def _save(config: ExperimentConfig, result: Fig2Result) -> None:
    directory = config.ensure_results_dir()
    write_csv(os.path.join(directory, "fig2_precision.csv"), result.series)
    with open(os.path.join(directory, "fig2_precision.txt"), "w") as stream:
        stream.write(result.render() + "\n")
