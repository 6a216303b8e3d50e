"""Figure 3: sensitivity of full-template contracts vs. synthesis-set
size (logarithmic x-axis).

Sensitivity = TP / (TP + FN) on the held-out set: how much of the
processor's actual leakage the synthesized contract captures.  It
rises quickly while new leakage sources are being discovered and then
flattens (the paper: flat after ~15k cases, final value 99.93%).

Like Figure 2, the prefix sweep is a :class:`CampaignSpec` — one cell
per synthesis budget, unrestricted template — and all cells share one
dataset stream, so the largest budget is evaluated once and the rest
are derived from the dataset cache by prefix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.campaign import CampaignRunner, CampaignSpec
from repro.contracts.riscv_template import build_riscv_template
from repro.contracts.template import Contract
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import experiment_pipeline
from repro.reporting.curves import Series, render_ascii_chart, write_csv
from repro.synthesis.metrics import evaluate_contract


@dataclass
class Fig3Result:
    """The sensitivity curve."""

    series: Series
    prefixes: List[int]
    evaluation_count: int
    core_name: str = "ibex"

    @property
    def final_sensitivity(self) -> Optional[float]:
        return self.series.points[-1][1]

    def render(self) -> str:
        chart = render_ascii_chart([self.series], log_x=True)
        return (
            "Fig. 3 — contract sensitivity on %d held-out test cases (%s)\n"
            "final sensitivity: %s\n%s"
            % (
                self.evaluation_count,
                self.core_name,
                "%.4f" % self.final_sensitivity
                if self.final_sensitivity is not None
                else "n/a",
                chart,
            )
        )


def fig3_campaign(config: ExperimentConfig, core_name: str = "ibex") -> CampaignSpec:
    """The Figure 3 grid: full template x log-spaced synthesis budgets."""
    return CampaignSpec(
        name="fig3-%s" % core_name,
        cores=(core_name,),
        attackers=(config.attacker,),
        templates=("riscv-rv32im",),
        solvers=(config.solver,),
        budgets=tuple(config.sensitivity_prefixes()),
        seeds=(config.synthesis_seed,),
        verify=0,
    )


def run_fig3(
    config: Optional[ExperimentConfig] = None,
    core_name: str = "ibex",
) -> Fig3Result:
    """Run the Figure 3 experiment through the campaign runner."""
    config = config if config is not None else ExperimentConfig()
    spec = fig3_campaign(config, core_name)
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
    prefixes = config.sensitivity_prefixes()
    points: List[Tuple[float, Optional[float]]] = []
    for prefix in prefixes:
        outcome = campaign.outcome(budget=prefix)
        contract = Contract(template, outcome.atom_ids)
        counts = evaluate_contract(contract, evaluation_set)
        points.append((float(prefix), counts.sensitivity))

    result = Fig3Result(
        series=Series(label="full template", points=points),
        prefixes=prefixes,
        evaluation_count=len(evaluation_set),
        core_name=core_name,
    )
    directory = config.ensure_results_dir()
    write_csv(os.path.join(directory, "fig3_sensitivity.csv"), [result.series])
    with open(os.path.join(directory, "fig3_sensitivity.txt"), "w") as stream:
        stream.write(result.render() + "\n")
    return result
