"""Tables I and II: the synthesized contracts for Ibex and CVA6.

Synthesizes a contract from the full synthesis budget, renders the
paper-style category/family grid, compares it cell-by-cell against the
paper's published table, and produces the §III-E refinement ranking.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.campaign import CampaignRunner, CampaignSpec
from repro.contracts.template import Contract
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import experiment_pipeline
from repro.reporting.tables import (
    Grid,
    PAPER_TABLE_1,
    PAPER_TABLE_2,
    contract_summary_grid,
    grid_agreement,
    render_contract_table,
)
from repro.synthesis.metrics import evaluate_contract, verify_contract_correctness
from repro.synthesis.ranking import AtomRanking, format_ranking, rank_atoms_by_false_positives


@dataclass
class ContractTableResult:
    """A synthesized contract table plus comparison diagnostics."""

    core_name: str
    contract: Contract
    grid: Grid
    atom_count: int
    false_positives: int
    agreement_matches: int
    agreement_total: int
    mismatches: List[str]
    ranking: List[AtomRanking]
    held_out_precision: Optional[float]
    held_out_sensitivity: Optional[float]
    synthesis_count: int

    @property
    def agreement_ratio(self) -> float:
        return self.agreement_matches / self.agreement_total

    def render(self) -> str:
        lines = [
            render_contract_table(
                self.contract,
                title="Synthesized contract for %s (%d synthesis test cases)"
                % (self.core_name, self.synthesis_count),
            ),
            "",
            "Cell agreement with the paper: %d/%d"
            % (self.agreement_matches, self.agreement_total),
        ]
        for mismatch in self.mismatches:
            lines.append("  mismatch: %s" % mismatch)
        if self.held_out_precision is not None:
            lines.append("Held-out precision:   %.4f" % self.held_out_precision)
        if self.held_out_sensitivity is not None:
            lines.append("Held-out sensitivity: %.4f" % self.held_out_sensitivity)
        lines.append("")
        lines.append("Refinement ranking (§III-E):")
        lines.append(format_ranking(self.ranking, top=10))
        return "\n".join(lines)


def contract_table_campaign(
    config: ExperimentConfig, core_name: str, synthesis_count: int
) -> CampaignSpec:
    """The Table I/II grid: one full-budget synthesis cell per core.

    ``verify=0`` because :func:`verify_contract_correctness` below
    re-checks the contract against its synthesis set anyway.
    """
    return CampaignSpec(
        name="contract-table-%s" % core_name,
        cores=(core_name,),
        attackers=(config.attacker,),
        templates=("riscv-rv32im",),
        solvers=(config.solver,),
        budgets=(synthesis_count,),
        seeds=(config.synthesis_seed,),
        verify=0,
    )


def _run_contract_table(
    config: ExperimentConfig,
    core_name: str,
    synthesis_count: int,
    reference: Grid,
    output_stem: str,
) -> ContractTableResult:
    spec = contract_table_campaign(config, core_name, synthesis_count)
    campaign = CampaignRunner(
        spec,
        results_dir=config.results_dir,
        cache=config.cache,
        executor=config.executor,
        manifest=False,
    ).run()
    # The diagnostics below need the evaluated dataset and the solver
    # result, not just the cell summary — pull the full PipelineResult.
    pipeline_result = campaign.result_for(campaign.cells[0])
    synthesis_set = pipeline_result.dataset
    evaluation_set = experiment_pipeline(
        config, core_name, "riscv-rv32im",
        config.evaluation_test_cases, config.evaluation_seed,
    ).evaluate()

    synthesis_result = pipeline_result.synthesis
    contract = synthesis_result.contract
    if not verify_contract_correctness(contract, synthesis_set):
        raise AssertionError("synthesized contract violates its own test set")

    grid = contract_summary_grid(contract)
    matches, total, mismatches = grid_agreement(grid, reference)
    counts = evaluate_contract(contract, evaluation_set)
    ranking = rank_atoms_by_false_positives(contract, synthesis_set)

    result = ContractTableResult(
        core_name=core_name,
        contract=contract,
        grid=grid,
        atom_count=len(contract),
        false_positives=synthesis_result.false_positives,
        agreement_matches=matches,
        agreement_total=total,
        mismatches=mismatches,
        ranking=ranking,
        held_out_precision=counts.precision,
        held_out_sensitivity=counts.sensitivity,
        synthesis_count=len(synthesis_set),
    )
    directory = config.ensure_results_dir()
    with open(os.path.join(directory, output_stem + ".txt"), "w") as stream:
        stream.write(result.render() + "\n")
    return result


def run_table1(config: Optional[ExperimentConfig] = None) -> ContractTableResult:
    """Table I: the synthesized Ibex contract."""
    config = config if config is not None else ExperimentConfig()
    return _run_contract_table(
        config, "ibex", config.synthesis_test_cases, PAPER_TABLE_1, "table1_ibex"
    )


def run_table2(config: Optional[ExperimentConfig] = None) -> ContractTableResult:
    """Table II: the synthesized CVA6 contract."""
    config = config if config is not None else ExperimentConfig()
    return _run_contract_table(
        config, "cva6", config.cva6_synthesis_test_cases, PAPER_TABLE_2, "table2_cva6"
    )
