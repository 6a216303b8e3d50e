"""Table III: runtime breakdown of the contract-synthesis toolchain.

The paper reports, per core: testbench compilation time, simulation
time for a single test case, extraction of distinguishing atoms per
test case, contract computation time, and overall time.  Our
"compilation" phase is the construction of the core model, template,
and generator (there is no Verilog elaboration in the Python
substrate — a documented substitution); the remaining phases map
one-to-one.  The expected *shape*: CVA6 costs far more than Ibex in
simulation, while contract computation is comparable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.campaign import CampaignRunner, CampaignSpec
from repro.experiments.config import ExperimentConfig


@dataclass
class CoreTiming:
    """One column of Table III."""

    core_name: str
    test_cases: int
    compilation_seconds: float
    simulation_per_test_case: float
    extraction_per_test_case: float
    contract_computation_seconds: float
    overall_seconds: float


@dataclass
class Table3Result:
    """Timing columns for every measured core."""

    timings: List[CoreTiming]

    def column(self, core_name: str) -> CoreTiming:
        for timing in self.timings:
            if timing.core_name == core_name:
                return timing
        raise KeyError(core_name)

    def render(self) -> str:
        header = "%-38s" % "Phase" + "".join(
            "%14s" % timing.core_name for timing in self.timings
        )
        rows = [
            (
                "Toolchain setup ('compilation')",
                ["%.3f s" % t.compilation_seconds for t in self.timings],
            ),
            (
                "Simulation of a single test case",
                ["%.3f ms" % (t.simulation_per_test_case * 1e3) for t in self.timings],
            ),
            (
                "Extraction of distinguishing atoms",
                ["%.3f ms" % (t.extraction_per_test_case * 1e3) for t in self.timings],
            ),
            (
                "Computation of the contract",
                ["%.3f s" % t.contract_computation_seconds for t in self.timings],
            ),
            (
                "Overall computation time",
                ["%.3f s" % t.overall_seconds for t in self.timings],
            ),
        ]
        lines = [
            "Table III — toolchain runtime (%d test cases per core)"
            % self.timings[0].test_cases,
            header,
        ]
        for label, cells in rows:
            lines.append("%-38s" % label + "".join("%14s" % cell for cell in cells))
        return "\n".join(lines)


def table3_campaign(
    config: ExperimentConfig, core_names: Sequence[str], test_cases: int
) -> CampaignSpec:
    """The Table III grid: one timing cell per core."""
    return CampaignSpec(
        name="table3",
        cores=tuple(core_names),
        attackers=(config.attacker,),
        templates=("riscv-rv32im",),
        solvers=(config.solver,),
        budgets=(test_cases,),
        seeds=(config.synthesis_seed,),
        verify=0,
        # Table III times the per-test-case toolchain the paper
        # measures: two scalar simulations and one extraction per test
        # case.  The fast evaluator's columnar engine amortizes
        # simulation across a batch, which hides the per-core cost the
        # table compares.
        fastpath=False,
    )


def run_table3(
    config: Optional[ExperimentConfig] = None,
    core_names: Optional[List[str]] = None,
    test_cases: Optional[int] = None,
) -> Table3Result:
    """Measure the toolchain phases on each core."""
    config = config if config is not None else ExperimentConfig()
    core_names = core_names if core_names is not None else ["ibex", "cva6"]
    count = test_cases if test_cases is not None else max(
        200, config.synthesis_test_cases // 4
    )

    # No cache, no manifest, no verification budget: every phase is
    # measured live, exactly as the paper times its toolchain (a
    # resumed or cache-served cell would report stale or zero timings).
    spec = table3_campaign(config, core_names, count)
    campaign = CampaignRunner(
        spec, results_dir=config.results_dir, cache=False, manifest=False
    ).run()

    timings = []
    for core_name in core_names:
        phases = campaign.outcome(core=core_name).timings
        timings.append(
            CoreTiming(
                core_name=core_name,
                test_cases=count,
                compilation_seconds=phases["setup"],
                simulation_per_test_case=phases["simulation"] / count,
                extraction_per_test_case=phases["extraction"] / count,
                contract_computation_seconds=phases["synthesis"],
                overall_seconds=phases["total"],
            )
        )

    result = Table3Result(timings=timings)
    directory = config.ensure_results_dir()
    with open(os.path.join(directory, "table3_runtime.txt"), "w") as stream:
        stream.write(result.render() + "\n")
    return result
