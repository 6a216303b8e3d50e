"""The experiment drivers rewired through the campaign runner must
reproduce the pre-campaign driver outputs exactly (the acceptance
criterion for the campaign subsystem)."""

import os

import pytest

from repro.contracts.riscv_template import build_riscv_template, cumulative_family_sets
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig2 import fig2_campaign, run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.runner import experiment_pipeline
from repro.experiments.table3 import run_table3
from repro.synthesis.metrics import evaluate_contract

pytestmark = pytest.mark.campaign


def _legacy_fig2_points(config, core_name="ibex"):
    """The pre-campaign Figure 2 computation, replicated verbatim:
    evaluate one full synthesis set, synthesize from its prefixes."""
    template = build_riscv_template()
    synthesis_pipeline = experiment_pipeline(
        config, core_name, template,
        config.synthesis_test_cases, config.synthesis_seed,
    )
    synthesis_set = synthesis_pipeline.evaluate()
    evaluation_set = experiment_pipeline(
        config, core_name, template,
        config.evaluation_test_cases, config.evaluation_seed,
    ).evaluate()
    synthesizer = synthesis_pipeline.synthesizer()
    points = {}
    for families in cumulative_family_sets():
        allowed = template.ids_by_family(families)
        label = "+".join(family.name for family in families)
        for prefix in config.synthesis_prefixes():
            synthesis_result = synthesizer.synthesize(
                synthesis_set.prefix(prefix), allowed_atom_ids=allowed
            )
            counts = evaluate_contract(synthesis_result.contract, evaluation_set)
            points[(label, prefix)] = counts.precision
    return points


class TestFig2ThroughCampaign:
    def test_byte_identical_to_the_legacy_driver_path(self, tmp_path):
        config = ExperimentConfig(scale=0.02, results_dir=str(tmp_path / "campaign"))
        result = run_fig2(config)

        legacy_config = ExperimentConfig(
            scale=0.02, results_dir=str(tmp_path / "legacy")
        )
        legacy = _legacy_fig2_points(legacy_config)

        compared = 0
        for series in result.series:
            for x, y in series.points:
                assert y == legacy[(series.label, int(x))]
                compared += 1
        assert compared == len(legacy) > 0
        assert any(y is not None for series in result.series for _, y in series.points)
        assert os.path.exists(tmp_path / "campaign" / "fig2_precision.csv")

    def test_rerun_resumes_every_cell(self, tmp_path):
        """The driver's campaign manifest makes a re-run pure reuse."""
        config = ExperimentConfig(scale=0.01, results_dir=str(tmp_path))
        run_fig2(config)
        spec = fig2_campaign(config, "ibex")
        from repro.campaign import CampaignRunner

        result = CampaignRunner(
            spec, results_dir=config.results_dir, cache=True
        ).run()
        assert result.resumed_count == len(result.outcomes)

    def test_campaign_grid_matches_the_config(self):
        config = ExperimentConfig(scale=0.01)
        spec = fig2_campaign(config, "ibex")
        cells = spec.expand()
        assert len(cells) == 4 * len(config.synthesis_prefixes())
        assert {cell.restriction for cell in cells} == {
            "IL+RL+ML",
            "IL+RL+ML+AL",
            "IL+RL+ML+AL+BL",
            "IL+RL+ML+AL+BL+DL",
        }


class TestFig3ThroughCampaign:
    def test_curve_shape_and_outputs(self, tmp_path):
        config = ExperimentConfig(scale=0.01, results_dir=str(tmp_path))
        result = run_fig3(config)
        assert len(result.series.points) == len(config.sensitivity_prefixes())
        assert os.path.exists(tmp_path / "fig3_sensitivity.csv")


class TestTable3ThroughCampaign:
    def test_live_timings_per_core(self, tmp_path):
        config = ExperimentConfig(scale=0.01, results_dir=str(tmp_path))
        result = run_table3(config, core_names=["ibex"], test_cases=40)
        column = result.column("ibex")
        assert column.test_cases == 40
        assert column.simulation_per_test_case > 0
        assert column.extraction_per_test_case > 0
        assert column.overall_seconds > 0
        assert "Table III" in result.render()
