"""Integration tests for the experiment drivers (small budgets).

These run the full pipeline (generate -> simulate -> evaluate ->
synthesize -> report) at reduced scale and assert the *shape*
properties the paper reports, not absolute values.
"""

import os

import pytest

from repro.contracts.riscv_template import build_riscv_template
from repro.experiments.config import ExperimentConfig
from repro.experiments.contract_tables import run_table1, run_table2
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.table3 import run_table3
from repro.pipeline import SynthesisPipeline


@pytest.fixture()
def config(tmp_path):
    return ExperimentConfig(
        scale=1.0,
        synthesis_test_cases=700,
        evaluation_test_cases=1200,
        cva6_synthesis_test_cases=400,
        results_dir=str(tmp_path / "results"),
    )


def _evaluate(count, cache_dir=None, attacker="retirement-timing"):
    """Evaluate ``count`` ibex cases of seed 7 on the experiments'
    template instance; returns ``(dataset, evaluator)``."""
    return (
        SynthesisPipeline()
        .core("ibex")
        .attacker(attacker)
        .template(build_riscv_template())
        .budget(count, 7)
        .cache_dir(cache_dir)
        .evaluate_with_stats()
    )


class TestRunner:
    def test_build_core(self):
        def build_core(name):
            return SynthesisPipeline().core(name).resolve_core()

        assert build_core("ibex").name == "ibex"
        assert build_core("cva6").name == "cva6"
        with pytest.raises(ValueError):
            build_core("rocket")

    def test_evaluate_dataset_caches(self, tmp_path):
        cache = str(tmp_path)
        first, evaluator = _evaluate(30, cache)
        assert evaluator is not None
        second, evaluator_2 = _evaluate(30, cache)
        assert evaluator_2 is None  # cache hit
        assert [r.test_id for r in first] == [r.test_id for r in second]
        assert len(os.listdir(cache)) == 1

    def test_no_cache_dir(self):
        dataset, evaluator = _evaluate(10)
        assert len(dataset) == 10
        assert evaluator is not None

    def test_executor_config_keeps_a_bespoke_template(self, tmp_path):
        """Regression: a bespoke template instance that *reuses* a
        registered name (build_riscv_template(max_distance=8) keeps
        'riscv-rv32im') must not be swapped for the registry default:
        executors run on the instance itself."""
        from repro.experiments.runner import experiment_pipeline

        bespoke = build_riscv_template(max_distance=8)
        default = experiment_pipeline(
            ExperimentConfig(results_dir=str(tmp_path / "default")),
            "ibex", bespoke, 30, 1,
        )
        serial = experiment_pipeline(
            ExperimentConfig(results_dir=str(tmp_path / "serial"), executor="serial"),
            "ibex", bespoke, 30, 1,
        )
        assert serial._executor == "serial"
        assert serial.config.template is bespoke
        assert serial.evaluate().to_json() == default.evaluate().to_json()

    def test_cache_distinguishes_attackers(self, tmp_path):
        """Regression: the cache key must include the attacker, so a
        dataset evaluated under one attacker is never served for
        another."""
        cache = str(tmp_path)
        timing, _ = _evaluate(20, cache, attacker="retirement-timing")
        total, evaluator = _evaluate(20, cache, attacker="total-time")
        assert evaluator is not None  # fresh evaluation, not a stale hit
        assert len(os.listdir(cache)) == 2
        assert timing.attacker_name == "retirement-timing"
        assert total.attacker_name == "total-time"


class TestConfig:
    def test_scale_multiplies_counts(self):
        small = ExperimentConfig(scale=0.5, synthesis_test_cases=1000,
                                 evaluation_test_cases=2000)
        assert small.synthesis_test_cases == 500
        assert small.evaluation_test_cases == 1000

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0)

    def test_prefix_schedules(self):
        config = ExperimentConfig(scale=1.0, synthesis_test_cases=640)
        prefixes = config.synthesis_prefixes()
        assert prefixes[-1] == 640
        assert all(a < b for a, b in zip(prefixes, prefixes[1:]))
        log_prefixes = config.sensitivity_prefixes()
        assert log_prefixes[0] == 1
        assert log_prefixes[-1] == 640


@pytest.mark.slow
class TestFig2:
    def test_shapes(self, config):
        result = run_fig2(config)
        assert len(result.series) == 4  # base + AL + BL + DL
        assert result.series[0].label == "IL+RL+ML"
        assert result.series[-1].label == "IL+RL+ML+AL+BL+DL"
        # Every curve is defined at the final budget.
        finals = [series.points[-1][1] for series in result.series]
        assert all(value is not None for value in finals)
        # Richer templates do not hurt precision at the full budget.
        assert finals[-1] >= finals[0]
        # Output files exist.
        assert os.path.exists(os.path.join(config.results_dir, "fig2_precision.csv"))
        assert "Fig. 2" in result.render()


@pytest.mark.slow
class TestFig3:
    def test_sensitivity_rises_and_saturates(self, config):
        result = run_fig3(config)
        values = [y for _x, y in result.series.points if y is not None]
        assert values, "sensitivity curve empty"
        # At this reduced budget the curve should already be well into
        # its saturation phase (the paper reaches 99.93% at 2M cases).
        assert result.final_sensitivity >= 0.7
        # The curve rises: early sensitivity far below the final value.
        assert values[0] <= 0.5 * result.final_sensitivity
        assert max(values) == pytest.approx(result.final_sensitivity, abs=0.1)
        assert os.path.exists(
            os.path.join(config.results_dir, "fig3_sensitivity.csv")
        )


@pytest.mark.slow
class TestContractTables:
    def test_table1_ibex_headlines(self, config):
        from repro.contracts.atoms import LeakageFamily
        from repro.isa.instructions import InstructionCategory
        from repro.reporting.tables import CellMarker

        result = run_table1(config)
        grid = result.grid
        # Headline finding 1: loads leak alignment, stores do not.
        assert grid[(InstructionCategory.LOAD, LeakageFamily.AL)] in (
            CellMarker.FULL, CellMarker.PARTIAL,
        )
        assert grid[(InstructionCategory.STORE, LeakageFamily.AL)] is CellMarker.NONE
        # Headline finding 2: branch outcome leaks.
        assert grid[(InstructionCategory.BRANCH, LeakageFamily.BL)] in (
            CellMarker.FULL, CellMarker.PARTIAL,
        )
        # No memory-value leakage on Ibex.
        assert grid[(InstructionCategory.LOAD, LeakageFamily.ML)] is CellMarker.NONE
        assert result.agreement_ratio >= 0.6
        assert result.atom_count > 5
        assert os.path.exists(os.path.join(config.results_dir, "table1_ibex.txt"))

    def test_table2_cva6_headlines(self, config):
        from repro.contracts.atoms import LeakageFamily
        from repro.isa.instructions import InstructionCategory
        from repro.reporting.tables import CellMarker

        result = run_table2(config)
        grid = result.grid
        # CVA6's memory interface hides accesses: ML and AL all empty.
        for family in (LeakageFamily.ML, LeakageFamily.AL):
            for category in (InstructionCategory.LOAD, InstructionCategory.STORE):
                assert grid[(category, family)] is CellMarker.NONE, (category, family)
        # Branch outcome leaks through the predictor.
        assert grid[(InstructionCategory.BRANCH, LeakageFamily.BL)] in (
            CellMarker.FULL, CellMarker.PARTIAL,
        )
        assert result.agreement_ratio >= 0.5


@pytest.mark.slow
class TestTable3:
    def test_timing_shape(self, config):
        result = run_table3(config, test_cases=100)
        ibex = result.column("ibex")
        cva6 = result.column("cva6")
        assert ibex.test_cases == cva6.test_cases == 100
        for timing in (ibex, cva6):
            assert timing.simulation_per_test_case > 0
            assert timing.extraction_per_test_case > 0
            assert timing.overall_seconds >= timing.contract_computation_seconds
        # The paper's shape: CVA6 simulation costs more than Ibex.
        assert cva6.simulation_per_test_case > ibex.simulation_per_test_case
        text = result.render()
        assert "Table III" in text and "ibex" in text and "cva6" in text
