"""Tests for CampaignSpec expansion: grids, overrides, excludes."""

import pytest

from repro.campaign import CampaignCell, CampaignSpec, filter_cells
from repro.pipeline.config import AdaptivePlan, PipelineConfig


def _cell(**overrides):
    defaults = dict(
        core="ibex",
        attacker="retirement-timing",
        template="riscv-rv32im",
        restriction=None,
        solver="greedy",
        budget=10,
        seed=0,
    )
    defaults.update(overrides)
    return CampaignCell(**defaults)


def _plan(**overrides):
    """The ``(rounds, batch)`` an adaptive cell runs."""
    return PipelineConfig.from_cell(_cell(**overrides)).round_plan()


class TestExpansion:
    def test_cross_product_in_axis_order(self):
        spec = CampaignSpec(
            name="grid",
            cores=("ibex", "cva6"),
            budgets=(10, 20),
            seeds=(0, 1),
        )
        cells = spec.expand()
        assert len(cells) == 8
        # Later axes vary fastest: seed, then budget, then core.
        assert [(c.core, c.budget, c.seed) for c in cells[:4]] == [
            ("ibex", 10, 0),
            ("ibex", 10, 1),
            ("ibex", 20, 0),
            ("ibex", 20, 1),
        ]
        assert cells[4].core == "cva6"

    def test_spec_settings_reach_every_cell(self):
        spec = CampaignSpec(name="s", verify=0, fastpath=False, budgets=(5,))
        (cell,) = spec.expand()
        assert cell.verify == 0
        assert not cell.fastpath

    def test_override_rewrites_matching_cells(self):
        spec = CampaignSpec(
            name="s",
            cores=("ibex", "cva6"),
            budgets=(100,),
            overrides={"cva6": {"budget": 30}},
        )
        budgets = {cell.core: cell.budget for cell in spec.expand()}
        assert budgets == {"ibex": 100, "cva6": 30}

    def test_override_collapse_deduplicates_cells(self):
        """Two budgets collapsed to one by an override leave one cell."""
        spec = CampaignSpec(
            name="s",
            cores=("ibex", "cva6"),
            budgets=(10, 20),
            overrides={"cva6": {"budget": 5}},
        )
        cells = spec.expand()
        assert len([c for c in cells if c.core == "ibex"]) == 2
        assert len([c for c in cells if c.core == "cva6"]) == 1

    def test_exclude_predicate_and_dicts(self):
        predicate = CampaignSpec(
            name="s",
            cores=("ibex", "cva6"),
            budgets=(10, 20),
            exclude=lambda cell: cell.core == "cva6" and cell.budget == 20,
        )
        assert len(predicate.expand()) == 3
        dicts = CampaignSpec(
            name="s",
            cores=("ibex", "cva6"),
            budgets=(10, 20),
            exclude=[{"core": "cva6", "budget": 20}],
        )
        assert [c.identity() for c in dicts.expand()] == [
            c.identity() for c in predicate.expand()
        ]

    def test_all_cells_excluded_raises(self):
        spec = CampaignSpec(name="s", exclude=lambda cell: True)
        with pytest.raises(ValueError, match="zero cells"):
            spec.expand()


class TestGeneratorAxis:
    def test_generators_expand_like_any_axis(self):
        spec = CampaignSpec(
            name="gen",
            generators=("random", "coverage"),
            budgets=(10, 20),
        )
        cells = spec.expand()
        assert len(cells) == 4
        assert [(c.generator, c.budget) for c in cells] == [
            ("random", 10),
            ("random", 20),
            ("coverage", 10),
            ("coverage", 20),
        ]
        assert spec.grid_shape()["generator"] == 2

    def test_unknown_generator_fails_fast(self):
        with pytest.raises(ValueError, match="unknown generator"):
            CampaignSpec(name="g", generators=("genetic",)).expand()

    def test_adaptive_settings_reach_every_cell(self):
        spec = CampaignSpec(
            name="gen",
            generators=("coverage",),
            adaptive_rounds=5,
            batch=13,
        )
        (cell,) = spec.expand()
        assert cell.adaptive_rounds == 5 and cell.batch == 13

    def test_adaptive_cell_builds_an_adaptive_pipeline(self):
        (cell,) = CampaignSpec(
            name="gen",
            generators=("coverage",),
            budgets=(60,),
            adaptive_rounds=3,
        ).expand()
        config = cell.pipeline().config
        assert config.generator == "coverage"
        assert config.adaptive == AdaptivePlan(
            rounds=3, batch=None, stop="contract-stable"
        )
        assert config.round_plan() == (3, 20)

    def test_stop_reaches_the_cell_pipeline(self):
        (cell,) = CampaignSpec(
            name="gen",
            generators=("coverage",),
            budgets=(60,),
            adaptive_rounds=3,
            stop="full-coverage",
        ).expand()
        assert cell.stop == "full-coverage"
        assert cell.pipeline().config.adaptive.stop == "full-coverage"

    def test_unknown_stop_fails_fast(self):
        with pytest.raises(ValueError, match="unknown stopping rule"):
            CampaignSpec(name="g", adaptive_rounds=2, stop="gut-feeling").expand()

    def test_generator_override_is_applicable(self):
        spec = CampaignSpec(
            name="gen",
            generators=("random", "coverage"),
            overrides={"coverage": {"adaptive_rounds": 4}},
        )
        by_generator = {cell.generator: cell for cell in spec.expand()}
        assert by_generator["random"].adaptive_rounds is None
        assert by_generator["coverage"].adaptive_rounds == 4

    def test_bad_adaptive_settings_raise(self):
        with pytest.raises(ValueError, match="adaptive_rounds"):
            CampaignSpec(name="g", adaptive_rounds=0).expand()
        with pytest.raises(ValueError, match="batch"):
            CampaignSpec(name="g", batch=0, adaptive_rounds=2).expand()
        # batch/stop without adaptive_rounds would be silently inert.
        with pytest.raises(ValueError, match="adaptive_rounds"):
            CampaignSpec(name="g", batch=10).expand()
        with pytest.raises(ValueError, match="adaptive_rounds"):
            CampaignSpec(name="g", stop="budget").expand()
        # A derived batch needs a positive budget ceiling.
        with pytest.raises(ValueError, match="positive"):
            CampaignSpec(name="g", adaptive_rounds=2, budgets=(0,)).expand()
        assert _plan(adaptive_rounds=2, budget=0, batch=5)[1] == 5


class TestValidation:
    def test_unknown_plugin_names_fail_fast(self):
        with pytest.raises(ValueError, match="axis 'cores'.*unknown core 'rocket'"):
            CampaignSpec(name="s", cores=("ibex", "rocket")).expand()
        with pytest.raises(ValueError, match="unknown attacker"):
            CampaignSpec(name="s", attackers=("oscilloscope",)).expand()
        with pytest.raises(ValueError, match="unknown restriction"):
            CampaignSpec(name="s", restrictions=("everything",)).expand()

    def test_fastpath_mode_names_are_rejected(self):
        """Only a bool (or "reference") selects the evaluator; the old
        "compiled"/"batch" mode names fail when the cell's pipeline is
        built instead of silently running the fast evaluator."""
        (cell,) = CampaignSpec(name="s", fastpath="compiled", budgets=(5,)).expand()
        with pytest.raises(ValueError, match="fastpath"):
            cell.pipeline()

    def test_none_restriction_is_the_unrestricted_template(self):
        cells = CampaignSpec(name="s", restrictions=(None, "base")).expand()
        assert [cell.restriction for cell in cells] == [None, "base"]

    def test_bad_overrides_fail_fast(self):
        with pytest.raises(ValueError, match="matches no declared axis value"):
            CampaignSpec(name="s", overrides={"rocket": {"budget": 1}}).expand()
        with pytest.raises(ValueError, match="unknown cell field"):
            CampaignSpec(
                name="s",
                cores=("ibex",),
                overrides={"ibex": {"budgett": 1}},
            ).expand()

    def test_empty_axes_and_name_raise(self):
        with pytest.raises(ValueError, match="non-empty name"):
            CampaignSpec(name="").expand()
        with pytest.raises(ValueError, match="axis 'cores' is empty"):
            CampaignSpec(name="s", cores=()).expand()
        with pytest.raises(ValueError, match="non-negative"):
            CampaignSpec(name="s", budgets=(-1,)).expand()


class TestCells:
    def test_identity_round_trips_through_cell_fields(self):
        cell = _cell(restriction="base", verify=5)
        assert CampaignCell(**cell.identity()) == cell

    def test_key_is_canonical_and_axis_lookup_works(self):
        cell = _cell()
        assert cell.key() == CampaignCell(**cell.identity()).key()
        assert cell.axis("budget") == 10
        with pytest.raises(ValueError, match="unknown campaign axis"):
            cell.axis("flux")

    def test_dataset_group_ignores_synthesis_axes(self):
        base = _cell()
        assert base.dataset_group() == _cell(solver="scipy-milp").dataset_group()
        assert base.dataset_group() == _cell(restriction="base").dataset_group()
        assert base.dataset_group() == _cell(budget=99).dataset_group()
        assert base.dataset_group() != _cell(seed=1).dataset_group()
        assert base.dataset_group() != _cell(core="cva6").dataset_group()

    def test_pipeline_reflects_the_cell(self, tmp_path):
        cell = _cell(restriction="base", budget=25, seed=3)
        pipeline = cell.pipeline(cache_dir=str(tmp_path))
        assert pipeline.config.name("core") == "ibex"
        assert pipeline.config.name("solver") == "greedy"
        assert "seed3-n25" in pipeline.cache_path()

    def test_dataset_group_includes_generator(self):
        """Regression companion to the pipeline cache-key test: cells
        with different strategies must never share a dataset group (a
        group shares cached corpora by prefix)."""
        assert _cell().dataset_group() != _cell(generator="coverage").dataset_group()
        assert _cell().dataset_group() != _cell(adaptive_rounds=4).dataset_group()

    def test_effective_batch_splits_the_budget(self):
        assert PipelineConfig.from_cell(_cell()).adaptive is None
        assert _plan(adaptive_rounds=4, budget=100)[1] == 25
        assert _plan(adaptive_rounds=4, budget=100, batch=10)[1] == 10
        assert _plan(adaptive_rounds=7, budget=3)[1] == 1

    def test_effective_rounds_respect_the_budget_ceiling(self):
        """A derived batch never lets rounds * batch exceed the cell
        budget — tiny budgets clamp the round count instead."""
        assert PipelineConfig.from_cell(_cell()).adaptive is None
        assert _plan(adaptive_rounds=4, budget=100)[0] == 4
        rounds, batch = _plan(adaptive_rounds=7, budget=3)
        assert rounds == 3
        assert rounds * batch <= 3
        # An explicit batch is the user's own ceiling.
        assert _plan(adaptive_rounds=7, budget=3, batch=2)[0] == 7

    def test_filter_cells_matches_axis_strings(self):
        cells = CampaignSpec(
            name="s",
            cores=("ibex", "cva6"),
            budgets=(10, 20),
            restrictions=(None, "base"),
        ).expand()
        assert all(c.core == "cva6" for c in filter_cells(cells, {"core": "cva6"}))
        assert len(filter_cells(cells, {"budget": "20"})) == 4
        unrestricted = filter_cells(cells, {"restriction": "-"})
        assert all(c.restriction is None for c in unrestricted)
        assert filter_cells(cells, {"core": "rocket"}) == []
