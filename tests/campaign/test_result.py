"""Tests for :class:`CampaignResult` selection and the comparison table,
on hand-built outcomes (no pipeline runs)."""

import dataclasses

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignResult,
    CampaignSpec,
    CellOutcome,
    varying_axes,
)
from repro.campaign.result import TIMING_KEYS
from repro.reporting.tables import render_comparison_table
from repro.resilience.quarantine import FailureRecord

pytestmark = pytest.mark.campaign


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


def _outcome(cell, **overrides):
    fields = dict(
        cell=cell,
        atom_ids=(3, 5),
        false_positives=1,
        test_cases=cell.budget,
        distinguishable=4,
        optimal=True,
        solver_name=cell.solver,
        satisfied=None,
        timings={"total": 0.25},
        cache_hit=False,
        dataset_reused=False,
    )
    fields.update(overrides)
    return CellOutcome(**fields)


def _result(outcomes, **overrides):
    cells = [outcome.cell for outcome in outcomes]
    return CampaignResult(
        spec=CampaignSpec(name="grid"), cells=cells, outcomes=outcomes, **overrides
    )


class TestVaryingAxes:
    def test_one_cell_varies_nothing(self):
        assert varying_axes([_cell()]) == []

    def test_axes_come_in_declaration_order(self):
        cells = [_cell(seed=1, core="cva6"), _cell(seed=2), _cell(budget=20)]
        assert varying_axes(cells) == ["core", "budget", "seed"]

    def test_none_counts_as_a_value(self):
        cells = [_cell(restriction=None), _cell(restriction="IL")]
        assert varying_axes(cells) == ["restriction"]

    def test_non_axis_fields_are_ignored(self):
        cells = [_cell(verify=None), _cell(verify=0), _cell(retries=2)]
        assert varying_axes(cells) == []


class TestSelection:
    def test_outcome_for_finds_by_full_identity(self):
        first, second = _cell(seed=1), _cell(seed=2)
        result = _result([_outcome(first), _outcome(second, atom_ids=(9,))])
        assert result.outcome_for(second).atom_ids == (9,)
        with pytest.raises(KeyError):
            result.outcome_for(_cell(seed=3))

    def test_select_and_outcome(self):
        result = _result(
            [
                _outcome(_cell(seed=seed, core=core))
                for core in ("ibex", "cva6")
                for seed in (0, 1)
            ]
        )
        assert len(result.select(core="cva6")) == 2
        assert result.outcome(core="cva6", seed=1).cell == _cell(core="cva6", seed=1)
        with pytest.raises(KeyError, match="found 2"):
            result.outcome(seed=0)

    def test_result_for_without_a_factory_raises(self):
        cell = _cell()
        result = _result([_outcome(cell, resumed=True)])
        with pytest.raises(KeyError, match="no pipeline factory"):
            result.result_for(cell)

    def test_quarantined_cells_are_the_cell_records(self):
        records = [
            FailureRecord("cell", {"cell": "a"}),
            FailureRecord("shard", {"start_id": 0, "count": 5}),
        ]
        result = _result([_outcome(_cell())], failures=records)
        assert result.quarantined_cells == records[:1]


class TestComparisonTable:
    def test_single_cell_table_keeps_the_core_column(self):
        table = _result([_outcome(_cell())]).comparison_table()
        lines = table.splitlines()
        assert lines[0] == "Campaign 'grid' — 1 cells (0 resumed)"
        assert lines[1].split() == (
            "core cases dist atoms FPs optimal verified total s dataset".split()
        )
        assert lines[3].split() == "ibex 10 4 2 1 yes skipped 0.250 fresh".split()

    def test_verdict_and_dataset_columns(self):
        outcomes = [
            _outcome(_cell(restriction=None), satisfied=True, resumed=True),
            _outcome(_cell(restriction="IL"), satisfied=False, dataset_reused=True),
        ]
        rows = _result(outcomes).comparison_table().splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["-", "IL"]
        assert [row.split()[-3] for row in rows] == ["yes", "VIOLATED"]
        assert [row.split()[-1] for row in rows] == ["resumed", "reused"]

    def test_render_names_quarantined_cells_and_the_manifest(self):
        result = _result(
            [_outcome(_cell())],
            failures=[FailureRecord("cell", {"cell": "core=cva6"})],
            manifest_path="grid.cells.jsonl",
            total_seconds=1.5,
        )
        lines = result.render().splitlines()
        assert lines[-2] == (
            "quarantined: 1 cell(s) dropped after exhausting retries (core=cva6)"
        )
        assert lines[-1] == "campaign wall time: 1.500s (manifest: grid.cells.jsonl)"


class TestRenderComparisonTable:
    def test_columns_are_sized_to_the_widest_cell(self):
        table = render_comparison_table(["a", "bb"], [["xxx", "y"], ["z", ""]])
        assert table.splitlines() == ["a    bb", "---  --", "xxx  y", "z"]

    def test_title_is_the_first_line(self):
        table = render_comparison_table(["h"], [], title="T")
        assert table.splitlines() == ["T", "h", "-"]

    def test_ragged_row_raises(self):
        with pytest.raises(ValueError, match="1 cells for 2 headers"):
            render_comparison_table(["a", "b"], [["only"]])


def test_outcome_dict_round_trip_keeps_every_field():
    outcome = _outcome(
        _cell(retries=2, shard_timeout=1.5),
        satisfied=False,
        template_digest="abc",
        failures=(FailureRecord("shard", {"start_id": 0, "count": 5}, "boom", 2),),
        timings={key: 0.5 * index for index, key in enumerate(TIMING_KEYS)},
    )
    restored = CellOutcome.from_dict(outcome.to_dict(), resumed=True)
    assert restored == dataclasses.replace(outcome, resumed=True)


def test_outcome_dict_fills_missing_timings_with_zero():
    data = _outcome(_cell()).to_dict()
    assert data["timings"] == {
        key: 0.25 if key == "total" else 0.0 for key in TIMING_KEYS
    }
