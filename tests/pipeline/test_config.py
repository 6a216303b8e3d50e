"""Tests for :mod:`repro.pipeline.config`: the one place run keys are
derived.  The byte-level formats are pinned in ``test_keys.py``; these
tests pin the relations between the keys."""

import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.loop import AdaptiveLoop
from repro.attacker import ATTACKER_REGISTRY
from repro.campaign.spec import CampaignCell
from repro.contracts.riscv_template import RESTRICTION_REGISTRY, TEMPLATE_REGISTRY
from repro.evaluation.backends.base import EvaluationTask
from repro.pipeline import PipelineConfig, SynthesisPipeline
from repro.pipeline.config import AdaptivePlan, superset_cache_path
from repro.resilience.injection import inject_fault
from repro.synthesis import SOLVER_REGISTRY
from repro.testgen.strategies import GENERATOR_REGISTRY
from repro.uarch import CORE_REGISTRY

pytestmark = pytest.mark.pipeline


def _task(config):
    """The executor task of a configuration's stream, as
    ``evaluate_parallel`` builds it from the stream key."""
    return EvaluationTask(**config.stream_key())


class TestCheckpointFiles:
    """``manifest_path()`` and ``quarantine_path()`` name the files the
    run actually uses, in both modes."""

    @staticmethod
    def _adaptive(directory):
        return (
            SynthesisPipeline()
            .solver("greedy")
            .budget(40, seed=1)
            .cache_dir(directory)
            .adaptive("coverage", rounds=4)
            .resume(True)
            .retry(2)
        )

    def test_adaptive_manifest_path_is_the_round_manifest(self, tmp_path):
        pipeline = self._adaptive(str(tmp_path))
        manifest = pipeline.manifest_path()
        assert manifest.endswith("-seed1-b10.rounds.jsonl")
        assert pipeline.quarantine_path() == (
            manifest[: -len(".rounds.jsonl")] + ".quarantine.jsonl"
        )
        pipeline.run()
        assert os.listdir(str(tmp_path)) == [os.path.basename(manifest)]

    def test_adaptive_quarantine_path_is_the_failure_log(self, tmp_path):
        pipeline = self._adaptive(str(tmp_path))
        with inject_fault("round-crash", round_index=0, fail_attempts=5):
            with pytest.raises(Exception):
                pipeline.run()
        assert os.path.exists(pipeline.quarantine_path())

    def test_quarantine_needs_retry_or_timeout(self, tmp_path):
        adaptive = self._adaptive(str(tmp_path)).retry(None)
        assert adaptive.quarantine_path() is None
        assert adaptive.timeout(5.0).quarantine_path() is not None
        oneshot = SynthesisPipeline().cache_dir(str(tmp_path))
        assert oneshot.quarantine_path() is None
        assert oneshot.retry(2).quarantine_path().endswith(".quarantine.jsonl")

    def test_adaptive_manifest_path_needs_a_cache_dir(self):
        pipeline = SynthesisPipeline().budget(40).adaptive(rounds=2).resume(True)
        with pytest.raises(ValueError, match="resume"):
            pipeline.manifest_path()
        assert pipeline.resume("rounds.jsonl").manifest_path() == "rounds.jsonl"


CELLS = {
    "one-shot": dict(budget=30, restriction="base", verify=0),
    "adaptive-derived-batch": dict(
        budget=2000, generator="coverage", adaptive_rounds=8
    ),
    "adaptive-budget-below-rounds": dict(
        budget=5, generator="coverage", adaptive_rounds=8
    ),
    "adaptive-explicit-batch": dict(
        budget=100, adaptive_rounds=3, batch=7, stop="full-coverage"
    ),
}


def _cell(**overrides):
    settings = dict(
        core="ibex",
        attacker="retirement-timing",
        template="riscv-rv32im",
        restriction=None,
        solver="greedy",
        seed=0,
    )
    settings.update(overrides)
    return CampaignCell(**settings)


#: Cell fields a :class:`PipelineConfig` holds as they are.
_PLAIN_FIELDS = (
    "core",
    "attacker",
    "template",
    "restriction",
    "solver",
    "budget",
    "seed",
    "generator",
    "fastpath",
    "verify",
)
#: Cell fields the adaptive plan holds.
_ADAPTIVE_FIELDS = ("adaptive_rounds", "batch", "stop")
#: Fault-tolerance fields: the cell's pipeline takes them as its retry
#: policy and shard deadline, never as configuration.
_RUNTIME_FIELDS = ("retries", "shard_timeout")


class TestCellConfig:
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_every_cell_field_survives_from_cell(self, name):
        cell = _cell(**CELLS[name])
        config = cell.pipeline().config
        assert {field.name for field in fields(CampaignCell)} == set(
            _PLAIN_FIELDS + _ADAPTIVE_FIELDS + _RUNTIME_FIELDS
        )
        for field in _PLAIN_FIELDS:
            assert getattr(config, field) == getattr(cell, field), field
        if cell.adaptive_rounds is None:
            assert config.adaptive is None
        else:
            assert config.adaptive.rounds == cell.adaptive_rounds
            assert config.adaptive.batch == cell.batch
            assert config.adaptive.stop == (cell.stop or "contract-stable")

    def test_cell_pipeline_runs_the_derived_round_plan(self):
        cell = _cell(**CELLS["adaptive-budget-below-rounds"])
        assert cell.pipeline().config.round_plan() == (5, 1)


class TestOneStreamKey:
    def test_every_key_derives_from_the_stream_key(self, monkeypatch):
        """Cache file, dataset group, executor task and round-manifest
        key all read the one stream key."""
        stream = PipelineConfig.stream_key

        def patched(config):
            return dict(stream(config), core_name="patched-core")

        monkeypatch.setattr(PipelineConfig, "stream_key", patched)
        config = PipelineConfig(budget=10)
        assert "/patched-core-" in config.cache_path("cache")
        assert config.dataset_group()[0] == "patched-core"
        assert _task(config).identity()["core"] == "patched-core"
        adaptive = config.evolve(adaptive=AdaptivePlan(rounds=2))
        assert adaptive.round_manifest_key()["core"] == "patched-core"
        assert "/patched-core-" in adaptive.manifest_path("cache", True)

    def test_loop_and_pipeline_share_the_round_key(self):
        config = PipelineConfig(
            generator="coverage", seed=3, budget=60, adaptive=AdaptivePlan(rounds=3)
        )
        loop = AdaptiveLoop(config)
        assert (loop.rounds, loop.batch) == config.round_plan() == (3, 20)
        assert loop.manifest_key() == config.round_manifest_key()
        stem = config.manifest_path("cache", True)[: -len(".rounds.jsonl")]
        assert stem.endswith("-gcoverage-scipy-milp-seed3-b20")

    def test_template_is_built_once_per_configuration(self, monkeypatch):
        built = []
        for registry in (
            TEMPLATE_REGISTRY,
            CORE_REGISTRY,
            ATTACKER_REGISTRY,
            SOLVER_REGISTRY,
            GENERATOR_REGISTRY,
        ):

            def counting(name, *args, _create=registry.create, **kwargs):
                built.append(name)
                return _create(name, *args, **kwargs)

            monkeypatch.setattr(registry, "create", counting)
        pipeline = SynthesisPipeline().cache_dir("cache").resume()
        pipeline.resolve_template()
        pipeline.budget(50, seed=2).retry(2)
        pipeline.cache_path(), pipeline.manifest_path(), pipeline.quarantine_path()
        assert built == ["riscv-rv32im"]
        pipeline.template("riscv-mem").cache_path()
        assert built == ["riscv-rv32im", "riscv-mem"]
        # An adaptive run hands its own configuration to the loop, so it
        # builds each of its plugins once.
        built.clear()
        adaptive = SynthesisPipeline().budget(40, seed=1).adaptive("coverage", rounds=2)
        adaptive.executor("serial", processes=1).run()
        assert sorted(built) == [
            "coverage",
            "ibex",
            "retirement-timing",
            "riscv-rv32im",
            "scipy-milp",
        ]


class TestAdaptivePlan:
    @pytest.mark.parametrize(
        "plan", [dict(rounds=0), dict(rounds=-1), dict(batch=0), dict(batch=-5)]
    )
    def test_rounds_and_batch_must_be_positive(self, plan):
        with pytest.raises(ValueError, match="must be at least 1"):
            AdaptivePlan(**plan)

    def test_the_builder_rejects_zero_rounds(self):
        pipeline = SynthesisPipeline().budget(100)
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            pipeline.adaptive("coverage", rounds=0)
        with pytest.raises(ValueError, match="batch must be at least 1"):
            pipeline.adaptive("coverage", batch=0)

    def test_a_campaign_cell_of_zero_rounds_is_rejected(self):
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            PipelineConfig.from_cell(_cell(budget=10, adaptive_rounds=0))

    def test_the_loop_runs_only_an_adaptive_configuration(self):
        with pytest.raises(ValueError, match="config.adaptive"):
            AdaptiveLoop(PipelineConfig())


# -- property: one stream, one cache-file stem -------------------------

_TEMPLATES = {
    name: TEMPLATE_REGISTRY.create(name) for name in TEMPLATE_REGISTRY.names()
}

_AXES = {
    "core": st.sampled_from(CORE_REGISTRY.names()),
    "attacker": st.sampled_from(ATTACKER_REGISTRY.names()),
    # Prebuilt instances of the registered templates: their keys equal
    # the named template's, without rebuilding one per example.
    "template": st.sampled_from(sorted(_TEMPLATES)).map(_TEMPLATES.get),
    "restriction": st.sampled_from([None] + RESTRICTION_REGISTRY.names()),
    "solver": st.sampled_from(SOLVER_REGISTRY.names()),
    "generator": st.sampled_from(GENERATOR_REGISTRY.names()),
    "budget": st.integers(min_value=1, max_value=5000),
    "seed": st.integers(min_value=0, max_value=1),
    "fastpath": st.booleans(),
    "verify": st.sampled_from([None, 0, 50]),
}
_configs = st.builds(PipelineConfig, **_AXES)


def test_prebuilt_templates_key_like_their_names():
    for name, template in _TEMPLATES.items():
        by_name = PipelineConfig(template=name)
        by_instance = PipelineConfig(template=template)
        assert by_name.cache_path("cache") == by_instance.cache_path("cache")
        assert by_name.stream_key() == by_instance.stream_key()


def _same_stream(a, b):
    return (
        a.dataset_group() == b.dataset_group()
        and _task(a).identity() == _task(b).identity()
    )


#: The axes of the evaluated stream; the rest only change the budget
#: or the synthesis of one stream.
_STREAM_AXES = ("core", "attacker", "template", "seed", "fastpath", "generator")


def _variant(config, data):
    """``config`` with a new budget and synthesis axes, and either the
    same stream, one stream axis redrawn, or an unrelated stream."""
    changes = {axis: data.draw(_AXES[axis]) for axis in _AXES}
    kept = data.draw(st.sampled_from(("all", "all but one", "none")))
    if kept != "none":
        for axis in _STREAM_AXES:
            changes[axis] = getattr(config, axis)
    if kept == "all but one":
        axis = data.draw(st.sampled_from(_STREAM_AXES))
        old = getattr(config, axis)
        changes[axis] = data.draw(_AXES[axis].filter(lambda new: new != old))
    return config.evolve(**changes)


@settings(max_examples=60, deadline=None)
@given(_configs, st.data())
def test_cache_stem_is_shared_exactly_by_one_stream(a, data):
    b = _variant(a, data)
    same_stem = a.evolve(budget=b.budget).cache_path("cache") == b.cache_path("cache")
    assert same_stem == _same_stream(a, b)


@settings(max_examples=60, deadline=None)
@given(_configs, st.data())
def test_superset_search_finds_the_larger_budgets_of_the_stream(query, data):
    cached = [_variant(query, data) for _ in range(data.draw(st.integers(0, 8)))]
    with tempfile.TemporaryDirectory() as directory:
        for config in cached:
            open(config.cache_path(directory), "w").close()
        larger = sorted(
            config.budget
            for config in cached
            if config.budget > query.budget and _same_stream(config, query)
        )
        expected = (
            query.evolve(budget=larger[0]).cache_path(directory) if larger else None
        )
        found = superset_cache_path(query.cache_path(directory), query.budget)
        assert found == expected
