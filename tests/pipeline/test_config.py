"""Tests for :mod:`repro.pipeline.config`: the one place run keys are
derived.  The byte-level formats are pinned in ``test_keys.py``; these
tests pin the relations between the keys."""

import os
import tempfile

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
from repro.service.store import ContractStore
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


STORE_CELLS = {
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


def _store_cell(**fields):
    settings = dict(
        core="ibex",
        attacker="retirement-timing",
        template="riscv-rv32im",
        restriction=None,
        solver="greedy",
        seed=0,
    )
    settings.update(fields)
    return CampaignCell(**settings)


class TestStoreKey:
    @pytest.mark.parametrize("name", sorted(STORE_CELLS))
    def test_cell_pipeline_stores_under_the_cell_key(self, name):
        cell = _store_cell(**STORE_CELLS[name])
        assert cell.pipeline().config.cell().key() == cell.key()

    def test_cell_pipeline_runs_the_derived_round_plan(self):
        cell = _store_cell(**STORE_CELLS["adaptive-budget-below-rounds"])
        assert cell.pipeline().config.round_plan() == (
            cell.effective_rounds(),
            cell.effective_batch(),
        ) == (5, 1)

    def test_adaptive_cell_run_is_found_in_the_store(self, tmp_path):
        store = ContractStore(str(tmp_path / "store"))
        cell = _store_cell(**STORE_CELLS["adaptive-budget-below-rounds"])
        cell.pipeline().store(store).run()
        assert store.get(cell) is not None

    def test_store_needs_a_named_stopping_rule(self):
        from repro.adaptive.stopping import STOPPING_REGISTRY

        rule = STOPPING_REGISTRY.create("full-coverage")
        config = PipelineConfig(adaptive=AdaptivePlan(rounds=2, stop=rule))
        with pytest.raises(ValueError, match="registry name.*stop"):
            config.cell()


class TestOneStreamKey:
    def test_every_key_derives_from_the_stream_key(self, monkeypatch):
        """Cache file, dataset group, executor task, job payload and
        round-manifest key all read the one stream key."""
        stream = PipelineConfig.stream_key

        def patched(config):
            return dict(stream(config), core_name="patched-core")

        monkeypatch.setattr(PipelineConfig, "stream_key", patched)
        config = PipelineConfig(budget=10)
        assert "/patched-core-" in config.cache_path("cache")
        assert config.dataset_group()[0] == "patched-core"
        assert _task(config).identity()["core"] == "patched-core"
        assert config.round_manifest_key(10, None)["core"] == "patched-core"
        adaptive = config.evolve(adaptive=AdaptivePlan(rounds=2))
        assert "/patched-core-" in adaptive.manifest_path("cache", True)

    def test_loop_and_pipeline_share_the_round_key(self):
        config = PipelineConfig(generator="coverage", seed=3, budget=60)
        loop = AdaptiveLoop(generator="coverage", seed=3, batch=20)
        assert loop.manifest_key() == config.round_manifest_key(20, None)

    def test_template_is_built_once_per_configuration(self, monkeypatch):
        built = []
        create = TEMPLATE_REGISTRY.create

        def counting(name, *args, **kwargs):
            built.append(name)
            return create(name, *args, **kwargs)

        monkeypatch.setattr(TEMPLATE_REGISTRY, "create", counting)
        pipeline = SynthesisPipeline().cache_dir("cache").resume()
        pipeline.resolve_template()
        pipeline.budget(50, seed=2).retry(2)
        pipeline.cache_path(), pipeline.manifest_path(), pipeline.quarantine_path()
        assert built == ["riscv-rv32im"]
        pipeline.template("riscv-mem").cache_path()
        assert built == ["riscv-rv32im", "riscv-mem"]


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
