"""Golden on-disk keys: every file name, manifest key, store key and job
id a configuration derives, pinned byte for byte.

A change to any of these values orphans existing caches, manifests,
stored contracts or queued jobs, so it must come with a version bump.
Each parametrized case is one ``(configuration, key)`` pair.  The
round-manifest and round-quarantine paths are observed from the
:class:`~repro.adaptive.AdaptiveLoop` the pipeline actually builds, not
from a path method, so they pin what an adaptive run writes.
"""

import pytest

from repro.adaptive import loop as loop_module
from repro.adaptive.loop import AdaptiveLoop
from repro.campaign.spec import CampaignCell
from repro.contracts.riscv_template import build_riscv_template
from repro.evaluation.backends.base import EvaluationTask
from repro.pipeline import SynthesisPipeline
from repro.pipeline.config import AdaptivePlan, PipelineConfig
from repro.service.queue import job_id_for

pytestmark = pytest.mark.pipeline

CACHE = "cache"

#: Name-addressed axes of each configuration (``template`` may be an
#: instance); every field defaults to the pipeline default.
CONFIGS = {
    "default-12k": dict(budget=12000, seed=0),
    "reference": dict(budget=1000, seed=1, fastpath=False),
    "coverage": dict(budget=2000, seed=2, generator="coverage"),
    "cva6-mem": dict(core="cva6", template="riscv-mem", budget=3000, seed=0),
    "dcache-cache-state": dict(
        core="ibex-dcache",
        attacker="cache-state",
        template="riscv-mem",
        budget=500,
        seed=4,
    ),
    "template-instance": dict(template="max_distance=8", budget=1000, seed=0),
    "adaptive": dict(
        budget=400,
        seed=1,
        generator="coverage",
        restriction="base",
        adaptive_rounds=4,
        batch=50,
    ),
    "cell-retries": dict(budget=800, seed=3, solver="greedy", retries=2),
}


def _axes(name):
    axes = dict(
        core="ibex",
        attacker="retirement-timing",
        template="riscv-rv32im",
        restriction=None,
        solver="scipy-milp",
        generator="random",
        fastpath=True,
        adaptive_rounds=None,
        batch=None,
        retries=None,
    )
    axes.update(CONFIGS[name])
    return axes


def _template(axes):
    if axes["template"] == "max_distance=8":
        return build_riscv_template(max_distance=8)
    return axes["template"]


def _cell(axes):
    return CampaignCell(
        core=axes["core"],
        attacker=axes["attacker"],
        template=axes["template"],
        restriction=axes["restriction"],
        solver=axes["solver"],
        budget=axes["budget"],
        seed=axes["seed"],
        generator=axes["generator"],
        adaptive_rounds=axes["adaptive_rounds"],
        batch=axes["batch"],
        fastpath=axes["fastpath"],
        retries=axes["retries"],
    )


def _pipeline(axes):
    if axes["retries"] is not None:
        return _cell(axes).pipeline(cache_dir=CACHE)
    pipeline = (
        SynthesisPipeline()
        .core(axes["core"])
        .attacker(axes["attacker"])
        .template(_template(axes))
        .solver(axes["solver"])
        .generator(axes["generator"])
        .budget(axes["budget"], seed=axes["seed"])
        .fastpath(axes["fastpath"])
        .restrict(axes["restriction"])
        .cache_dir(CACHE)
        .resume()
        .retry(2)
    )
    if axes["adaptive_rounds"] is not None:
        pipeline.adaptive(rounds=axes["adaptive_rounds"], batch=axes["batch"])
    return pipeline


def _task(axes):
    return EvaluationTask(
        core_name=axes["core"],
        seed=axes["seed"],
        use_fastpath=axes["fastpath"],
        template_name=axes["template"],
        attacker_name=axes["attacker"],
        generator_name=axes["generator"],
    )


class _Observed(Exception):
    pass


def _observe_loop(pipeline, monkeypatch):
    """The :class:`AdaptiveLoop` an adaptive ``run()`` builds, caught
    before it evaluates anything."""

    def capture(loop):
        raise _Observed(loop)

    monkeypatch.setattr(loop_module.AdaptiveLoop, "run", capture)
    with pytest.raises(_Observed) as caught:
        pipeline.run()
    return caught.value.args[0]


def _key(name, column, monkeypatch):
    axes = _axes(name)
    if column == "cache_path":
        return _pipeline(axes).cache_path()
    if column == "manifest_path":
        return _pipeline(axes).manifest_path()
    if column == "quarantine_path":
        return _pipeline(axes).quarantine_path()
    if column == "round_manifest_path":
        return _observe_loop(_pipeline(axes), monkeypatch).manifest_path
    if column == "round_quarantine_path":
        return _observe_loop(_pipeline(axes), monkeypatch).failure_log_path
    if column == "manifest_key":
        if axes["adaptive_rounds"] is not None:
            return _observe_loop(_pipeline(axes), monkeypatch).manifest_key()
        config = PipelineConfig(
            template=_template(axes),
            generator=axes["generator"],
            adaptive=AdaptivePlan(batch=250),
        )
        return AdaptiveLoop(config).manifest_key()
    if column == "task_identity":
        return _task(axes).identity()
    if column == "job_id":
        return job_id_for(_task(axes), (0, 250))
    if column == "cell_key":
        return _cell(axes).key()
    raise AssertionError(column)


#: Recorded from the code before the keys moved into
#: ``repro.pipeline.config``.  Two entries differ from what that code
#: returned: ``adaptive/manifest_path`` raised and
#: ``adaptive/quarantine_path`` was ``None``, although the run used the
#: round files pinned here (see ``round_manifest_path``).
GOLDEN = {
    "default-12k": {
        "cache_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed0-n12000.json",
        "manifest_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed0-n12000.shards.jsonl",
        "quarantine_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed0-n12000.quarantine.jsonl",
        "task_identity": {
            "core": "ibex",
            "template": "riscv-rv32im",
            "attacker": "retirement-timing",
            "seed": 0,
            "max_distance": 4,
            "fastpath": True,
        },
        "job_id": "66569c4e72d4152e9c0adc21ba8fd789",
        "cell_key": '{"adaptive_rounds": null, "attacker": "retirement-timing", "batch": null, "budget": 12000, "core": "ibex", "fastpath": true, "generator": "random", "restriction": null, "seed": 0, "solver": "scipy-milp", "stop": null, "template": "riscv-rv32im", "verify": null}',
    },
    "reference": {
        "cache_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed1-n1000-ref.json",
        "manifest_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed1-n1000-ref.shards.jsonl",
        "quarantine_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed1-n1000-ref.quarantine.jsonl",
        "task_identity": {
            "core": "ibex",
            "template": "riscv-rv32im",
            "attacker": "retirement-timing",
            "seed": 1,
            "max_distance": 4,
            "fastpath": False,
        },
        "job_id": "e1e2767d2356f73d5024f1c34bf7f7d5",
        "cell_key": '{"adaptive_rounds": null, "attacker": "retirement-timing", "batch": null, "budget": 1000, "core": "ibex", "fastpath": false, "generator": "random", "restriction": null, "seed": 1, "solver": "scipy-milp", "stop": null, "template": "riscv-rv32im", "verify": null}',
    },
    "coverage": {
        "cache_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-gcoverage-seed2-n2000.json",
        "manifest_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-gcoverage-seed2-n2000.shards.jsonl",
        "quarantine_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-gcoverage-seed2-n2000.quarantine.jsonl",
        "task_identity": {
            "core": "ibex",
            "template": "riscv-rv32im",
            "attacker": "retirement-timing",
            "seed": 2,
            "max_distance": 4,
            "fastpath": True,
            "generator": "coverage",
        },
        "job_id": "3c4712fa0d9cb258d401092b7935800a",
        "cell_key": '{"adaptive_rounds": null, "attacker": "retirement-timing", "batch": null, "budget": 2000, "core": "ibex", "fastpath": true, "generator": "coverage", "restriction": null, "seed": 2, "solver": "scipy-milp", "stop": null, "template": "riscv-rv32im", "verify": null}',
    },
    "cva6-mem": {
        "cache_path": "cache/cva6-riscv-mem-7b6fbf29-retirement-timing-seed0-n3000.json",
        "manifest_path": "cache/cva6-riscv-mem-7b6fbf29-retirement-timing-seed0-n3000.shards.jsonl",
        "quarantine_path": "cache/cva6-riscv-mem-7b6fbf29-retirement-timing-seed0-n3000.quarantine.jsonl",
        "task_identity": {
            "core": "cva6",
            "template": "riscv-mem",
            "attacker": "retirement-timing",
            "seed": 0,
            "max_distance": 4,
            "fastpath": True,
        },
        "job_id": "83d11defe0571cc60fd467362ced5084",
        "cell_key": '{"adaptive_rounds": null, "attacker": "retirement-timing", "batch": null, "budget": 3000, "core": "cva6", "fastpath": true, "generator": "random", "restriction": null, "seed": 0, "solver": "scipy-milp", "stop": null, "template": "riscv-mem", "verify": null}',
    },
    "dcache-cache-state": {
        "cache_path": "cache/ibex-dcache-riscv-mem-7b6fbf29-cache-state-seed4-n500.json",
        "manifest_path": "cache/ibex-dcache-riscv-mem-7b6fbf29-cache-state-seed4-n500.shards.jsonl",
        "quarantine_path": "cache/ibex-dcache-riscv-mem-7b6fbf29-cache-state-seed4-n500.quarantine.jsonl",
        "task_identity": {
            "core": "ibex-dcache",
            "template": "riscv-mem",
            "attacker": "cache-state",
            "seed": 4,
            "max_distance": 4,
            "fastpath": True,
        },
        "job_id": "131992a16c9fceb18f8c77e9bf589e4e",
        "cell_key": '{"adaptive_rounds": null, "attacker": "cache-state", "batch": null, "budget": 500, "core": "ibex-dcache", "fastpath": true, "generator": "random", "restriction": null, "seed": 4, "solver": "scipy-milp", "stop": null, "template": "riscv-mem", "verify": null}',
    },
    "template-instance": {
        "cache_path": "cache/ibex-riscv-rv32im-0f50ecb3-retirement-timing-seed0-n1000.json",
        "manifest_path": "cache/ibex-riscv-rv32im-0f50ecb3-retirement-timing-seed0-n1000.shards.jsonl",
        "quarantine_path": "cache/ibex-riscv-rv32im-0f50ecb3-retirement-timing-seed0-n1000.quarantine.jsonl",
        "manifest_key": {
            "core": "ibex",
            "template": "riscv-rv32im",
            "template_digest": "0f50ecb3",
            "attacker": "retirement-timing",
            "seed": 0,
            "generator": "random",
            "batch": 250,
            "fastpath": True,
            "solver": "scipy-milp",
            "restriction": None,
        },
    },
    "adaptive": {
        "cache_path": None,
        "manifest_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-gcoverage-scipy-milp-rIL+RL+ML-seed1-b50.rounds.jsonl",
        "quarantine_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-gcoverage-scipy-milp-rIL+RL+ML-seed1-b50.quarantine.jsonl",
        "round_manifest_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-gcoverage-scipy-milp-rIL+RL+ML-seed1-b50.rounds.jsonl",
        "round_quarantine_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-gcoverage-scipy-milp-rIL+RL+ML-seed1-b50.quarantine.jsonl",
        "manifest_key": {
            "core": "ibex",
            "template": "riscv-rv32im",
            "template_digest": "fbdd8e8d",
            "attacker": "retirement-timing",
            "seed": 1,
            "generator": "coverage",
            "batch": 50,
            "fastpath": True,
            "solver": "scipy-milp",
            "restriction": "IL+RL+ML",
        },
        "cell_key": '{"adaptive_rounds": 4, "attacker": "retirement-timing", "batch": 50, "budget": 400, "core": "ibex", "fastpath": true, "generator": "coverage", "restriction": "base", "seed": 1, "solver": "scipy-milp", "stop": null, "template": "riscv-rv32im", "verify": null}',
    },
    "cell-retries": {
        "cache_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed3-n800.json",
        "manifest_path": None,
        "quarantine_path": "cache/ibex-riscv-rv32im-fbdd8e8d-retirement-timing-seed3-n800.quarantine.jsonl",
        "task_identity": {
            "core": "ibex",
            "template": "riscv-rv32im",
            "attacker": "retirement-timing",
            "seed": 3,
            "max_distance": 4,
            "fastpath": True,
        },
        "job_id": "ff60086b59ba31b80f12f1782ee1a722",
        "cell_key": '{"adaptive_rounds": null, "attacker": "retirement-timing", "batch": null, "budget": 800, "core": "ibex", "fastpath": true, "generator": "random", "restriction": null, "retries": 2, "seed": 3, "solver": "greedy", "stop": null, "template": "riscv-rv32im", "verify": null}',
    },
}


def _cases():
    for name, columns in GOLDEN.items():
        for column, value in columns.items():
            yield pytest.param(name, column, value, id="%s/%s" % (name, column))


@pytest.mark.parametrize("name,column,expected", list(_cases()))
def test_golden_key(name, column, expected, monkeypatch):
    assert _key(name, column, monkeypatch) == expected
