"""Benchmark: the evaluation executor backends against one another.

One round per backend over the same shard plan (the corpus scales with
``REPRO_SCALE`` like the experiment suites), asserting the determinism
contract on the way: every backend's dataset is byte-identical.

On multi-core hardware the ``multiprocess`` pool should approach
linear speedup over ``serial``; on a single-core CI runner it mostly
measures its own dispatch overhead — either way the relative numbers
land in the benchmark table, so executor regressions are visible.
"""

import pytest

from repro.evaluation.backends import EXECUTOR_REGISTRY
from repro.evaluation.parallel import evaluate_parallel

_SEED = 11


@pytest.fixture(scope="module")
def corpus_size(bench_config):
    return max(40, int(200 * bench_config.scale))


@pytest.fixture(scope="module")
def reference_json(corpus_size):
    dataset = evaluate_parallel(
        "ibex", corpus_size, seed=_SEED, executor="serial", shard_size=50
    )
    return dataset.to_json()


@pytest.mark.parametrize("name", EXECUTOR_REGISTRY.names())
def test_bench_executor_backend(benchmark, name, corpus_size, reference_json):
    dataset = benchmark.pedantic(
        evaluate_parallel,
        args=("ibex", corpus_size),
        kwargs={
            "seed": _SEED,
            "processes": 2,
            "shard_size": 50,
            "executor": name,
        },
        rounds=1,
        iterations=1,
    )
    assert len(dataset) == corpus_size
    assert dataset.to_json() == reference_json
