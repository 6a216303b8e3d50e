"""The row form of a ``TestCaseResult`` at the two JSONL seams.

Results are written as JSON rows ``[test_id, distinguishable, sorted
atom ids, targeted]`` in exactly two places: shard-manifest lines and
adaptive round entries.  The golden tests
pin those bytes through the public flows that write them, so any
change to the in-memory result type must leave every checkpoint
written before it readable and byte-identical.  Everywhere else,
results travel as ``TestCaseResult`` objects: a run without a
checkpoint never encodes a row.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adaptive import AdaptiveLoop
from repro.contracts.riscv_template import build_riscv_template
from repro.evaluation.backends import SerialExecutor, ShardEvaluator
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.evaluation.parallel import evaluate_parallel
from repro.evaluation.results import TestCaseResult
from repro.pipeline import SynthesisPipeline
from repro.pipeline.config import AdaptivePlan, PipelineConfig
from repro.testgen.generator import TestCaseGenerator
from repro.uarch.ibex import IbexCore

#: Hand-made outcomes covering the row edge cases: unsorted atom ids, an
#: empty atom set, and ``targeted_atom_id=None``.  The only minimal
#: contract over them is atom 3 (17 distinguishes an indistinguishable
#: case), so the adaptive round entry is independent of solver ties.
RESULTS = [
    TestCaseResult(0, True, frozenset({17, 3}), 3),
    TestCaseResult(1, False, frozenset(), None),
    TestCaseResult(2, True, frozenset({3}), None),
    TestCaseResult(3, False, frozenset({17}), 17),
]

SHARD_LINES = [
    '{"shard": [0, 2], "rows": [[0, true, [3, 17], 3], [1, false, [], null]]}',
    '{"shard": [2, 2], "rows": [[2, true, [3], null], [3, false, [17], 17]]}',
]
ROUND_LINE = (
    '{"round": 0, "start_id": 0, "rows": [[0, true, [3, 17], 3], '
    "[1, false, [], null], [2, true, [3], null], [3, false, [17], 17]], "
    '"state": {"counts": {"3": 2, "17": 2}}, "contract": [3], "fps": 0, '
    '"stop": null}'
)


class _Generator:
    """Test ids stand in for test cases."""

    def iter_generate(self, count, start_id=0):
        return iter(range(start_id, start_id + count))


class _Evaluator:
    def evaluate_batch(self, test_ids):
        return [RESULTS[test_id] for test_id in test_ids]


def _stub() -> ShardEvaluator:
    return ShardEvaluator(_Generator(), _Evaluator())


def _lines(path) -> list:
    with open(path) as stream:
        return stream.read().splitlines()


class TestGoldenBytes:
    def test_shard_manifest_lines(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        dataset = evaluate_parallel(
            "ibex",
            len(RESULTS),
            seed=0,
            shard_size=2,
            executor=SerialExecutor(worker=_stub()),
            manifest_path=str(path),
        )
        assert list(dataset) == RESULTS
        assert _lines(path)[1:] == SHARD_LINES
        resumed = evaluate_parallel(
            "ibex",
            len(RESULTS),
            seed=0,
            shard_size=2,
            executor="serial",  # never built: every shard is stored
            manifest_path=str(path),
        )
        assert list(resumed) == RESULTS

    def test_adaptive_round_entry(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        config = PipelineConfig(
            generator="coverage", adaptive=AdaptivePlan(1, len(RESULTS))
        )
        loop = AdaptiveLoop(
            config,
            executor=SerialExecutor(worker=_stub()),
            manifest_path=str(path),
        )
        assert list(loop.run().dataset) == RESULTS
        assert _lines(path)[1:] == [ROUND_LINE]
        replayed = AdaptiveLoop(config, manifest_path=str(path)).run()
        assert replayed.resumed_rounds == 1
        assert list(replayed.dataset) == RESULTS


results = st.builds(
    TestCaseResult,
    test_id=st.integers(min_value=0, max_value=2**31),
    attacker_distinguishable=st.booleans(),
    distinguishing_atom_ids=st.frozensets(st.integers(min_value=0, max_value=4096)),
    targeted_atom_id=st.none() | st.integers(min_value=0, max_value=4096),
)


class TestRowCodec:
    @given(results)
    def test_json_round_trip(self, result):
        assert TestCaseResult.from_row(json.loads(json.dumps(result.to_row()))) == result


def _no_rows(*args, **kwargs):
    raise AssertionError("an in-process run encoded or decoded a row")


def _sequential(count: int) -> str:
    template = build_riscv_template()
    generator = TestCaseGenerator(template, seed=0)
    evaluator = TestCaseEvaluator(IbexCore(), template)
    return evaluator.evaluate_many(generator.iter_generate(count)).to_json()


class TestInMemoryPath:
    """Without a checkpoint, results flow from the evaluator to the
    dataset as they are: the row codec is never called."""

    @pytest.fixture(autouse=True)
    def forbid_rows(self, monkeypatch):
        monkeypatch.setattr(TestCaseResult, "to_row", _no_rows)
        monkeypatch.setattr(TestCaseResult, "from_row", staticmethod(_no_rows))

    def test_default_run(self):
        dataset = SynthesisPipeline().budget(600).run().dataset
        assert dataset.to_json() == _sequential(600)

    def test_default_adaptive_run(self):
        dataset = SynthesisPipeline().budget(600).adaptive().run().dataset
        assert len(dataset) > 0
        assert dataset.to_json() == _sequential(len(dataset))
