"""Shard-manifest checkpointing: append-only JSONL of completed shards.

A manifest makes an evaluation run resumable: every completed shard is
appended (and flushed) as one JSON line, so a run killed at 95% keeps
95% of its work.  The next run with the same task identity loads the
manifest, reuses every stored shard that matches its plan, and
evaluates only the missing ones.

File layout — line 1 is a header binding the file to the task identity
(core, template, attacker, seed, dependency distance, extraction
engine — the same axes as the dataset cache key); every further line
is one completed shard, its results as ``TestCaseResult.to_row`` rows::

    {"manifest": "evaluation-shards", "version": 1, "key": {...}}
    {"shard": [0, 250], "rows": [[0, true, [3, 17], 3], ...]}
    {"shard": [250, 250], "rows": [...]}

The file mechanics (header key binding, torn-final-line recovery,
flushed appends) live in :class:`repro.checkpoint.JsonlCheckpoint`,
shared with the campaign cell manifest.  One rule is specific to this
layer: the total budget is not part of the identity, so extending the
budget resumes from the same manifest (shards are keyed by
``(start_id, count)`` and generated per test id).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.checkpoint import CheckpointKeyError, JsonlCheckpoint
from repro.evaluation.backends.base import Shard
from repro.evaluation.results import TestCaseResult


class ManifestKeyError(CheckpointKeyError):
    """The manifest on disk was written for a different task identity."""


class ShardManifest(JsonlCheckpoint):
    """An append-only JSONL checkpoint of completed evaluation shards."""

    kind = "evaluation-shards"
    description = "shard manifest"
    subject = "evaluation"
    hint = "pass a different --resume path"
    key_error = ManifestKeyError

    def __init__(self, path: str, key: dict):
        #: Completed shards loaded from disk, keyed by descriptor.
        self.completed: Dict[Shard, List[TestCaseResult]] = {}
        super().__init__(path, key)

    # -- checkpoint payload --------------------------------------------

    def _accept(self, entry: dict) -> None:
        shard = tuple(entry["shard"])
        self.completed[shard] = [TestCaseResult.from_row(row) for row in entry["rows"]]

    def _entries(self) -> Iterable[dict]:
        for shard, results in self.completed.items():
            yield _entry(shard, results)

    def append(self, shard: Shard, results: Sequence[TestCaseResult]) -> None:
        """Checkpoint one completed shard (flushed immediately)."""
        self._append(_entry(shard, results))
        self.completed[shard] = list(results)

    # -- plan intersection ---------------------------------------------

    def stored(self, shards: Sequence[Shard]) -> Dict[Shard, List[TestCaseResult]]:
        """The subset of ``shards`` already completed in this manifest.

        Matching is by exact descriptor — a plan with a different
        ``shard_size`` simply reuses nothing, which is always sound.
        """
        reused = {}
        for shard in shards:
            if shard in self.completed:
                reused[shard] = self.completed[shard]
        return reused

    def __len__(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ShardManifest(%s, %d shards)" % (self.path, len(self.completed))


def _entry(shard: Shard, results: Sequence[TestCaseResult]) -> dict:
    return {"shard": list(shard), "rows": [result.to_row() for result in results]}
