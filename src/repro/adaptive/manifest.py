"""Round-granularity checkpointing for the adaptive loop.

The adaptive sibling of the evaluation shard manifest and the campaign
cell manifest, on the same :class:`repro.checkpoint.JsonlCheckpoint`
mechanics: line 1 binds the file to the loop's identity, every further
line is one completed round — its results as ``TestCaseResult.to_row``
rows, the strategy's post-round feedback state, the synthesized
contract, and the stop reason (if any)::

    {"manifest": "adaptive-rounds", "version": 2, "key": {...}}
    {"round": 0, "start_id": 0, "rows": [...], "state": {...},
     "contract": [3, 17], "stop": null}

The key covers everything that changes a round's results or steering
(core, template name *and* atom-list digest, attacker, seed, generator,
batch, extraction engine, solver, restriction) but deliberately not the
round budget: extending ``rounds`` resumes a finished-but-unconverged
loop instead of restarting it, exactly as the shard manifest serves an
extended test-case budget.

Version 2 came with the LP-first scipy solver: it can break ties among
equally precise contracts differently, so the contracts and stop
reasons a version-1 file stores need not be what a fresh solve gives,
and a version-1 file is refused rather than replayed.

Rounds are reused as the longest contiguous prefix ``0..k`` present in
the file — a round is only meaningful on top of the state left by its
predecessor, so a gap invalidates everything after it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.checkpoint import CheckpointKeyError, JsonlCheckpoint
from repro.evaluation.results import TestCaseResult


class AdaptiveKeyError(CheckpointKeyError):
    """The manifest on disk belongs to a different adaptive loop."""


class AdaptiveManifest(JsonlCheckpoint):
    """An append-only JSONL checkpoint of completed adaptive rounds."""

    kind = "adaptive-rounds"
    #: 2: stored contracts follow the LP-first solver's tie-break.
    version = 2
    description = "adaptive-round manifest"
    subject = "adaptive loop"
    hint = "pass a different --resume path"
    key_error = AdaptiveKeyError

    def __init__(self, path: str, key: dict):
        #: Stored round entries, keyed by round index.
        self.completed: Dict[int, dict] = {}
        super().__init__(path, key)

    # -- checkpoint payload --------------------------------------------

    def _accept(self, entry: dict) -> None:
        self.completed[int(entry["round"])] = entry

    def _entries(self):
        for round_index in sorted(self.completed):
            yield self.completed[round_index]

    def append_round(
        self,
        round_index: int,
        start_id: int,
        results: Sequence[TestCaseResult],
        state: dict,
        contract_atom_ids: Sequence[int],
        false_positives: int,
        stop_reason: Optional[str],
    ) -> None:
        """Checkpoint one completed round (flushed immediately)."""
        entry = {
            "round": round_index,
            "start_id": start_id,
            "rows": [result.to_row() for result in results],
            "state": state,
            "contract": list(contract_atom_ids),
            "fps": false_positives,
            "stop": stop_reason,
        }
        self._append(entry)
        self.completed[round_index] = entry

    # -- plan intersection ---------------------------------------------

    def stored_rounds(self) -> List[dict]:
        """The longest contiguous round prefix ``0..k`` on disk, in
        round order (later rounds after a gap are unusable: each round's
        generation depends on the strategy state its predecessor left)."""
        rounds = []
        index = 0
        while index in self.completed:
            rounds.append(self.completed[index])
            index += 1
        return rounds

    def __len__(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "AdaptiveManifest(%s, %d rounds)" % (self.path, len(self.completed))
