"""The persistent contract store: finished contracts, key-addressed.

A :class:`ContractStore` is one directory holding everything the
service has ever synthesized::

    <root>/contracts.jsonl   the contract log (durable JSONL checkpoint)
    <root>/cache/            the dataset cache (pipeline cache_dir)

Contracts are stored as :class:`~repro.campaign.result.CellOutcome`
records keyed by the :meth:`CampaignCell.key` of the cell with its
retry and timeout settings cleared — core, attacker, template,
restriction, solver, generator, budget, seed, and the verification
setting — i.e. exactly the dataset-cache axes plus the synthesis ones,
so "the contract for (core, attacker, template, budget)" is a
dictionary lookup.  Stored outcomes carry the template digest of their
execution time, and a lookup under a differently-defined template of
the same name misses instead of serving a stale contract (the
campaign-manifest rule).

``datasets_dir`` doubles as the pipeline dataset cache, which is what
makes *misses* cheap too: a pipeline derives a smaller budget's
dataset as a prefix of a larger cached corpus of the same stream, so
such a request schedules zero evaluation work.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.campaign.result import CellOutcome
from repro.campaign.spec import CampaignCell
from repro.checkpoint import CheckpointKeyError, JsonlCheckpoint
from repro.pipeline.config import stored_outcomes


def _fault_free(cell: CampaignCell) -> CampaignCell:
    """The form a cell's contract is stored under: retry and timeout
    settings never change a result (:meth:`PipelineConfig.cell`)."""
    return replace(cell, retries=None, shard_timeout=None)


class ContractStoreKeyError(CheckpointKeyError):
    """The store file on disk is not a contract store."""


class _ContractLog(JsonlCheckpoint):
    """The JSONL checkpoint behind the store (one line per contract)."""

    kind = "contract-store"
    description = "contract store"
    subject = "store"
    hint = "pass a different store directory"
    key_error = ContractStoreKeyError

    def __init__(self, path: str, durable: bool = True):
        self.completed: Dict[str, CellOutcome] = {}
        super().__init__(path, {"store": "contracts"}, durable=durable)

    def _accept(self, entry: dict) -> None:
        outcome = CellOutcome.from_dict(entry, resumed=True)
        self.completed[_fault_free(outcome.cell).key()] = outcome

    def _entries(self) -> Iterable[dict]:
        for outcome in self.completed.values():
            yield outcome.to_dict()


class ContractStore:
    """Key-addressed persistence for finished contracts and datasets."""

    def __init__(self, root: str, durable: bool = True):
        self.root = root
        self.durable = durable
        self.contracts_path = os.path.join(root, "contracts.jsonl")
        #: The pipeline dataset cache — hand this to ``cache_dir()``
        #: (or let :meth:`SynthesisPipeline.store` do it) so datasets
        #: and contracts persist side by side under one key scheme.
        self.datasets_dir = os.path.join(root, "cache")
        os.makedirs(self.datasets_dir, exist_ok=True)
        self._log = _ContractLog(self.contracts_path, durable=durable)

    # -- lookup --------------------------------------------------------

    def reload(self) -> None:
        """Re-read the contract log (another process may have appended)."""
        self._log = _ContractLog(self.contracts_path, durable=self.durable)

    def get(self, cell: CampaignCell) -> Optional[CellOutcome]:
        """The stored outcome for ``cell``, or ``None``.

        Misses when the registered template of the cell's name no
        longer matches the digest the outcome was computed under.
        """
        return self.get_all([cell]).get(cell.key())

    def get_all(self, cells: Sequence[CampaignCell]) -> Dict[str, CellOutcome]:
        """Stored outcomes for ``cells``, keyed by cell key
        (digest-stale entries excluded); a cell matches by its
        fault-free form."""
        fault_free = {cell.key(): _fault_free(cell) for cell in cells}
        found = stored_outcomes(self._log.completed, fault_free.values())
        return {
            key: found[cell.key()]
            for key, cell in fault_free.items()
            if cell.key() in found
        }

    def outcomes(self) -> List[CellOutcome]:
        return list(self._log.completed.values())

    # -- persistence ---------------------------------------------------

    def put(self, outcome: CellOutcome) -> bool:
        """Store one finished outcome; returns ``False`` when the key
        was already present (first write wins — results are
        deterministic, so overwriting could only churn bytes)."""
        key = _fault_free(outcome.cell).key()
        if key in self._log.completed:
            return False
        self._log._append(outcome.to_dict())
        self._log.completed[key] = outcome
        return True

    def put_result(self, cell: CampaignCell, result) -> CellOutcome:
        """Distill and store a :class:`PipelineResult` under ``cell``."""
        outcome = CellOutcome.from_pipeline_result(cell, result)
        self.put(outcome)
        return outcome

    def __len__(self) -> int:
        return len(self._log.completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ContractStore(%r, %d contracts)" % (self.root, len(self))
