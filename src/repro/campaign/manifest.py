"""Campaign-manifest checkpointing: append-only JSONL of finished cells.

The cell-granularity sibling of the evaluation shard manifest, built
on the same :class:`repro.checkpoint.JsonlCheckpoint` mechanics: line
1 binds the file to the campaign name, every further line is one
completed cell's :class:`~repro.campaign.result.CellOutcome`::

    {"manifest": "campaign-cells", "version": 1, "key": {"campaign": "sweep"}}
    {"cell": {"core": "ibex", ...}, "atom_ids": [...], ...}

Cells are keyed by their full identity (every axis plus fastpath and
the verification budget), while the header key deliberately covers
only the campaign name — exactly as the shard manifest omits the total
budget.  Extending a campaign's grid (more budgets, a new core) or
re-running after a kill therefore reuses every stored cell whose
identity still appears in the plan, and runs only the rest.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.campaign.result import CellOutcome
from repro.campaign.spec import CampaignCell
from repro.checkpoint import CheckpointKeyError, JsonlCheckpoint
from repro.pipeline.config import stored_outcomes


class CampaignKeyError(CheckpointKeyError):
    """The manifest on disk belongs to a different campaign."""


class CampaignManifest(JsonlCheckpoint):
    """An append-only JSONL checkpoint of completed campaign cells."""

    kind = "campaign-cells"
    description = "campaign manifest"
    subject = "campaign"
    hint = "pass a different --resume path"
    key_error = CampaignKeyError

    def __init__(self, path: str, campaign_name: str):
        #: Completed cell outcomes loaded from disk, keyed by
        #: :meth:`CampaignCell.key`.
        self.completed: Dict[str, CellOutcome] = {}
        super().__init__(path, {"campaign": campaign_name})

    # -- checkpoint payload --------------------------------------------

    def _accept(self, entry: dict) -> None:
        outcome = CellOutcome.from_dict(entry, resumed=True)
        self.completed[outcome.cell.key()] = outcome

    def _entries(self) -> Iterable[dict]:
        for outcome in self.completed.values():
            yield outcome.to_dict()

    def append_cell(self, outcome: CellOutcome) -> None:
        """Checkpoint one completed cell (flushed immediately)."""
        self._append(outcome.to_dict())
        self.completed[outcome.cell.key()] = outcome

    def reset(self) -> None:
        """Drop every stored cell (a fresh, non-resuming campaign run)."""
        self.completed.clear()
        self._rewrite()

    # -- plan intersection ---------------------------------------------

    def stored(self, cells: Sequence[CampaignCell]) -> Dict[str, CellOutcome]:
        """The subset of ``cells`` already completed in this manifest,
        keyed by cell key.  Matching is by full cell identity — a cell
        whose budget, solver, or verification setting changed simply
        reuses nothing, which is always sound.

        A cell names its template by registry name only, so each
        stored outcome also carries a digest of the template's atom
        list; an outcome computed under a differently-defined template
        of the same name (or an old manifest without digests) is not
        reused."""
        return stored_outcomes(self.completed, cells)

    def __len__(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CampaignManifest(%s, %d cells)" % (self.path, len(self.completed))


def load_outcomes(
    path: str, campaign_name: str, cells: Sequence[CampaignCell]
) -> List[CellOutcome]:
    """The stored outcomes for ``cells``, in plan order (for
    ``campaign report``/``status`` without executing anything)."""
    manifest = CampaignManifest(path, campaign_name)
    stored = manifest.stored(cells)
    return [stored[cell.key()] for cell in cells if cell.key() in stored]
