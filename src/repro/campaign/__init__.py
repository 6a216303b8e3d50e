"""``repro.campaign`` — resumable grid sweeps over pipeline configs.

The paper's headline results are grids: every figure and table sweeps
contract templates, attackers, and budgets over a core and compares
the synthesized contracts.  This package treats such a grid as one
unit of work::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="ibex-vs-cva6",
        cores=("ibex", "cva6"),
        attackers=("retirement-timing", "cache-state"),
        budgets=(500, 2000),
        overrides={"cva6": {"budget": 1500}},   # denser ILP, smaller set
        exclude=[{"core": "ibex", "attacker": "cache-state"}],
        verify=0,
    )
    result = run_campaign(spec, results_dir="results")
    print(result.render())                      # cross-config comparison table

Layer map:

- :mod:`~repro.campaign.spec` — :class:`CampaignSpec` /
  :class:`CampaignCell`: the declarative grid and its expansion
  (overrides, excludes, registry validation).
- :mod:`~repro.campaign.runner` — :class:`CampaignRunner` /
  :func:`run_campaign`: cells run one at a time, largest budget first
  within each dataset group, so the pipeline's dataset cache serves
  siblings (exact key *and* prefix-of-larger-budget), with
  cell-granularity resumption.
- :mod:`~repro.campaign.manifest` — :class:`CampaignManifest`: the
  JSONL checkpoint (same :mod:`repro.checkpoint` mechanics as the
  evaluation shard manifest).
- :mod:`~repro.campaign.result` — :class:`CellOutcome` /
  :class:`CampaignResult`: persistable per-cell summaries and the
  comparison tables rendered through :mod:`repro.reporting`.

The experiment drivers (``fig2``, ``fig3``, ``table3``, the contract
tables) are campaign specs resolved through the plugin registries, and
the CLI exposes the same surface as ``repro-synthesize campaign
run/status/report``.
"""

from repro.campaign.manifest import CampaignKeyError, CampaignManifest, load_outcomes
from repro.campaign.result import CampaignResult, CellOutcome, varying_axes
from repro.campaign.runner import (
    CampaignRunner,
    CampaignStatus,
    CellProgress,
    run_campaign,
)
from repro.campaign.spec import AXES, CampaignCell, CampaignSpec, filter_cells

__all__ = [
    "AXES",
    "CampaignCell",
    "CampaignKeyError",
    "CampaignManifest",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "CellOutcome",
    "CellProgress",
    "filter_cells",
    "load_outcomes",
    "run_campaign",
    "varying_axes",
]
