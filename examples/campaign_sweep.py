#!/usr/bin/env python3
"""A resumable campaign: one grid of pipeline configurations,
executed, killed partway, and resumed at cell granularity.

A :class:`~repro.campaign.CampaignSpec` names value lists per pipeline
axis and expands into the cross product of cells; the runner executes
every cell through :class:`~repro.pipeline.SynthesisPipeline`, reusing
the dataset cache across cells that share a corpus (exact key or a
prefix of a larger cached budget) and checkpointing each finished cell
to a JSONL manifest.  The equivalent from the command line::

    repro-synthesize campaign run \\
        --core ibex,ibex-dcache --attacker retirement-timing,cache-state \\
        --budgets 200,400 --solver greedy --verify 0 \\
        --campaign-name sweep
    repro-synthesize campaign status --resume \\
        --core ibex,ibex-dcache --attacker retirement-timing,cache-state \\
        --budgets 200,400 --solver greedy --verify 0 --campaign-name sweep

and ``campaign report`` with the same flags.

Run with::

    python examples/campaign_sweep.py [results-dir]
"""

import sys

from repro.campaign import CampaignRunner, CampaignSpec


class SimulatedCrash(Exception):
    pass


def build_spec():
    return CampaignSpec(
        name="sweep",
        cores=("ibex", "ibex-dcache"),
        attackers=("retirement-timing", "cache-state"),
        budgets=(200, 400),
        solvers=("greedy",),
        # The dcache-less Ibex shows nothing to a cache-state attacker;
        # drop those cells instead of paying for them.
        exclude=[{"core": "ibex", "attacker": "cache-state"}],
        verify=0,
    )


def main():
    results_dir = sys.argv[1] if len(sys.argv) > 1 else "results"
    spec = build_spec()

    def crash_after(limit):
        def callback(event):
            print(
                "  [%d/%d] %s"
                % (event.completed_cells, event.total_cells, event.cell.label())
            )
            if event.completed_cells == limit:
                raise SimulatedCrash()

        return callback

    print("first run (killed after 2 of %d cells):" % len(spec.expand()))
    try:
        CampaignRunner(spec, results_dir=results_dir, progress=crash_after(2)).run()
    except SimulatedCrash:
        print("  ...crashed; completed cells are checkpointed\n")

    print("resumed run:")
    result = CampaignRunner(
        spec,
        results_dir=results_dir,
        progress=lambda event: print(
            "  [%d/%d] %s%s"
            % (
                event.completed_cells,
                event.total_cells,
                event.cell.label(),
                " (resumed)" if event.resumed else "",
            )
        ),
    ).run()

    print()
    print(result.render())


if __name__ == "__main__":
    main()
