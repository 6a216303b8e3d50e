"""Experiment drivers reproducing the paper's figures and tables.

Each driver is a pure function of an :class:`ExperimentConfig`; sizes
default to laptop-scale counts and scale linearly with the
``REPRO_SCALE`` environment variable (the paper uses 100k-2M test
cases on a 128-thread Threadripper; shapes saturate far earlier).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import experiment_pipeline
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.contract_tables import (
    ContractTableResult,
    run_table1,
    run_table2,
)
from repro.experiments.table3 import Table3Result, run_table3

__all__ = [
    "ContractTableResult",
    "ExperimentConfig",
    "Fig2Result",
    "Fig3Result",
    "Table3Result",
    "experiment_pipeline",
    "run_fig2",
    "run_fig3",
    "run_table1",
    "run_table2",
    "run_table3",
]
