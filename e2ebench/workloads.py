"""Workloads, corpus selection and the correctness oracle of the
end-to-end benchmark.

A *workload* is one ``SynthesisPipeline`` configuration.  A *corpus* is
that configuration at one generator seed.  One run of the benchmark
synthesizes a contract for each of ``k`` corpora of a workload, each in
a fresh interpreter, and reports their median, so that one hard or easy
ILP instance does not decide the figure.

The corpus seeds come from ``oracle.json``: for every workload it lists
the generator seeds 0, 1, 2, ... whose reference run (the ``"reference"``
fast path, the repository's test oracle) finished with an optimal,
satisfied contract, together with that run's dataset digest, case count
and false-positive count, and ``cost_s``, the wall seconds one benchmark
worker took on that corpus when the table was recorded (the fastest of
several passes).  Seeds whose reference run raised are listed under
``excluded`` with the error.

``k`` follows from the run length: the number of corpora of median cost
that fit in ``--seconds``, at least :data:`MIN_CORPORA`.  Runs measure
only the central half of the table by ``cost_s``: the cheapest and the
dearest quarter are left out: on ``ibex-adaptive-8x250`` a corpus took
from 0.7 to 4.5 times the median cost, mostly through its HiGHS solves,
and one such corpus would decide a run's figure by itself.  The selection from that pool is stratified: its entries,
ranked by ``cost_s``, are split into ``k`` strata of (nearly) equal
size, and runner seed ``n`` takes from each stratum its ``n``-th entry
in generator-seed order (wrapping).  Every run thus measures a cheaper,
a typical and a dearer corpus and so on, instead of a random draw in
which one run may get three slow corpora and the next three fast ones.
The same runner seed and run length always give the same corpora, and
every timed run is checked against recorded values.

This module imports nothing from ``repro`` at import time: the runner
uses it without paying for the package import.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
ORACLE_PATH = os.path.join(HERE, "oracle.json")
#: Fewest corpora one run synthesizes, however short ``--seconds``.
MIN_CORPORA = 3


@dataclass(frozen=True)
class Workload:
    name: str
    core: str
    template: str
    budget: int
    #: Adaptive rounds; ``0`` is the classic one-shot run.
    adaptive_rounds: int = 0

    def config(self, budget: Optional[int] = None) -> dict:
        """Everything that decides a corpus' dataset, for the oracle."""
        return {
            "core": self.core,
            "template": self.template,
            "attacker": "retirement-timing",
            "solver": "scipy-milp",
            "generator": "coverage" if self.adaptive_rounds else "random",
            "budget": self.budget if budget is None else budget,
            "adaptive_rounds": self.adaptive_rounds,
        }

    def pipeline(self, seed: int, budget: Optional[int] = None, fastpath=True):
        """The configured pipeline for the corpus at ``seed``.

        Everything not set here keeps the ``repro run`` default:
        in-process evaluation, the ``compiled`` fast path, the
        ``scipy-milp`` solver and verification against the dataset.
        """
        from repro.pipeline import SynthesisPipeline

        config = self.config(budget)
        pipeline = (
            SynthesisPipeline()
            .core(config["core"])
            .template(config["template"])
            .attacker(config["attacker"])
            .solver(config["solver"])
            .budget(config["budget"], seed=seed)
        )
        if self.adaptive_rounds:
            pipeline.adaptive(config["generator"], rounds=self.adaptive_rounds)
        if fastpath is not True:
            pipeline.fastpath(fastpath)
        return pipeline


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("ibex-rv32im-12k", "ibex", "riscv-rv32im", 12000),
        Workload("cva6-mem-24k", "cva6", "riscv-mem", 24000),
        Workload("ibex-adaptive-8x250", "ibex", "riscv-rv32im", 2000, adaptive_rounds=8),
    )
}


def dataset_digest(dataset) -> str:
    """SHA-256 of the dataset's canonical JSON form."""
    return hashlib.sha256(dataset.to_json().encode("utf-8")).hexdigest()


class OracleError(Exception):
    """The oracle file has no usable entries for a configuration."""


def load_oracle(path: str, workload: Workload, budget: Optional[int] = None) -> List[dict]:
    """The recorded corpus entries of ``workload`` (``seed``,
    ``digest``, ``cases``, ``contract_fp``), in table order."""
    with open(path) as stream:
        table = json.load(stream)
    record = table.get(workload.name)
    if record is None:
        raise OracleError("no oracle entries for workload %r in %s" % (workload.name, path))
    if record["config"] != workload.config(budget):
        raise OracleError(
            "oracle entries for %r were recorded for %s, not %s"
            % (workload.name, record["config"], workload.config(budget))
        )
    if not record["seeds"]:
        raise OracleError("oracle for %r lists no seeds" % workload.name)
    return record["seeds"]


def corpora_count(entries: List[dict], seconds: float) -> int:
    """How many corpora a run of ``seconds`` synthesizes."""
    per_corpus = statistics.median(entry["cost_s"] for entry in entries)
    return min(len(entries), max(MIN_CORPORA, round(seconds / per_corpus)))


def select_corpora(entries: List[dict], seed: int, count: int) -> List[dict]:
    """The ``count`` table entries runner seed ``seed`` measures, one
    from each cost stratum of the central half, cheapest stratum first."""
    ranked = sorted(entries, key=lambda entry: (entry["cost_s"], entry["seed"]))
    trim = min(len(ranked) // 4, (len(ranked) - count) // 2)
    ranked = ranked[trim : len(ranked) - trim]
    chosen = []
    for index in range(count):
        stratum = ranked[index * len(ranked) // count : (index + 1) * len(ranked) // count]
        stratum.sort(key=lambda entry: entry["seed"])
        chosen.append(stratum[seed % len(stratum)])
    return chosen


def worker_env() -> Dict[str, str]:
    """The environment of a worker: this one with ``src`` first on
    ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, os.environ.get("PYTHONPATH")) if path
    )
    return env


def worker_command(
    workload: Workload, seed: int, budget: Optional[int] = None, *flags: str
) -> List[str]:
    """The command line of one worker synthesis (see ``worker.py``)."""
    command = [sys.executable, WORKER, "--workload", workload.name, "--seed", str(seed)]
    if budget is not None:
        command += ["--budget", str(budget)]
    return command + list(flags)
