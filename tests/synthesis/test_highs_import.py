"""The synthesis path reaches HiGHS without importing ``scipy.optimize``
or ``scipy.sparse``, and a later ``import scipy.optimize`` still works."""

import json
import os
import subprocess
import sys

import pytest

from repro.synthesis import highs

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SCRIPT = """
import json, sys
sys.path.insert(0, %r)
from repro.pipeline import SynthesisPipeline

one_shot = SynthesisPipeline().budget(300, seed=0).run()
adaptive = SynthesisPipeline().budget(400, seed=1).adaptive("coverage", rounds=4).run()
loaded = sorted(
    name for name in ("scipy.optimize", "scipy.sparse", "scipy.optimize._highspy._core")
    if name in sys.modules
)

import numpy as np
import scipy.optimize

solved = scipy.optimize.milp(
    [1.0, 2.0],
    integrality=[1, 1],
    bounds=scipy.optimize.Bounds(0, 1),
    constraints=scipy.optimize.LinearConstraint([[1.0, 1.0]], 1.0, np.inf),
)
print(json.dumps({
    "loaded": loaded,
    "atoms": [len(one_shot.contract), len(adaptive.contract)],
    "milp": [int(solved.status), solved.x.tolist()],
}))
"""


@pytest.mark.skipif(
    highs.load_binding() is None,
    reason="this SciPy has no _highspy binding; solves call scipy.optimize.milp",
)
def test_runs_import_neither_scipy_optimize_nor_scipy_sparse():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT % os.path.abspath(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["loaded"] == ["scipy.optimize._highspy._core"]
    assert min(report["atoms"]) > 0  # both runs solved an ILP
    assert report["milp"] == [0, [1.0, 0.0]]
