"""Direct calls into the HiGHS binding that ships inside SciPy.

``scipy.optimize.milp`` hands its model to HiGHS through SciPy's
compiled pybind11 module ``scipy.optimize._highspy._core``.  Importing
it the usual way imports all of ``scipy.optimize`` and ``scipy.sparse``
first, which costs more than half a second in a fresh process and
several times the solve of a small ILP.  :func:`load_binding` loads the
extension file alone, and :func:`solve` gives a fresh ``_Highs`` the
model and options ``milp`` would give it, so HiGHS takes the same
search path and returns the same solution.

The module must be registered under its full dotted name: under any
other name pybind11 registers the binding's types a second time when
``scipy.optimize`` is later imported, and that import fails.

Without the binding (SciPy layouts before ``_highspy``) :func:`solve`
calls ``scipy.optimize.milp`` itself; :func:`milp_solve` is that path,
and also the reference the binding path is tested against.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple, Optional

import numpy as np

#: The binding's module name inside SciPy.
BINDING = "scipy.optimize._highspy._core"


class HighsResult(NamedTuple):
    """What the synthesis solver reads of a ``milp`` result.

    ``status`` is ``milp``'s: 0 optimal, 1 time or iteration limit,
    2 infeasible, 3 unbounded, 4 anything else.  ``x`` and ``fun`` are
    ``None`` when HiGHS has no solution to report.
    """

    status: int
    x: Optional[np.ndarray]
    fun: Optional[float]


@functools.lru_cache(maxsize=None)
def load_binding():
    """SciPy's compiled HiGHS module, or ``None`` when this SciPy has no
    loadable ``_highspy._core`` with ``_Highs`` and ``HighsLp``."""
    module = sys.modules.get(BINDING)
    if module is None:
        path = _binding_path()
        if path is None:
            return None
        spec = importlib.util.spec_from_file_location(BINDING, path)
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[BINDING] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(BINDING, None)
            return None
    if not all(hasattr(module, name) for name in ("_Highs", "HighsLp")):
        return None
    return module


def _binding_path() -> Optional[str]:
    spec = importlib.util.find_spec("scipy")  # finds without importing
    if spec is None or not spec.submodule_search_locations:
        return None
    directory = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_core" + suffix)
        if os.path.isfile(path):
            return path
    return None


def solve(c, integrality, start, index, value, row_lower, row_upper, options):
    """Minimize ``c·x`` subject to ``row_lower ≤ A·x ≤ row_upper`` and
    ``0 ≤ x ≤ 1``, as ``milp(c, integrality=integrality,
    bounds=Bounds(0, 1), constraints=LinearConstraint(A, row_lower,
    row_upper), options=options)`` would.

    ``A`` is given column-wise (``start``, ``index``, ``value``) with
    row indices sorted inside each column, as ``csc_array`` stores it.
    ``options`` uses ``milp``'s names; only ``time_limit``,
    ``mip_rel_gap`` and ``presolve`` (a bool) are passed on.
    """
    binding = load_binding()
    if binding is None:
        return milp_solve(
            c, integrality, start, index, value, row_lower, row_upper, options
        )
    variable_count = len(c)
    lp = binding.HighsLp()
    lp.num_col_ = variable_count
    lp.num_row_ = len(row_lower)
    lp.a_matrix_.num_col_ = variable_count
    lp.a_matrix_.num_row_ = len(row_lower)
    lp.a_matrix_.format_ = binding.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(variable_count)
    lp.col_upper_ = np.ones(variable_count)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    var_type = binding.HighsVarType
    lp.integrality_ = [
        var_type.kInteger if integral else var_type.kContinuous
        for integral in integrality
    ]

    settings = binding.HighsOptions()
    settings.log_to_console = False
    for key, option in options.items():
        if key == "presolve":
            option = "on" if option else "off"
        setattr(settings, key, option)

    highs = binding._Highs()
    error = binding.HighsStatus.kError
    model_status = binding.HighsModelStatus
    if highs.passOptions(settings) == error:
        return HighsResult(_status(binding, highs.getModelStatus()), None, None)
    if highs.passModel(lp) == error:
        return HighsResult(_status(binding, model_status.kModelError), None, None)
    if highs.run() == error:
        return HighsResult(_status(binding, highs.getModelStatus()), None, None)

    # ``milp``'s rules: a solution is read when HiGHS proved it optimal,
    # or when a limit stopped a MIP that has an incumbent.
    status = highs.getModelStatus()
    fun = highs.getInfo().objective_function_value
    limits = (
        model_status.kTimeLimit,
        model_status.kIterationLimit,
        model_status.kSolutionLimit,
    )
    solved = status == model_status.kOptimal or (
        any(integrality) and status in limits and fun != binding.kHighsInf
    )
    if not solved:
        return HighsResult(_status(binding, status), None, None)
    x = np.array(highs.getSolution().col_value)
    return HighsResult(_status(binding, status), x, fun)


def _status(binding, model_status) -> int:
    """``milp``'s status code for a HiGHS model status."""
    codes = binding.HighsModelStatus
    return {
        codes.kOptimal: 0,
        codes.kTimeLimit: 1,
        codes.kIterationLimit: 1,
        codes.kInfeasible: 2,
        codes.kModelError: 2,
        codes.kUnbounded: 3,
    }.get(model_status, 4)


def milp_solve(c, integrality, start, index, value, row_lower, row_upper, options):
    """:func:`solve` through ``scipy.optimize.milp`` itself."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    matrix = csc_array((value, index, start), shape=(len(row_lower), len(c)))
    result = milp(
        c,
        integrality=integrality,
        bounds=Bounds(0.0, 1.0),
        constraints=LinearConstraint(matrix, row_lower, row_upper),
        options=dict(options),
    )
    return HighsResult(result.status, result.x, result.fun)
