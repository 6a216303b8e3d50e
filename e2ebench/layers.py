"""Per-layer timing for the traced run, installed from outside ``repro``.

:class:`LayerTimers` wraps the public entry points of each layer where
the pipeline looks them up, times every call, and puts the originals
back on :meth:`LayerTimers.uninstall`.  Nothing under ``src/`` changes;
untraced runs never import this module.

Layers and the calls timed for them:

- ``testgen``: ``generate_case`` of every generation strategy class;
- ``evaluation``: ``TestCaseEvaluator.evaluate_batch`` (``evaluate`` and
  ``evaluate_many`` delegate to it), plus the evaluator's own
  ``simulation_seconds`` / ``extraction_seconds`` accumulators;
- ``synthesis``: ``ContractSynthesizer.synthesize``, with
  ``build_ilp_instance`` (as looked up by the synthesizer module) and
  ``solve`` of every ILP solver class inside it;
- ``verification``: the satisfaction checks as looked up by the
  pipeline module.

A layer's time counts only its outermost call, so a solver that calls
another solver, or ``evaluate`` calling ``evaluate_batch``, is not
counted twice.  Generation runs between evaluation batches, never
inside one, so the four top-level layers are disjoint.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

TOP_LEVEL_LAYERS = ("testgen", "evaluation", "synthesis", "verification")


def _subclasses_defining(base: type, attribute: str) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        method = vars(cls).get(attribute)
        if method is not None and not getattr(method, "__isabstractmethod__", False):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class LayerTimers:
    """Busy seconds and call counts per layer, from wrapped calls."""

    def __init__(self):
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._restore: List[Callable[[], None]] = []
        self.cases_evaluated = 0
        self.distinguishable = 0
        self.evaluators: Dict[int, object] = {}
        self.last_synthesis = None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        from repro.evaluation.evaluator import TestCaseEvaluator
        from repro.pipeline import pipeline as pipeline_module
        from repro.synthesis import synthesizer as synthesizer_module
        from repro.synthesis.solvers import IlpSolver
        from repro.testgen.strategies import GenerationStrategy

        for cls in _subclasses_defining(GenerationStrategy, "generate_case"):
            self._wrap(cls, "generate_case", "testgen")
        self._wrap(
            TestCaseEvaluator, "evaluate_batch", "evaluation", self._on_evaluate
        )
        self._wrap(
            synthesizer_module.ContractSynthesizer,
            "synthesize",
            "synthesis",
            self._on_synthesize,
        )
        self._wrap(synthesizer_module, "build_ilp_instance", "synthesis.build")
        for cls in _subclasses_defining(IlpSolver, "solve"):
            self._wrap(cls, "solve", "synthesis.solve")
        for name in ("check_dataset_satisfaction", "check_contract_satisfaction"):
            self._wrap(pipeline_module, name, "verification")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(
        self,
        owner,
        attribute: str,
        layer: str,
        on_result: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        original = vars(owner)[attribute]
        busy, calls, depth = self.busy, self.calls, self._depth
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if depth[layer]:
                return original(*args, **kwargs)
            depth[layer] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                busy[layer] += clock() - start
                calls[layer] += 1
                depth[layer] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attribute, timed)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def _on_evaluate(self, args: tuple, results) -> None:
        evaluator = args[0]
        self.evaluators[id(evaluator)] = evaluator
        self.cases_evaluated += len(results)
        self.distinguishable += sum(
            1 for result in results if result.attacker_distinguishable
        )

    def _on_synthesize(self, args: tuple, synthesis) -> None:
        self.last_synthesis = synthesis

    # -- results -------------------------------------------------------

    def metrics(self, result, contract_s: float) -> Dict[str, float]:
        """Per-layer figures of one traced ``run()`` that returned
        ``result`` after ``contract_s`` wall seconds."""
        busy, calls = self.busy, self.calls
        evaluators = list(self.evaluators.values())
        instance = self.last_synthesis.instance
        fp_rows = sum(len(atoms) for atoms, _weight in instance.fp_sets)
        cover_rows = len(instance.cover_sets)
        if result.adaptive is not None:
            records = result.adaptive.records
            rounds = len(records)
            round_s = sum(record.seconds for record in records) / rounds
            warm_ratio = sum(record.warm_started for record in records) / rounds
        else:  # a one-shot run is a single round
            rounds, round_s, warm_ratio = 1, contract_s, 0.0
        attributed = sum(busy[layer] for layer in TOP_LEVEL_LAYERS)
        return {
            "testgen.cases": calls["testgen"],
            "testgen.busy_s": busy["testgen"],
            "testgen.us_per_case": 1e6 * busy["testgen"] / max(1, calls["testgen"]),
            "evaluation.busy_s": busy["evaluation"],
            "evaluation.sim_s": sum(e.simulation_seconds for e in evaluators),
            "evaluation.extract_s": sum(e.extraction_seconds for e in evaluators),
            "evaluation.calls": calls["evaluation"],
            "evaluation.cases_per_call": self.cases_evaluated
            / max(1, calls["evaluation"]),
            "evaluation.distinguishable": self.distinguishable,
            "synthesis.build_s": busy["synthesis.build"],
            "synthesis.solve_s": busy["synthesis.solve"],
            "synthesis.busy_s": busy["synthesis"],
            "synthesis.calls": calls["synthesis"],
            "synthesis.candidates": len(instance.candidate_atom_ids),
            "synthesis.cover_rows": cover_rows,
            "synthesis.fp_rows": fp_rows,
            "synthesis.ilp_rows": cover_rows + fp_rows,
            "synthesis.ilp_vars": len(instance.candidate_atom_ids)
            + len(instance.fp_sets),
            "synthesis.warm_start_ratio": warm_ratio,
            "synthesis.contract_atoms": result.atom_count,
            "verification.busy_s": busy["verification"],
            "adaptive.rounds": rounds,
            "adaptive.round_s": round_s,
            "pipeline.contract_s": contract_s,
            "pipeline.unattributed_s": contract_s - attributed,
            "pipeline.attributed_share": attributed / contract_s,
        }
