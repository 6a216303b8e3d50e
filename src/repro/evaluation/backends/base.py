"""Executor interface: shard descriptors in, result batches out.

An :class:`EvaluationExecutor` consumes a fixed *shard plan* — a list
of ``(start_id, count)`` descriptors covering the test-id range — and
streams back ``(shard, results)`` batches as shards complete, in
whatever order the backend finishes them.  An in-process backend runs
every shard on one :class:`ShardEvaluator` built in the process that
starts the evaluation (forked workers inherit it); an external backend
(the work queue) ships an :class:`EvaluationTask` of plain registry
names and integers, from which its workers rebuild the stack on other
processes or machines.

Determinism contract: test cases are generated *per test id* (the
generator derives a child RNG from ``(seed, test_id)``), so a shard's
results depend only on the task identity and the shard descriptor —
never on which backend ran it, which sibling shards ran, or the total
budget.  This is what makes shard-level checkpointing and resumption
(:mod:`repro.evaluation.backends.manifest`) sound.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.evaluation.results import TestCaseResult

#: A shard descriptor: evaluate ``count`` test cases from ``start_id``.
Shard = Tuple[int, int]

#: One completed shard as executors stream it: ``(shard, results)``.
ShardResults = Tuple[Shard, List[TestCaseResult]]


def plan_shards(count: int, shard_size: int) -> List[Shard]:
    """The canonical shard plan covering test ids ``[0, count)``.

    Every backend — including the serial one — consumes this exact
    plan, so the tail shard (``count`` not divisible by ``shard_size``)
    and the single-process path cannot drift from the pool path.
    """
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    shards = []
    for start in range(0, count, shard_size):
        shards.append((start, min(shard_size, count - start)))
    return shards


@dataclass(frozen=True)
class EvaluationTask:
    """The identity of an evaluation, and everything an external
    worker needs to rebuild its stack.

    Plugins travel by registry name (instances cannot cross a machine
    boundary); ``template_name`` supersedes ``max_distance``.
    The generation strategy travels as its ``GENERATOR_REGISTRY`` name
    plus a JSON snapshot of its feedback state (``None`` for the
    stateless fresh strategy), so adaptive rounds can fan out through
    the same workers as fixed-budget runs.
    """

    core_name: str
    seed: int
    max_distance: int = 4
    #: ``True`` runs the fast evaluator, ``False`` the reference oracle.
    use_fastpath: bool = True
    template_name: Optional[str] = None
    attacker_name: Optional[str] = None
    generator_name: str = "random"
    #: Canonical JSON of ``GenerationStrategy.state()`` (kept as a
    #: string so the task stays hashable and crosses processes cheaply).
    generator_state: Optional[str] = None

    def identity(self) -> dict:
        """The shard-manifest key: every field that changes a shard's
        results (see :func:`repro.pipeline.config.task_identity`)."""
        # Imported here: the key formats live with the pipeline
        # configuration, which builds on this module.
        from repro.pipeline.config import task_identity

        return task_identity(self)


@dataclass(frozen=True)
class ShardProgress:
    """One per-shard progress event, streamed as shards complete."""

    shard: Shard
    completed_shards: int
    total_shards: int
    completed_cases: int
    total_cases: int
    #: True when the shard came from a checkpoint manifest instead of
    #: being evaluated in this run.
    resumed: bool
    elapsed_seconds: float


class ShardEvaluator:
    """The evaluation stack: generator + evaluator.

    Built once per evaluation and reused for every shard; rebuilding
    the multi-hundred-atom template per shard would dominate the run.
    An in-process run builds it from its resolved plugins with
    :meth:`from_plugins`, so instance-configured cores, templates,
    attackers and generators evaluate through the same shard loop, and
    forked pool workers inherit it.  :meth:`from_task` rebuilds it from
    registry names only where no caller stack exists: in a work-queue
    worker, for an in-process backend run by name alone (once, before
    any fork), and on a downgrade from the work queue to serial.
    """

    def __init__(self, generator, evaluator):
        self.generator = generator
        self.evaluator = evaluator

    def __eq__(self, other) -> bool:
        # Stacks over the same plugin instances evaluate alike: a pool
        # worker that inherited one runs the other's shards.
        return isinstance(other, ShardEvaluator) and self._key() == other._key()

    def _key(self) -> tuple:
        stack = self.evaluator
        plugins = (self.generator, stack.core, stack.template, stack.attacker)
        return tuple(map(id, plugins)) + (stack.use_fastpath,)

    __hash__ = None

    @classmethod
    def from_plugins(
        cls, core, template, generator, attacker=None, use_fastpath: bool = True
    ) -> "ShardEvaluator":
        """The stack over ready-made plugin instances."""
        from repro.evaluation.evaluator import TestCaseEvaluator

        return cls(
            generator,
            TestCaseEvaluator(
                core, template, attacker=attacker, use_fastpath=use_fastpath
            ),
        )

    @classmethod
    def from_task(cls, task: EvaluationTask) -> "ShardEvaluator":
        """The stack a worker rebuilds from registry names."""
        import json

        from repro.attacker import ATTACKER_REGISTRY
        from repro.contracts.riscv_template import (
            TEMPLATE_REGISTRY,
            build_riscv_template,
        )
        from repro.testgen.strategies import GENERATOR_REGISTRY
        from repro.uarch import CORE_REGISTRY

        if task.template_name is None:
            template = build_riscv_template(max_distance=task.max_distance)
        else:
            template = TEMPLATE_REGISTRY.create(task.template_name)
        attacker = (
            ATTACKER_REGISTRY.create(task.attacker_name)
            if task.attacker_name is not None
            else None
        )
        generator = GENERATOR_REGISTRY.create(
            task.generator_name, template, seed=task.seed
        )
        if task.generator_state is not None:
            generator.restore(json.loads(task.generator_state))
        return cls.from_plugins(
            CORE_REGISTRY.create(task.core_name),
            template,
            generator,
            attacker=attacker,
            use_fastpath=task.use_fastpath,
        )

    def evaluate(self, shard: Shard) -> List[TestCaseResult]:
        """Evaluate one shard into its results, in test-id order.

        One shard is one :meth:`TestCaseEvaluator.evaluate_batch` call
        — shards are the natural batch unit of every executor, so the
        batched engine amortizes across the whole shard.
        """
        start, count = shard
        test_cases = list(self.generator.iter_generate(count, start_id=start))
        return self.evaluator.evaluate_batch(test_cases)


class EvaluationExecutor(ABC):
    """Common interface over the work-distribution backends.

    ``run`` yields ``(shard, results)`` batches as shards complete;
    the order is backend-defined (callers sort by test id at the end).
    Executors are cheap objects — all evaluation state lives in the
    :class:`ShardEvaluator` an in-process backend runs on.
    """

    #: Registry name of the backend (``"serial"``, ``"multiprocess"``...).
    name = "abstract"
    #: True for backends whose workers run outside this process (a
    #: broker, workers) and rebuild their stack from the task's names:
    #: they need name-configured plugins, and the equivalence suites and
    #: smoke loops skip them (they pin byte-identity in their own
    #: harnesses).  Every other backend runs on :attr:`worker`.
    external = False

    def __init__(
        self,
        processes: Optional[int] = None,
        worker: Optional[ShardEvaluator] = None,
    ):
        #: Worker count; ``None`` picks a backend-specific default.
        self.processes = processes
        #: The stack an in-process backend evaluates every shard on
        #: (:func:`bind_executor` sets it on a copy).
        self.worker = worker

    @abstractmethod
    def run(
        self, task: EvaluationTask, shards: Sequence[Shard]
    ) -> Iterator[ShardResults]:
        """Evaluate ``shards`` under ``task``, streaming result batches."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(processes=%r)" % (type(self).__name__, self.processes)
