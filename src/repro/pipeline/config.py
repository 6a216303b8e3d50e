"""The run configuration, and every on-disk key derived from it.

:class:`PipelineConfig` holds the axes that define a run's result:
plugins (each a registry name or an instance), budget and seed, the
adaptive plan, the evaluator choice and the verification budget.
Runtime plumbing (executor, resume, retry, callbacks, trace, store)
stays on :class:`~repro.pipeline.SynthesisPipeline`.

This module is the only place that knows the key formats: the
budget-free stream key (:meth:`PipelineConfig.stream_key`), which
feeds the dataset-cache file stem, :meth:`PipelineConfig.dataset_group`,
the executor task and the job payload; the cache, shard-manifest,
round-manifest and quarantine file names (and the parse of cache names
for the superset search); and the shard-manifest, round-manifest,
job and campaign-cell keys.  Keys exclude the budget and round count,
so extended runs resume as prefixes.  Changing a format here orphans
existing files and needs a manifest version bump;
``tests/pipeline/test_keys.py`` pins them all.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.attacker import ATTACKER_REGISTRY
from repro.attacker.base import Attacker
from repro.contracts.atoms import LeakageFamily
from repro.contracts.riscv_template import (
    RESTRICTION_REGISTRY,
    TEMPLATE_REGISTRY,
    restriction_label,
)
from repro.contracts.template import ContractTemplate, template_digest
from repro.evaluation.backends.base import EvaluationTask, Shard
from repro.registry import Registry
from repro.synthesis import SOLVER_REGISTRY
from repro.synthesis.solvers import IlpSolver
from repro.testgen.strategies import GENERATOR_REGISTRY, GenerationStrategy
from repro.uarch import CORE_REGISTRY
from repro.uarch.core import Core

if TYPE_CHECKING:  # pragma: no cover
    from repro.adaptive.stopping import StoppingRule
    from repro.campaign.spec import CampaignCell

#: Configuration values may be registry names or ready-made instances.
CoreLike = Union[str, Core]
AttackerLike = Union[str, Attacker]
SolverLike = Union[str, IlpSolver]
TemplateLike = Union[str, ContractTemplate]
RestrictionLike = Union[str, Iterable[LeakageFamily]]
GeneratorLike = Union[str, GenerationStrategy]
StopLike = Union[None, str, "StoppingRule", tuple, list]

#: File-name suffixes of the artefacts that share one run key.
SHARDS_SUFFIX = ".shards.jsonl"
ROUNDS_SUFFIX = ".rounds.jsonl"
QUARANTINE_SUFFIX = ".quarantine.jsonl"

#: Dataset cache file names: ``<stem>-n<budget>[-ref].json``.  The
#: format and its parse sit side by side so they cannot drift.
_CACHE_FILE = "%s-n%d%s.json"
_CACHE_NAME = re.compile(r"^(?P<stem>.+)-n(?P<count>\d+)(?P<ref>-ref)?\.json$")

#: The axes each name-keyed use needs configured by registry name.  An
#: instance may carry configuration its ``name`` does not express, so
#: keying on it (or rebuilding it by name in a worker) could serve a
#: stale or different result.
_EXECUTOR_AXES = ("core", "attacker", "template", "generator")
_NAMED_AXES = {
    "file keys": ("core", "attacker", "generator"),
    "executor": _EXECUTOR_AXES,
    "store": _EXECUTOR_AXES + ("solver", "restriction", "stop"),
}
_NAMED_REASONS = {
    "executor": "the workqueue backend's workers rebuild plugins",
    "store": "store() keys contracts",
}


def resolve(value, registry: Registry, *args, **kwargs):
    """A registry name as a fresh instance; an instance as itself."""
    return registry.create(value, *args, **kwargs) if isinstance(value, str) else value


def plugin_name(value) -> str:
    """The registry name of a name-or-instance value."""
    return value if isinstance(value, str) else value.name


@dataclass(frozen=True)
class AdaptivePlan:
    """The adaptive settings as configured; the batch actually run
    comes from :meth:`PipelineConfig.round_plan`."""

    rounds: int = 8
    batch: Optional[int] = None
    stop: StopLike = "contract-stable"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.batch is not None and self.batch < 1:
            raise ValueError("batch must be at least 1")


@dataclass(frozen=True)
class PipelineConfig:
    """The axes that define a run's result (see the module docstring).

    ``fastpath`` accepts ``"reference"`` as ``False``.  ``verify`` is
    the verification budget: ``None`` checks the contract against the
    evaluated dataset, ``0`` skips, ``n > 0`` runs directed testing
    seeded with ``verify_seed`` (default: the generator seed plus one).
    """

    core: CoreLike = "ibex"
    attacker: AttackerLike = "retirement-timing"
    template: TemplateLike = "riscv-rv32im"
    restriction: Optional[RestrictionLike] = None
    solver: SolverLike = "scipy-milp"
    generator: GeneratorLike = "random"
    budget: int = 1000
    seed: int = 0
    #: ``None`` → the one-shot run; a plan → adaptive rounds.
    adaptive: Optional[AdaptivePlan] = None
    fastpath: bool = True
    verify: Optional[int] = None
    verify_seed: Optional[int] = None

    def __post_init__(self):
        if self.fastpath == "reference":
            object.__setattr__(self, "fastpath", False)
        if not isinstance(self.fastpath, bool):
            raise ValueError(
                "fastpath takes True, False or 'reference', not %r" % (self.fastpath,)
            )
        if self.budget < 0:
            raise ValueError("budget count must be non-negative")

    def evolve(self, **changes) -> "PipelineConfig":
        """A copy with ``changes`` applied.  The memoized template
        survives unless the template itself changed."""
        config = replace(self, **changes)
        memo = self.__dict__.get("_template")
        if memo is not None and "template" not in changes:
            object.__setattr__(config, "_template", memo)
        return config

    # -- resolution ----------------------------------------------------

    def name(self, axis: str) -> str:
        """The registry name of a plugin axis (``"core"``, ...)."""
        return plugin_name(getattr(self, axis))

    def resolve_core(self) -> Core:
        return resolve(self.core, CORE_REGISTRY)

    def resolve_attacker(self) -> Attacker:
        return resolve(self.attacker, ATTACKER_REGISTRY)

    def resolve_solver(self) -> IlpSolver:
        return resolve(self.solver, SOLVER_REGISTRY)

    def resolve_template(self) -> ContractTemplate:
        """The template, built once per configuration: cache keys, the
        run and the synthesizer all see the same instance."""
        template = self.__dict__.get("_template")
        if template is None:
            template = resolve(self.template, TEMPLATE_REGISTRY)
            object.__setattr__(self, "_template", template)
        return template

    def resolve_generator(self, template: ContractTemplate) -> GenerationStrategy:
        return resolve(self.generator, GENERATOR_REGISTRY, template, seed=self.seed)

    def resolve_restriction(
        self, template: ContractTemplate
    ) -> Tuple[Optional[str], Optional[frozenset]]:
        """``(label, allowed_atom_ids)`` for the configured restriction."""
        if self.restriction is None:
            return None, None
        families = tuple(resolve(self.restriction, RESTRICTION_REGISTRY))
        return restriction_label(families), template.ids_by_family(families)

    def round_plan(self) -> Tuple[int, int]:
        """The adaptive ``(rounds, batch)`` actually run: an explicit
        batch is taken as given (its ceiling is ``rounds * batch``); a
        derived batch splits the budget evenly across the rounds,
        clamping the round count so the ceiling never exceeds the
        budget."""
        rounds, batch = self.adaptive.rounds, self.adaptive.batch
        if batch is not None:
            return rounds, batch
        if self.budget < 1:
            raise ValueError(
                "adaptive mode derives its per-round batch from the budget: "
                "configure a positive budget or pass an explicit batch"
            )
        rounds = min(rounds, self.budget)
        return rounds, max(1, self.budget // rounds)

    def _unnamed(self, purpose: str) -> List[str]:
        unnamed = []
        for axis in _NAMED_AXES[purpose]:
            if axis == "stop":
                value = self.adaptive.stop if self.adaptive is not None else None
            else:
                value = getattr(self, axis)
            if not isinstance(value, (str, type(None))):
                unnamed.append(axis)
        return unnamed

    def require_names(self, purpose: str) -> None:
        """Raise unless every axis ``purpose`` (``"executor"`` or
        ``"store"``) keys on is configured by registry name."""
        unnamed = self._unnamed(purpose)
        if unnamed:
            raise ValueError(
                "%s by registry name: configure %s by name"
                % (_NAMED_REASONS[purpose], ", ".join(unnamed))
            )

    # -- keys ----------------------------------------------------------

    def stream_key(self) -> Dict[str, object]:
        """The budget-free axes that fix the evaluated test-case
        stream, named as :class:`EvaluationTask` fields (and as
        :func:`~repro.evaluation.parallel.evaluate_parallel` keywords),
        in :meth:`dataset_group` order.  Test cases are generated per
        test id, so two budgets of one stream share their prefix."""
        return {
            "core_name": self.name("core"),
            "template_name": self.name("template"),
            "attacker_name": self.name("attacker"),
            "seed": self.seed,
            "use_fastpath": self.fastpath,
            "generator_name": self.name("generator"),
        }

    def dataset_group(self) -> tuple:
        """The stream key plus the adaptive round count: configurations
        in one group share test cases, so a cached dataset of a larger
        budget serves any smaller budget by prefix.  Adaptive corpora
        are feedback-shaped and bypass the cache, so each adaptive
        configuration is its own (inert) group."""
        rounds = self.adaptive.rounds if self.adaptive is not None else None
        return tuple(self.stream_key().values()) + (rounds,)

    def _file_stem(self, cache_dir: Optional[str]) -> Optional[str]:
        """The path every artefact of this run shares up to its suffix,
        or ``None`` without a cache dir or name-addressed plugins.

        One-shot runs key on the dataset stream and budget (the cache
        file minus ``.json``).  Adaptive runs key on every axis of the
        round-manifest key, so two loops with different keys never
        collide on one file."""
        if cache_dir is None or self._unnamed("file keys"):
            return None
        stream = self.stream_key()
        template = self.resolve_template()
        prefix = "%s-%s-%s-%s" % (
            stream["core_name"],
            template.name,
            template_digest(template),
            stream["attacker_name"],
        )
        generator = stream["generator_name"]
        ref = "" if self.fastpath else "-ref"
        if self.adaptive is not None:
            key = self.round_manifest_key()
            restriction = "-r%s" % key["restriction"] if key["restriction"] else ""
            name = "%s-g%s-%s%s-seed%d-b%d%s" % (
                prefix,
                key["generator"],
                key["solver"],
                restriction,
                key["seed"],
                key["batch"],
                ref,
            )
            return os.path.join(cache_dir, name)
        # The default strategy is keyed by absence, so caches written
        # before generators existed (all random) stay valid.
        stem = "%s%s-seed%d" % (
            prefix,
            "" if generator == "random" else "-g%s" % generator,
            self.seed,
        )
        name = _CACHE_FILE % (stem, self.budget, ref)
        return os.path.join(cache_dir, name[: -len(".json")])

    def cache_path(self, cache_dir: Optional[str]) -> Optional[str]:
        """The dataset cache file, or ``None``: adaptive runs bypass the
        cache, and core, attacker and generator must be registry names
        (templates may be instances: their digest enters the key)."""
        if self.adaptive is not None:
            return None
        stem = self._file_stem(cache_dir)
        return stem + ".json" if stem is not None else None

    def manifest_path(
        self, cache_dir: Optional[str], resume: Union[None, bool, str]
    ) -> Optional[str]:
        """The checkpoint file: shard manifest (one-shot) or round
        manifest (adaptive).  ``resume`` is ``None`` (off), an explicit
        path, or ``True`` (derive it from the run key)."""
        if resume is None or isinstance(resume, str):
            return resume
        stem = self._file_stem(cache_dir)
        if stem is None:
            raise ValueError(
                "resume(True) derives the manifest from the run key: "
                "configure cache_dir() and name-based plugins, or pass an "
                "explicit manifest path"
            )
        return stem + (ROUNDS_SUFFIX if self.adaptive is not None else SHARDS_SUFFIX)

    def quarantine_path(
        self, cache_dir: Optional[str], resume: Union[None, bool, str]
    ) -> Optional[str]:
        """The quarantine failure log, next to the checkpoint it punched
        a hole in.  One-shot runs derive it from the cache key; adaptive
        runs from their round manifest (``None`` without one)."""
        if self.adaptive is None:
            stem = self._file_stem(cache_dir)
        else:
            manifest = self.manifest_path(cache_dir, resume)
            stem = (
                manifest[: -len(ROUNDS_SUFFIX)]
                if manifest is not None and manifest.endswith(ROUNDS_SUFFIX)
                else None
            )
        return stem + QUARANTINE_SUFFIX if stem is not None else None

    def round_manifest_key(self) -> dict:
        """The adaptive round-manifest key: everything that changes a
        round's results or steering, the batch actually run and the
        restriction label included.  The round budget is absent, so
        extending ``rounds`` resumes instead of restarting."""
        stream = self.stream_key()
        template = self.resolve_template()
        restriction, _allowed = self.resolve_restriction(template)
        return {
            "core": stream["core_name"],
            "template": stream["template_name"],
            "template_digest": template_digest(template),
            "attacker": stream["attacker_name"],
            "seed": self.seed,
            "generator": stream["generator_name"],
            "batch": self.round_plan()[1],
            "fastpath": self.fastpath,
            "solver": self.name("solver"),
            "restriction": restriction,
        }

    # -- campaign cells ------------------------------------------------

    @classmethod
    def from_cell(cls, cell: "CampaignCell") -> "PipelineConfig":
        """The configuration a campaign cell runs; :meth:`cell` is its
        inverse (up to the cell's fault-tolerance fields)."""
        adaptive = None
        if cell.adaptive_rounds is not None:
            adaptive = AdaptivePlan(
                cell.adaptive_rounds,
                cell.batch,
                cell.stop if cell.stop is not None else "contract-stable",
            )
        return cls(
            core=cell.core,
            attacker=cell.attacker,
            template=cell.template,
            restriction=cell.restriction,
            solver=cell.solver,
            generator=cell.generator,
            budget=cell.budget,
            seed=cell.seed,
            adaptive=adaptive,
            fastpath=cell.fastpath,
            verify=cell.verify,
        )

    def cell(self) -> "CampaignCell":
        """This configuration as a campaign cell — the contract store's
        key.  Retry and timeout settings are absent: they never change
        a result, so they must not fragment the store key space."""
        from repro.campaign.spec import CampaignCell

        self.require_names("store")
        adaptive = self.adaptive
        stop = adaptive.stop if adaptive is not None else None
        return CampaignCell(
            core=self.core,
            attacker=self.attacker,
            template=self.template,
            restriction=self.restriction,
            solver=self.solver,
            budget=self.budget,
            seed=self.seed,
            generator=self.generator,
            adaptive_rounds=adaptive.rounds if adaptive is not None else None,
            batch=adaptive.batch if adaptive is not None else None,
            # The adaptive() default rule maps to the cell default
            # (None), so builder- and campaign-configured runs of the
            # same loop share one store key.
            stop=None if stop == "contract-stable" else stop,
            fastpath=self.fastpath,
            verify=self.verify,
        )


def cell_identity(cell: "CampaignCell") -> dict:
    """The campaign-manifest and contract-store key of a cell: every
    cell field, since each changes its result.  ``retries`` and
    ``shard_timeout`` enter only when set, so keys written before they
    existed still match."""
    identity = {field.name: getattr(cell, field.name) for field in fields(cell)}
    identity["fastpath"] = bool(cell.fastpath)
    for optional in ("retries", "shard_timeout"):
        if identity[optional] is None:
            del identity[optional]
    return identity


def stored_outcomes(completed: dict, cells: Iterable["CampaignCell"]) -> dict:
    """The outcomes in ``completed`` (cell key -> outcome) stored for
    ``cells``.  A cell names its template by registry name only, so an
    outcome computed under a differently-defined template of that name
    (its stored digest differs) does not match."""
    digests: Dict[str, str] = {}
    found = {}
    for cell in cells:
        outcome = completed.get(cell.key())
        if outcome is None:
            continue
        if cell.template not in digests:
            digests[cell.template] = template_digest(
                TEMPLATE_REGISTRY.create(cell.template)
            )
        if outcome.template_digest == digests[cell.template]:
            found[cell.key()] = outcome
    return found


def superset_cache_path(cache_path: str, budget: int) -> Optional[str]:
    """A cached dataset of the same stream with a budget larger than
    ``budget``, if any (the smallest such superset, to minimize load
    cost)."""
    directory, name = os.path.split(cache_path)
    match = _CACHE_NAME.match(name)
    if match is None or not os.path.isdir(directory):
        return None
    best: Optional[Tuple[int, str]] = None
    for candidate in os.listdir(directory):
        other = _CACHE_NAME.match(candidate)
        if (
            other is None
            or other.group("stem") != match.group("stem")
            or other.group("ref") != match.group("ref")
        ):
            continue
        count = int(other.group("count"))
        if count > budget and (best is None or count < best[0]):
            best = (count, os.path.join(directory, candidate))
    return best[1] if best is not None else None


# -- executor tasks and work-queue jobs --------------------------------

#: The dependency distance every task key and job payload carries: a
#: constant since the template is named, kept so that manifest keys and
#: job ids stay byte-identical with those already written.
_KEYED_MAX_DISTANCE = 4


def task_identity(task: EvaluationTask) -> dict:
    """The shard-manifest key: every task field that changes a shard's
    results.  The total budget is absent (shards are keyed by ``(start_id,
    count)``), so a manifest stays valid when the budget is extended.
    A non-default generator is present, with its feedback state as a
    short digest so steered rounds never alias the fresh stream; the
    default ``random`` strategy is keyed by absence, so manifests
    written before strategies existed stay resumable."""
    key = {
        "core": task.core_name,
        "template": task.template_name or "riscv-rv32im",
        "attacker": task.attacker_name or "retirement-timing",
        "seed": task.seed,
        "max_distance": _KEYED_MAX_DISTANCE,
        "fastpath": bool(task.use_fastpath),
    }
    if task.generator_name != "random":
        key["generator"] = task.generator_name
    if task.generator_state is not None:
        key["generator_state"] = hashlib.md5(
            task.generator_state.encode()
        ).hexdigest()[:8]
    return key


def task_to_payload(task: EvaluationTask) -> dict:
    """The task as the plain-JSON payload shipped inside job records."""
    return {
        "core": task.core_name,
        "seed": task.seed,
        "max_distance": _KEYED_MAX_DISTANCE,
        "fastpath": bool(task.use_fastpath),
        "template": task.template_name,
        "attacker": task.attacker_name,
        "generator": task.generator_name,
        "generator_state": task.generator_state,
    }


def task_from_payload(payload: dict) -> EvaluationTask:
    """Rebuild the task a worker must execute from a job payload."""
    return EvaluationTask(
        core_name=payload["core"],
        seed=payload["seed"],
        use_fastpath=bool(payload.get("fastpath", True)),
        template_name=payload.get("template"),
        attacker_name=payload.get("attacker"),
        generator_name=payload.get("generator", "random"),
        generator_state=payload.get("generator_state"),
    )


def job_id_for(task: EvaluationTask, shard: Shard) -> str:
    """The stable job id: a digest of the payload and the shard.

    Budget-free by construction, so the same ``(task, shard)`` enqueued
    by any broker at any time maps to the same id and finished results
    are reused."""
    body = {"task": task_to_payload(task), "shard": list(shard)}
    digest = hashlib.md5(json.dumps(body, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()
