"""The request front-end: ``request(spec) -> ServiceTicket``.

:class:`ContractService` answers contract requests from the
:class:`~repro.service.store.ContractStore` when it can and schedules
campaign cells when it cannot:

- every requested cell already stored → the ticket returns instantly
  with zero cells executed;
- missing cells expand to a :class:`~repro.campaign.CampaignSpec`
  (stored cells excluded) executed through
  :class:`~repro.campaign.CampaignRunner` — on the ``workqueue``
  executor when the service was built with one, so evaluation fans out
  to whatever workers are draining the queue — and the finished
  outcomes are stored before the ticket is issued;
- a request whose budget is *smaller* than a stored sibling's schedules
  the cell but evaluates nothing: the cell's pipeline derives the
  dataset as a prefix of the larger one in the store's cache, so
  ``jobs_enqueued`` stays zero.

:class:`ContractServer` is the file-based front-end behind the
``serve`` / ``submit`` / ``status`` CLI: requests are JSON files
dropped into ``<root>/requests/pending/``, the serve loop executes
them through a :class:`ContractService`, and tickets land in
``requests/done/`` (failures in ``requests/failed/``) — the same
no-daemon filesystem transport as the job queue.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.result import CellOutcome
from repro.evaluation.backends.base import EvaluationExecutor
from repro.reporting.tables import render_comparison_table
from repro.service.store import ContractStore
from repro.trace import Tracer

#: Request axes accept one value or a list of values.
Scalar = Union[str, int, None]


def _as_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


@dataclass(frozen=True)
class ContractRequest:
    """One contract request: the dataset/synthesis axes, scalar or list.

    A scalar on every axis asks for one contract; lists expand to the
    cross product (a grid request), exactly like a campaign spec.
    """

    core: Union[str, Sequence[str]] = "ibex"
    attacker: Union[str, Sequence[str]] = "retirement-timing"
    template: Union[str, Sequence[str]] = "riscv-rv32im"
    restriction: Union[Optional[str], Sequence[Optional[str]]] = None
    solver: Union[str, Sequence[str]] = "scipy-milp"
    generator: Union[str, Sequence[str]] = "random"
    budget: Union[int, Sequence[int]] = 1000
    seed: Union[int, Sequence[int]] = 0
    #: Verification budget per cell (``None`` → dataset check).
    verify: Optional[int] = None
    fastpath: bool = True

    def to_dict(self) -> dict:
        return {
            "core": _as_list(self.core),
            "attacker": _as_list(self.attacker),
            "template": _as_list(self.template),
            "restriction": _as_list(self.restriction),
            "solver": _as_list(self.solver),
            "generator": _as_list(self.generator),
            "budget": _as_list(self.budget),
            "seed": _as_list(self.seed),
            "verify": self.verify,
            "fastpath": self.fastpath,
        }

    @staticmethod
    def from_dict(data: dict) -> "ContractRequest":
        return ContractRequest(
            core=data.get("core", "ibex"),
            attacker=data.get("attacker", "retirement-timing"),
            template=data.get("template", "riscv-rv32im"),
            restriction=data.get("restriction"),
            solver=data.get("solver", "scipy-milp"),
            generator=data.get("generator", "random"),
            budget=data.get("budget", 1000),
            seed=data.get("seed", 0),
            verify=data.get("verify"),
            fastpath=data.get("fastpath", True),
        )

    def digest(self) -> str:
        """The request id: a digest of the normalized axes, so the same
        request resubmitted maps to the same ticket."""
        body = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.md5(body.encode("utf-8")).hexdigest()[:12]

    def spec(self, name: Optional[str] = None) -> CampaignSpec:
        """The request as a campaign spec (cells validated on expand)."""
        return CampaignSpec(
            name=name or "request-%s" % self.digest(),
            cores=_as_list(self.core),
            attackers=_as_list(self.attacker),
            templates=_as_list(self.template),
            restrictions=_as_list(self.restriction),
            solvers=_as_list(self.solver),
            generators=_as_list(self.generator),
            budgets=_as_list(self.budget),
            seeds=_as_list(self.seed),
            verify=self.verify,
            fastpath=self.fastpath,
        )

    def cells(self) -> List[CampaignCell]:
        return self.spec().expand()


@dataclass
class ServiceTicket:
    """The answer to one request: every outcome plus how it was served."""

    request_id: str
    outcomes: List[CellOutcome]
    #: Cells answered straight from the contract store.
    from_store: int = 0
    #: Cells executed (scheduled as campaign cells) for this ticket.
    executed: int = 0
    #: Evaluation shard jobs newly enqueued on the work queue (zero
    #: when every dataset came from the store's cache — including by
    #: prefix-derivation from a larger cached budget).
    jobs_enqueued: int = 0
    total_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "request": self.request_id,
            "from_store": self.from_store,
            "executed": self.executed,
            "jobs_enqueued": self.jobs_enqueued,
            "total_seconds": self.total_seconds,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    @staticmethod
    def from_dict(data: dict) -> "ServiceTicket":
        return ServiceTicket(
            request_id=data["request"],
            outcomes=[
                CellOutcome.from_dict(entry) for entry in data.get("outcomes", [])
            ],
            from_store=data.get("from_store", 0),
            executed=data.get("executed", 0),
            jobs_enqueued=data.get("jobs_enqueued", 0),
            total_seconds=data.get("total_seconds", 0.0),
        )

    def render(self) -> str:
        rows = []
        for outcome in self.outcomes:
            rows.append(
                [
                    outcome.cell.label(),
                    str(outcome.atom_count),
                    str(outcome.false_positives),
                    "store" if outcome.resumed else "executed",
                ]
            )
        table = render_comparison_table(
            ["cell", "atoms", "FPs", "served from"],
            rows,
            title="Ticket %s: %d contract(s) — %d from store, %d executed, "
            "%d jobs enqueued (%.3fs)"
            % (
                self.request_id,
                len(self.outcomes),
                self.from_store,
                self.executed,
                self.jobs_enqueued,
                self.total_seconds,
            ),
        )
        return table


class ContractService:
    """Serve contract requests from the store, scheduling misses."""

    def __init__(
        self,
        store: ContractStore,
        executor: Union[None, str, EvaluationExecutor] = None,
        processes: Optional[int] = None,
        shard_size: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.store = store
        #: Executor for scheduled cells: ``None`` → in-process serial,
        #: a registry name, or an instance (a
        #: :class:`~repro.service.WorkQueueExecutor` for the
        #: distributed service).
        self.executor = executor if executor is not None else "serial"
        self.processes = processes
        self.shard_size = shard_size
        self.tracer = (tracer or Tracer(None)).child("service")

    def request(self, request: ContractRequest) -> ServiceTicket:
        """Answer one request, executing only what the store lacks."""
        started = time.perf_counter()
        request_id = request.digest()
        spec = request.spec()
        cells = spec.expand()
        self.store.reload()
        stored = self.store.get_all(cells)
        pending = [cell for cell in cells if cell.key() not in stored]
        self.tracer.event(
            "request",
            request=request_id,
            cells=len(cells),
            from_store=len(stored),
            scheduled=len(pending),
        )
        from repro.metrics.registry import current_metrics

        metrics = current_metrics()
        metrics.counter("service.requests").inc()
        metrics.counter("service.cells.from_store").inc(len(stored))
        metrics.counter("service.cells.scheduled").inc(len(pending))
        enqueued_before = self._jobs_enqueued()
        executed: Dict[str, CellOutcome] = {}
        if pending:
            with self.tracer.span("campaign", request=request_id, cells=len(pending)):
                executed = self._execute(spec, stored)
        outcomes = []
        for cell in cells:
            key = cell.key()
            outcomes.append(stored[key] if key in stored else executed[key])
        ticket = ServiceTicket(
            request_id=request_id,
            outcomes=outcomes,
            from_store=len(stored),
            executed=len(executed),
            jobs_enqueued=self._jobs_enqueued() - enqueued_before,
            total_seconds=time.perf_counter() - started,
        )
        self.tracer.event(
            "ticket",
            request=request_id,
            from_store=ticket.from_store,
            executed=ticket.executed,
            jobs_enqueued=ticket.jobs_enqueued,
        )
        return ticket

    def _execute(
        self, spec: CampaignSpec, stored: Dict[str, CellOutcome]
    ) -> Dict[str, CellOutcome]:
        """Run the not-yet-stored cells and persist their outcomes."""
        run_spec = replace(spec, exclude=lambda cell: cell.key() in stored)
        runner = CampaignRunner(
            run_spec,
            results_dir=self.store.root,
            executor=self.executor,
            processes=self.processes,
            shard_size=self.shard_size,
            # The store is the durable layer; the runner's own manifest
            # would duplicate it per request name.
            manifest=False,
            keep_results=False,
            # Cell spans land in the service trace file, interleaved
            # with the request/job events.
            trace=self.tracer.child("campaign"),
        )
        result = runner.run()
        executed = {}
        for outcome in result.outcomes:
            self.store.put(outcome)
            executed[outcome.cell.key()] = outcome
        return executed

    def _jobs_enqueued(self) -> int:
        """The executor's cumulative enqueue counter (0 for in-process
        backends, which never enqueue anything)."""
        return getattr(self.executor, "total_enqueued", 0)


# -- file-based front end (serve / submit / status) --------------------


def _requests_dir(root: str, state: str) -> str:
    return os.path.join(root, "requests", state)


def _write_json(path: str, payload: dict) -> None:
    tmp_path = path + ".tmp.%d" % os.getpid()
    with open(tmp_path, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
    os.replace(tmp_path, path)


def submit_request(root: str, request: ContractRequest) -> str:
    """Drop one request into ``<root>/requests/pending/``; returns the
    request id.  Re-submitting an identical request reuses its id (and
    its finished ticket, if one exists)."""
    request_id = request.digest()
    pending = _requests_dir(root, "pending")
    os.makedirs(pending, exist_ok=True)
    done_path = os.path.join(_requests_dir(root, "done"), request_id + ".json")
    if os.path.exists(done_path):
        return request_id
    _write_json(
        os.path.join(pending, request_id + ".json"),
        {"request": request_id, "spec": request.to_dict()},
    )
    return request_id


def load_ticket(root: str, request_id: str) -> Optional[ServiceTicket]:
    """The finished ticket for ``request_id``, or ``None``."""
    path = os.path.join(_requests_dir(root, "done"), request_id + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as stream:
        return ServiceTicket.from_dict(json.load(stream))


def request_states(root: str) -> Dict[str, List[str]]:
    """Request ids by state (``pending`` / ``done`` / ``failed``)."""
    states: Dict[str, List[str]] = {}
    for state in ("pending", "done", "failed"):
        directory = _requests_dir(root, state)
        try:
            names = sorted(os.listdir(directory))
        except FileNotFoundError:
            names = []
        states[state] = [
            name[: -len(".json")] for name in names if name.endswith(".json")
        ]
    return states


def render_status(root: str) -> str:
    """The ``status`` CLI view over one service root."""
    states = request_states(root)
    rows = []
    for state in ("pending", "done", "failed"):
        for request_id in states[state]:
            rows.append([request_id, state])
    if not rows:
        rows = [["-", "no requests"]]
    return render_comparison_table(
        ["request", "state"],
        rows,
        title="Service %s: %d pending, %d done, %d failed"
        % (root, len(states["pending"]), len(states["done"]), len(states["failed"])),
    )


@dataclass
class ContractServer:
    """The serve loop: pending request files in, ticket files out."""

    service: ContractService
    root: str
    poll_seconds: float = 0.2
    #: Exit after this long with no pending requests (``None`` never).
    idle_timeout: Optional[float] = None
    #: Exit after serving this many requests (``None`` unbounded).
    max_requests: Optional[int] = None
    served: int = field(default=0, init=False)

    def poll_once(self) -> int:
        """Serve every currently pending request; returns the count."""
        pending_dir = _requests_dir(self.root, "pending")
        os.makedirs(pending_dir, exist_ok=True)
        handled = 0
        for name in sorted(os.listdir(pending_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(pending_dir, name)
            try:
                with open(path) as stream:
                    payload = json.load(stream)
                request = ContractRequest.from_dict(payload.get("spec", {}))
                ticket = self.service.request(request)
            except Exception as error:  # noqa: BLE001 - served back as a file
                failed_dir = _requests_dir(self.root, "failed")
                os.makedirs(failed_dir, exist_ok=True)
                _write_json(
                    os.path.join(failed_dir, name),
                    {"request": name[: -len(".json")], "error": repr(error)},
                )
                os.remove(path)
                self.service.tracer.event(
                    "request-failed", request=name[: -len(".json")], error=repr(error)
                )
                handled += 1
                continue
            done_dir = _requests_dir(self.root, "done")
            os.makedirs(done_dir, exist_ok=True)
            _write_json(os.path.join(done_dir, name), ticket.to_dict())
            os.remove(path)
            handled += 1
        self.served += handled
        return handled

    def serve(self) -> int:
        """Poll until idle timeout / max requests; returns requests served.

        A traced serve loop owns the process-wide metrics registry for
        its lifetime (request handling and in-process campaign cells
        accumulate into it) and appends one ``service`` record to the
        store's run-history index on exit.
        """
        from repro.metrics.registry import Metrics, current_metrics, install_metrics
        from repro.metrics.runs import record_run

        tracer = self.service.tracer
        previous_metrics = None
        if tracer.enabled and not current_metrics().enabled:
            previous_metrics = install_metrics(Metrics(tracer))
        started = time.time()
        self.service.tracer.event("serve-start", root=self.root)
        last_progress = time.time()
        try:
            while True:
                handled = self.poll_once()
                if handled:
                    last_progress = time.time()
                if (
                    self.max_requests is not None
                    and self.served >= self.max_requests
                ):
                    break
                if (
                    self.idle_timeout is not None
                    and time.time() - last_progress > self.idle_timeout
                ):
                    break
                if not handled:
                    time.sleep(self.poll_seconds)
        finally:
            if previous_metrics is not None:
                current_metrics().flush(final=True)
                install_metrics(previous_metrics)
            self.service.tracer.event("serve-exit", root=self.root, served=self.served)
            record_run(
                self.service.store.root,
                kind="service",
                label=self.root,
                seconds=time.time() - started,
                extra={"served": self.served},
            )
        return self.served
