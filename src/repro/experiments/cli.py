"""Command-line entry point: ``repro-synthesize``.

Runs the paper's experiments end-to-end, lists the plugin registries,
runs an ad-hoc synthesis pipeline, or drives a whole configuration
grid as a resumable campaign::

    repro-synthesize fig2
    repro-synthesize table1 --scale 2
    repro-synthesize all --results-dir results
    repro-synthesize list
    repro-synthesize list templates
    repro-synthesize run --core cva6 --attacker cache-state --count 500
    repro-synthesize run --executor multiprocess --resume --count 100000
    repro-synthesize run --generator coverage --adaptive-rounds 8 --batch 250
    repro-synthesize campaign run --core ibex,cva6 --budgets 500,2000
    repro-synthesize campaign run --generator random,coverage --adaptive-rounds 8
    repro-synthesize campaign run --resume --max-parallel-cells 4
    repro-synthesize campaign status --core ibex,cva6 --budgets 500,2000
    repro-synthesize campaign report --core ibex,cva6 --budgets 500,2000

The contract service turns the same machinery into a long-running
request front-end (see README "Running the contract service")::

    repro-synthesize serve --service-root service --executor workqueue
    repro-synthesize service worker --queue-dir service/queue
    repro-synthesize submit --core ibex --budget 500 --wait 60
    repro-synthesize status

Every run/campaign/serve/worker invocation accepts ``--trace PATH``
to append :mod:`repro.trace` spans to one shared JSONL file, and
``repro-synthesize watch`` tails that file as a live progress view::

    repro-synthesize run --count 5000 --trace trace.jsonl
    repro-synthesize campaign run --budgets 500,2000 --trace trace.jsonl
    repro-synthesize watch --trace trace.jsonl
    repro-synthesize watch --service-root service

After a run, the same trace file feeds the reporting rung — a
self-contained run report, a Chrome-trace export for Perfetto /
``chrome://tracing``, and the run-history index (see README "Run
reports & metrics")::

    repro-synthesize report --trace trace.jsonl
    repro-synthesize report --trace trace.jsonl --format html --output run.html
    repro-synthesize trace export --trace trace.jsonl
    repro-synthesize runs list
    repro-synthesize runs diff -2 -1
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.contract_tables import run_table1, run_table2
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.table3 import run_table3
from repro.pipeline import REGISTRIES, SynthesisPipeline, describe_registries

_EXPERIMENTS = ("fig2", "fig3", "table1", "table2", "table3")
_COMMANDS = _EXPERIMENTS + (
    "all",
    "list",
    "run",
    "campaign",
    "service",
    "serve",
    "submit",
    "status",
    "watch",
    "report",
    "runs",
    "trace",
)
_CAMPAIGN_ACTIONS = ("run", "status", "report")
_SERVICE_ACTIONS = ("worker",)
_TRACE_ACTIONS = ("export",)
_RUNS_ACTIONS = ("list", "diff")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-synthesize",
        description="Synthesize hardware-software leakage contracts for the "
        "bundled RISC-V core models and reproduce the paper's experiments.",
    )
    parser.add_argument(
        "experiment",
        choices=_COMMANDS,
        help="which figure/table to regenerate, 'all' for every "
        "experiment, 'list' to print the plugin registries, 'run' "
        "for an ad-hoc pipeline, 'campaign' for a resumable grid "
        "sweep, serve/submit/status/'service worker' for the "
        "contract service, 'watch' to tail a trace file live, "
        "'report' for a run report from a trace, 'trace export' for "
        "a Chrome-trace file, or 'runs' for the run-history index",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="for 'campaign': run (default), status, or report; "
        "for 'list': a registry name to print just that registry; "
        "for 'service': worker; for 'status': a request id to render "
        "that ticket; for 'trace': export; for 'runs': list "
        "(default) or diff",
    )
    parser.add_argument(
        "extra",
        nargs="*",
        default=[],
        help="for 'runs diff': the two runs to compare, each an id, "
        "an unambiguous id prefix, or a 1-based index (-1 = latest)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="test-case budget multiplier (default: REPRO_SCALE env or 1.0)",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="directory for CSV/text outputs and the dataset cache",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not cache or reuse evaluated datasets",
    )
    pipeline_group = parser.add_argument_group(
        "pipeline plugins",
        "registry names (see 'repro-synthesize list'); 'campaign' accepts "
        "comma-separated lists on every plugin flag",
    )
    pipeline_group.add_argument(
        "--core",
        default=None,
        help="core model for fig2/fig3/table3/run/campaign (default: ibex)",
    )
    pipeline_group.add_argument(
        "--attacker",
        default=None,
        help="attacker model (default: retirement-timing)",
    )
    pipeline_group.add_argument(
        "--solver",
        default=None,
        help="ILP solver backend (default: scipy-milp)",
    )
    pipeline_group.add_argument(
        "--template",
        default=None,
        help="contract template for run/campaign (default: riscv-rv32im)",
    )
    pipeline_group.add_argument(
        "--restrict",
        default=None,
        help="template restriction for run/campaign, e.g. 'base' or "
        "'IL+RL+ML+AL'",
    )
    pipeline_group.add_argument(
        "--generator",
        default=None,
        help="test-case generation strategy for run/campaign "
        "(random, mutate, coverage; default: random)",
    )
    pipeline_group.add_argument(
        "--executor",
        default=None,
        choices=REGISTRIES["executors"].names(),
        help="evaluation executor backend (%(choices)s; default: "
        "in-process evaluation)",
    )
    run_group = parser.add_argument_group("ad-hoc pipeline ('run' only)")
    run_group.add_argument(
        "--count", type=int, default=1000, help="test-case budget (default: 1000)"
    )
    run_group.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    run_group.add_argument(
        "--verify",
        type=int,
        default=None,
        metavar="N",
        help="verify with N fresh directed test cases (default: check "
        "the synthesized contract against the evaluated dataset)",
    )
    run_group.add_argument(
        "--adaptive-rounds",
        type=int,
        default=None,
        metavar="N",
        help="run the evaluation phase as an adaptive loop of up to N "
        "rounds (see also --batch and --stop)",
    )
    run_group.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="test cases per adaptive round (default: --count split "
        "evenly across the rounds)",
    )
    run_group.add_argument(
        "--stop",
        default=None,
        metavar="RULE",
        help="adaptive stopping rule (contract-stable, full-coverage, "
        "budget; default: contract-stable)",
    )
    run_group.add_argument(
        "--resume",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="run: checkpoint completed evaluation shards to PATH and "
        "resume from them (implies --executor multiprocess); campaign: "
        "reuse completed cells from the campaign manifest at PATH "
        "(default with no PATH: derive the path from the campaign name)",
    )
    run_group.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="run: executor worker count; campaign: total process "
        "budget shared by all concurrently running cells",
    )
    run_group.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="test cases per evaluation shard (default: 250)",
    )
    run_group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry failing evaluation shards (and campaign cells) up "
        "to N times with deterministic backoff, then quarantine them "
        "and continue (default: fail fast)",
    )
    run_group.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="soft per-shard deadline of the multiprocess pool: shards "
        "hung past it are cancelled and rescheduled in a fresh pool",
    )
    campaign_group = parser.add_argument_group("campaign grid ('campaign' only)")
    campaign_group.add_argument(
        "--campaign-name",
        default="cli",
        help="campaign name, keying the cell manifest (default: cli)",
    )
    campaign_group.add_argument(
        "--budgets",
        default=None,
        metavar="N,N,...",
        help="comma-separated test-case budgets (default: --count)",
    )
    campaign_group.add_argument(
        "--seeds",
        default=None,
        metavar="N,N,...",
        help="comma-separated generator seeds (default: --seed)",
    )
    campaign_group.add_argument(
        "--max-parallel-cells",
        type=int,
        default=1,
        metavar="N",
        help="cells executed concurrently (default: 1)",
    )
    campaign_group.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="AXIS=VALUE",
        dest="filters",
        help="only cells matching AXIS=VALUE (repeatable), e.g. "
        "--filter core=ibex --filter budget=500",
    )
    service_group = parser.add_argument_group(
        "contract service ('service worker', 'serve', 'submit', 'status')"
    )
    service_group.add_argument(
        "--service-root",
        default="service",
        metavar="DIR",
        help="service state root: request spool, contract store, trace "
        "(default: service)",
    )
    service_group.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help="work-queue root shared by broker and workers (default: "
        "REPRO_QUEUE_DIR env; serve defaults to <service-root>/queue)",
    )
    service_group.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity for leases/heartbeats "
        "(default: worker-<pid>)",
    )
    service_group.add_argument(
        "--lease",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="job lease: a shard claimed longer than this without "
        "completing is reclaimed and requeued (default: 30)",
    )
    service_group.add_argument(
        "--poll",
        type=float,
        default=None,
        metavar="SECONDS",
        help="queue/spool poll interval (default: 0.05 worker, 0.2 serve)",
    )
    service_group.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="worker: lease-refresh/telemetry heartbeat interval "
        "(default: 2.0)",
    )
    service_group.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker: exit after completing N jobs",
    )
    service_group.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="worker/serve: exit after this long with nothing to do "
        "(default: run until shutdown)",
    )
    service_group.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="serve: exit after serving N requests",
    )
    service_group.add_argument(
        "--embedded-workers",
        type=int,
        default=0,
        metavar="N",
        help="serve/run/campaign with --executor workqueue: run N "
        "in-process worker threads alongside the broker",
    )
    service_group.add_argument(
        "--failure-log",
        default=None,
        metavar="PATH",
        help="worker: append quarantine records for failed shards here",
    )
    service_group.add_argument(
        "--fault",
        default=None,
        metavar="NAME",
        help="worker: arm a fault plan from the fault registry "
        "(testing only; see also --fault-state)",
    )
    service_group.add_argument(
        "--fault-state",
        default=None,
        metavar="JSON",
        help="worker: JSON kwargs for the --fault plan",
    )
    service_group.add_argument(
        "--wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help="submit: block until the ticket lands (or fail after "
        "SECONDS) instead of returning immediately",
    )
    trace_group = parser.add_argument_group(
        "observability (run/campaign/serve/'service worker'/submit/"
        "watch/report/'trace export'/runs)"
    )
    trace_group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append repro.trace span/event records to this JSONL file "
        "(serve and workers default to <service-root>/trace.jsonl; "
        "watch tails it; report and 'trace export' read it)",
    )
    trace_group.add_argument(
        "--once",
        action="store_true",
        help="watch: render one frame and exit instead of tailing",
    )
    trace_group.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="watch: refresh interval (default: 1.0)",
    )
    trace_group.add_argument(
        "--format",
        default=None,
        dest="output_format",
        metavar="FMT",
        help="report: markdown (default) or html; trace export: "
        "chrome (default)",
    )
    trace_group.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="report/'trace export': write here instead of stdout "
        "(export default: <trace>.chrome.json)",
    )
    trace_group.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="runs diff: relative change flagged as a regression "
        "(default: 0.10)",
    )
    return parser


def _run_pipeline(arguments) -> int:
    """The ``run`` subcommand: one ad-hoc pipeline, fully printed."""
    from repro.reporting.tables import render_contract_table

    pipeline = SynthesisPipeline().budget(arguments.count, arguments.seed)
    if arguments.core:
        pipeline.core(arguments.core)
    if arguments.attacker:
        pipeline.attacker(arguments.attacker)
    if arguments.solver:
        pipeline.solver(arguments.solver)
    if arguments.template:
        pipeline.template(arguments.template)
    if arguments.restrict:
        pipeline.restrict(arguments.restrict)
    if arguments.generator:
        pipeline.generator(arguments.generator)
    adaptive_rounds = _effective_adaptive_rounds(arguments)
    if adaptive_rounds is not None:
        pipeline.adaptive(
            rounds=adaptive_rounds,
            batch=arguments.batch,
            stop=arguments.stop or "contract-stable",
        )
    if arguments.verify is not None:
        pipeline.verify(arguments.verify)
    if arguments.retries is not None:
        # N retries == N+1 attempts (0 → fail on the first error, but
        # still through the quarantine path).
        pipeline.retry(arguments.retries + 1)
    if arguments.shard_timeout is not None:
        pipeline.timeout(arguments.shard_timeout)
    if arguments.executor or arguments.processes or arguments.shard_size:
        pipeline.executor(
            _effective_cli_executor(arguments) or "multiprocess",
            processes=arguments.processes,
            shard_size=arguments.shard_size,
        )
    if arguments.resume is not None:
        pipeline.resume(arguments.resume)
    if arguments.trace:
        pipeline.trace(arguments.trace)
    pipeline.run_history(arguments.results_dir)
    if not arguments.no_cache:
        config = ExperimentConfig(results_dir=arguments.results_dir)
        pipeline.cache_dir(config.cache_dir())
    result = pipeline.run()
    print(result.render())
    print()
    print(render_contract_table(result.contract))
    return 0


def _effective_adaptive_rounds(arguments) -> Optional[int]:
    """The adaptive round budget implied by the ``run`` flags: any of
    ``--adaptive-rounds``, ``--batch``, or ``--stop`` switches the run
    into adaptive mode, so no adaptive flag is ever silently dropped.
    With only ``--batch``, the rounds derive from the case budget
    (``--count`` stays the total ceiling); with only ``--stop``, they
    default to 8."""
    if arguments.adaptive_rounds is not None:
        return arguments.adaptive_rounds
    if arguments.batch is not None:
        return max(1, arguments.count // max(1, arguments.batch))
    if arguments.stop is not None:
        return 8
    return None


def _campaign_adaptive_rounds(arguments) -> Optional[int]:
    """The campaign analogue: budgets are per-cell (``--budgets``), so
    rounds cannot be derived from the single ``--count`` — require the
    explicit flag instead of silently inflating cell ceilings."""
    if arguments.adaptive_rounds is not None:
        return arguments.adaptive_rounds
    if arguments.batch is not None or arguments.stop is not None:
        raise SystemExit(
            "campaign: --batch/--stop configure adaptive cells, whose "
            "round budget cannot be derived from --count (budgets are "
            "per-cell): pass --adaptive-rounds explicitly"
        )
    return None


def _split(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_filters(pairs: List[str]) -> Dict[str, str]:
    from repro.campaign import AXES

    filters: Dict[str, str] = {}
    for pair in pairs:
        axis, separator, value = pair.partition("=")
        if not separator or not value or axis not in AXES:
            raise SystemExit(
                "bad --filter %r: expected AXIS=VALUE with AXIS one of %s"
                % (pair, ", ".join(AXES))
            )
        filters[axis] = value
    return filters


def _campaign_runner(arguments):
    """Build the spec and runner shared by campaign run/status/report."""
    from repro.campaign import CampaignRunner, CampaignSpec

    budgets = _split(arguments.budgets)
    seeds = _split(arguments.seeds)
    restrictions = _split(arguments.restrict)
    spec = CampaignSpec(
        name=arguments.campaign_name,
        cores=tuple(_split(arguments.core) or ("ibex",)),
        attackers=tuple(_split(arguments.attacker) or ("retirement-timing",)),
        templates=tuple(_split(arguments.template) or ("riscv-rv32im",)),
        restrictions=tuple(restrictions) if restrictions else (None,),
        solvers=tuple(_split(arguments.solver) or ("scipy-milp",)),
        generators=tuple(_split(arguments.generator) or ("random",)),
        budgets=tuple(int(budget) for budget in budgets)
        if budgets
        else (arguments.count,),
        seeds=tuple(int(seed) for seed in seeds) if seeds else (arguments.seed,),
        adaptive_rounds=_campaign_adaptive_rounds(arguments),
        batch=arguments.batch,
        stop=arguments.stop,
        verify=arguments.verify,
        retries=arguments.retries,
        shard_timeout=arguments.shard_timeout,
    )
    manifest = (
        arguments.resume if isinstance(arguments.resume, str) else True
    )
    return CampaignRunner(
        spec,
        results_dir=arguments.results_dir,
        cache=not arguments.no_cache,
        executor=_effective_cli_executor(arguments),
        process_budget=arguments.processes,
        shard_size=arguments.shard_size,
        max_parallel_cells=arguments.max_parallel_cells,
        manifest=manifest,
        resume=arguments.resume is not None,
        filters=_parse_filters(arguments.filters),
        trace=arguments.trace,
        keep_results=False,
        progress=lambda event: print(
            "[%d/%d] %s (%s%.3fs)"
            % (
                event.completed_cells,
                event.total_cells,
                event.cell.label(),
                "resumed, " if event.resumed else "",
                event.elapsed_seconds,
            )
        ),
    )


def _run_campaign(arguments) -> int:
    """The ``campaign`` subcommand: run, status, or report."""
    action = arguments.action or "run"
    if action not in _CAMPAIGN_ACTIONS:
        raise SystemExit(
            "unknown campaign action %r (choose from %s)"
            % (action, ", ".join(_CAMPAIGN_ACTIONS))
        )
    runner = _campaign_runner(arguments)
    if action == "status":
        print(runner.status().render())
        return 0
    if action == "report":
        print(runner.report().render())
        return 0
    result = runner.run()
    print()
    print(result.render())
    directory = os.path.join(arguments.results_dir)
    os.makedirs(directory, exist_ok=True)
    summary_path = os.path.join(
        directory, "campaign_%s.txt" % runner.spec.name
    )
    with open(summary_path, "w") as stream:
        stream.write(result.render() + "\n")
    print("summary written to %s" % summary_path)
    return 0


def _workqueue_executor(arguments, tracer=None):
    """A configured broker-side workqueue executor for run/campaign,
    or an actionable exit when nothing binds it to a queue."""
    from repro.service.queue import QueueUnavailableError, resolve_queue_root
    from repro.service.workqueue import WorkQueueExecutor

    try:
        queue_dir = resolve_queue_root(arguments.queue_dir)
    except QueueUnavailableError as error:
        raise SystemExit("--executor workqueue: %s" % error)
    return WorkQueueExecutor(
        processes=arguments.processes,
        queue_dir=queue_dir,
        lease_seconds=arguments.lease,
        embedded_workers=arguments.embedded_workers,
        tracer=tracer,
    )


def _effective_cli_executor(arguments, tracer=None):
    """The --executor value as the pipeline/campaign layers want it:
    the workqueue backend needs broker-side configuration (queue root,
    lease, embedded workers), so it becomes an instance here."""
    if arguments.executor == "workqueue":
        return _workqueue_executor(arguments, tracer=tracer)
    return arguments.executor


def _run_service(arguments) -> int:
    """The ``service`` subcommand: currently just the worker loop."""
    import json

    from repro.service.queue import JobQueue, QueueUnavailableError, resolve_queue_root
    from repro.service.worker import DEFAULT_HEARTBEAT_INTERVAL, JobWorker
    from repro.trace import Tracer

    action = arguments.action or "worker"
    if action not in _SERVICE_ACTIONS:
        raise SystemExit(
            "unknown service action %r (choose from %s)"
            % (action, ", ".join(_SERVICE_ACTIONS))
        )
    if arguments.fault:
        # Arm a fault plan inside this worker process — the fault
        # matrix's bridge across the machine boundary (tests SIGKILL /
        # hang workers this way).
        from repro.resilience.injection import install_fault

        state = json.loads(arguments.fault_state) if arguments.fault_state else {}
        install_fault(arguments.fault, state)
    try:
        root = resolve_queue_root(arguments.queue_dir)
    except QueueUnavailableError as error:
        raise SystemExit("service worker: %s" % error)
    queue = JobQueue(root)
    queue.ensure()
    worker = JobWorker(
        queue,
        worker_id=arguments.worker_id,
        poll_seconds=arguments.poll if arguments.poll is not None else 0.05,
        lease_seconds=arguments.lease,
        max_jobs=arguments.max_jobs,
        idle_timeout=arguments.idle_timeout,
        failure_log_path=arguments.failure_log,
        heartbeat_interval=arguments.heartbeat_interval
        if arguments.heartbeat_interval is not None
        else DEFAULT_HEARTBEAT_INTERVAL,
        tracer=Tracer(arguments.trace or os.path.join(root, "trace.jsonl")),
    )
    completed = worker.run()
    print("worker %s: completed %d job(s)" % (worker.worker_id, completed))
    return 0


def _run_serve(arguments) -> int:
    """The ``serve`` subcommand: the contract-service broker loop."""
    from repro.service import ContractServer, ContractService, ContractStore
    from repro.trace import Tracer

    root = arguments.service_root
    os.makedirs(root, exist_ok=True)
    tracer = Tracer(
        arguments.trace or os.path.join(root, "trace.jsonl"), source="serve"
    )
    store = ContractStore(os.path.join(root, "store"))
    executor = arguments.executor or "serial"
    if executor == "workqueue" and arguments.queue_dir is None:
        # The serve loop owns its queue by default — workers join with
        # `service worker --queue-dir <service-root>/queue`.
        arguments.queue_dir = os.path.join(root, "queue")
    executor = _effective_cli_executor(arguments, tracer=tracer)
    service = ContractService(
        store,
        executor=executor or "serial",
        process_budget=arguments.processes,
        shard_size=arguments.shard_size,
        max_parallel_cells=arguments.max_parallel_cells,
        tracer=tracer,
    )
    server = ContractServer(
        service,
        root,
        poll_seconds=arguments.poll if arguments.poll is not None else 0.2,
        idle_timeout=arguments.idle_timeout,
        max_requests=arguments.max_requests,
    )
    print(
        "serving %s (executor %s%s)"
        % (
            root,
            arguments.executor or "serial",
            ", queue %s" % arguments.queue_dir if arguments.queue_dir else "",
        )
    )
    served = server.serve()
    print("served %d request(s)" % served)
    return 0


def _submit_request(arguments):
    from repro.service import ContractRequest

    budgets = _split(arguments.budgets)
    seeds = _split(arguments.seeds)
    return ContractRequest(
        core=_split(arguments.core) or "ibex",
        attacker=_split(arguments.attacker) or "retirement-timing",
        template=_split(arguments.template) or "riscv-rv32im",
        restriction=_split(arguments.restrict),
        solver=_split(arguments.solver) or "scipy-milp",
        generator=_split(arguments.generator) or "random",
        budget=[int(budget) for budget in budgets] if budgets else arguments.count,
        seed=[int(seed) for seed in seeds] if seeds else arguments.seed,
        verify=arguments.verify,
    )


def _run_submit(arguments) -> int:
    """The ``submit`` subcommand: spool one request, optionally wait."""
    import time

    from repro.service.service import load_ticket, request_states, submit_request

    root = arguments.service_root
    request = _submit_request(arguments)
    request_id = submit_request(root, request)
    if arguments.trace:
        from repro.trace import Tracer

        Tracer(arguments.trace, source="submit").event(
            "submit", request=request_id
        )
    print("submitted %s to %s" % (request_id, root))
    if arguments.wait is None:
        return 0
    deadline = time.time() + arguments.wait
    while True:
        ticket = load_ticket(root, request_id)
        if ticket is not None:
            print(ticket.render())
            return 0
        if request_id in request_states(root)["failed"]:
            raise SystemExit(
                "request %s failed (see %s)"
                % (request_id, os.path.join(root, "requests", "failed"))
            )
        if time.time() > deadline:
            raise SystemExit(
                "request %s not served within %.0fs — is `repro-synthesize "
                "serve --service-root %s` running?"
                % (request_id, arguments.wait, root)
            )
        time.sleep(0.2)


def _run_status(arguments) -> int:
    """The ``status`` subcommand: the spool table, or one ticket."""
    from repro.service.service import load_ticket, render_status

    root = arguments.service_root
    if arguments.action:
        ticket = load_ticket(root, arguments.action)
        if ticket is None:
            raise SystemExit(
                "no finished ticket %r under %s" % (arguments.action, root)
            )
        print(ticket.render())
        return 0
    print(render_status(root))
    return 0


def _run_watch(arguments) -> int:
    """The ``watch`` subcommand: tail a trace file as a live view."""
    from repro.trace import watch

    path = arguments.trace or os.path.join(
        arguments.service_root, "trace.jsonl"
    )
    if not os.path.exists(path):
        raise SystemExit(
            "watch: no trace file at %r — pass --trace PATH (the same "
            "path given to run/campaign/serve), or --service-root DIR "
            "for a service's default <root>/trace.jsonl" % path
        )
    return watch(path, interval=arguments.interval, once=arguments.once)


def _run_report(arguments) -> int:
    """The ``report`` subcommand: a self-contained run report."""
    from repro.metrics import render_report

    if not arguments.trace:
        raise SystemExit("report: pass --trace PATH (the run's trace file)")
    if not os.path.exists(arguments.trace):
        raise SystemExit("report: no trace file at %r" % arguments.trace)
    fmt = arguments.output_format or "markdown"
    try:
        document = render_report(arguments.trace, fmt=fmt)
    except ValueError as error:
        raise SystemExit("report: %s" % error)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as stream:
            stream.write(document)
            if not document.endswith("\n"):
                stream.write("\n")
        print("report written to %s" % arguments.output)
        return 0
    print(document)
    return 0


def _run_trace(arguments) -> int:
    """The ``trace`` subcommand: currently just the chrome export."""
    from repro.trace.export import export_chrome

    action = arguments.action or "export"
    if action not in _TRACE_ACTIONS:
        raise SystemExit(
            "unknown trace action %r (choose from %s)"
            % (action, ", ".join(_TRACE_ACTIONS))
        )
    if not arguments.trace:
        raise SystemExit(
            "trace export: pass --trace PATH (the run's trace file)"
        )
    if not os.path.exists(arguments.trace):
        raise SystemExit("trace export: no trace file at %r" % arguments.trace)
    fmt = arguments.output_format or "chrome"
    if fmt != "chrome":
        raise SystemExit(
            "trace export: unknown format %r (only 'chrome')" % fmt
        )
    output = arguments.output or arguments.trace + ".chrome.json"
    document = export_chrome(arguments.trace, output)
    print(
        "exported %d trace event(s) to %s"
        % (len(document["traceEvents"]), output)
    )
    return 0


def _run_runs(arguments) -> int:
    """The ``runs`` subcommand: list the history index, or diff two."""
    from repro.metrics import diff_runs, load_runs, render_runs, resolve_run
    from repro.metrics.runs import DEFAULT_THRESHOLD, runs_path

    action = arguments.action or "list"
    if action not in _RUNS_ACTIONS:
        raise SystemExit(
            "unknown runs action %r (choose from %s)"
            % (action, ", ".join(_RUNS_ACTIONS))
        )
    runs = load_runs(arguments.results_dir)
    if action == "list":
        print(render_runs(runs))
        return 0
    if len(arguments.extra) != 2:
        raise SystemExit(
            "runs diff: pass exactly two runs (id, id prefix, or "
            "1-based index; -1 = latest), e.g. `repro-synthesize runs "
            "diff -2 -1`"
        )
    if not runs:
        raise SystemExit(
            "runs diff: no recorded runs in %s"
            % runs_path(arguments.results_dir)
        )
    before = resolve_run(runs, arguments.extra[0])
    after = resolve_run(runs, arguments.extra[1])
    threshold = (
        arguments.threshold
        if arguments.threshold is not None
        else DEFAULT_THRESHOLD
    )
    diff = diff_runs(before, after, threshold=threshold)
    print(diff.render())
    return 1 if diff.regressions else 0


def _list_registries(action: Optional[str]) -> int:
    """The ``list`` subcommand, optionally filtered to one registry."""
    if action is not None and action not in REGISTRIES:
        raise SystemExit(
            "unknown registry %r (choose from %s)"
            % (action, ", ".join(REGISTRIES))
        )
    print(describe_registries(only=action))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    arguments = _build_parser().parse_args(argv)
    if arguments.experiment == "list":
        return _list_registries(arguments.action)
    if arguments.experiment == "run":
        return _run_pipeline(arguments)
    if arguments.experiment == "campaign":
        return _run_campaign(arguments)
    if arguments.experiment == "service":
        return _run_service(arguments)
    if arguments.experiment == "serve":
        return _run_serve(arguments)
    if arguments.experiment == "submit":
        return _run_submit(arguments)
    if arguments.experiment == "status":
        return _run_status(arguments)
    if arguments.experiment == "watch":
        return _run_watch(arguments)
    if arguments.experiment == "report":
        return _run_report(arguments)
    if arguments.experiment == "trace":
        return _run_trace(arguments)
    if arguments.experiment == "runs":
        return _run_runs(arguments)

    if arguments.executor == "workqueue":
        # The experiment drivers take the executor by registry name;
        # bind the queue root through the environment (and fail here,
        # actionably, when nothing binds one).
        from repro.service.queue import QueueUnavailableError, resolve_queue_root

        try:
            os.environ["REPRO_QUEUE_DIR"] = resolve_queue_root(arguments.queue_dir)
        except QueueUnavailableError as error:
            raise SystemExit("--executor workqueue: %s" % error)

    kwargs = {"results_dir": arguments.results_dir, "cache": not arguments.no_cache}
    if arguments.scale is not None:
        kwargs["scale"] = arguments.scale
    if arguments.attacker is not None:
        kwargs["attacker"] = arguments.attacker
    if arguments.solver is not None:
        kwargs["solver"] = arguments.solver
    if arguments.executor is not None:
        kwargs["executor"] = arguments.executor
    config = ExperimentConfig(**kwargs)
    core_kwargs = {}
    if arguments.core is not None:
        core_kwargs["core_name"] = arguments.core

    names = (
        list(_EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    )
    for name in names:
        print("== %s ==" % name)
        if name == "fig2":
            print(run_fig2(config, **core_kwargs).render())
        elif name == "fig3":
            print(run_fig3(config, **core_kwargs).render())
        elif name == "table1":
            print(run_table1(config).render())
        elif name == "table2":
            print(run_table2(config).render())
        elif name == "table3":
            print(
                run_table3(
                    config,
                    core_names=[arguments.core] if arguments.core else None,
                ).render()
            )
        print()
    print("results written to %s/" % config.results_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
