"""Command-line entry point: ``repro-synthesize``.

One subcommand per job, each accepting only the flags it reads
(``--help`` after a command lists them).

The paper's experiments take ``--scale``, ``--results-dir``,
``--no-cache``, ``--attacker``, ``--solver``, ``--executor`` and
``--queue-dir``; ``fig2``, ``fig3``, ``table3`` and ``all`` also take
``--core``.  ``list [REGISTRY]`` prints the plugin registries::

    repro-synthesize fig2
    repro-synthesize table1 --scale 2
    repro-synthesize all --results-dir results
    repro-synthesize list templates

``run`` is one ad-hoc pipeline and ``campaign {run,status,report}`` a
resumable grid of them.  Both take the plugin flags (``--core``,
``--attacker``, ``--solver``, ``--template``, ``--restrict``,
``--generator``), the budget (``--count``, ``--seed``, ``--verify``),
the adaptive, resume, retry and executor flags, and ``--trace``.
``campaign`` adds ``--campaign-name``, ``--budgets``, ``--seeds`` and
``--filter``, and takes comma-separated lists on every plugin flag::

    repro-synthesize run --core cva6 --attacker cache-state --count 500
    repro-synthesize run --executor multiprocess --resume --count 100000
    repro-synthesize run --generator coverage --adaptive-rounds 8 --batch 250
    repro-synthesize campaign run --core ibex,cva6 --budgets 500,2000
    repro-synthesize campaign run --resume --filter core=ibex
    repro-synthesize campaign status --core ibex,cva6 --budgets 500,2000

The contract service (see README "Running the contract service"):
``serve`` runs the broker loop, ``service worker`` drains its work
queue, ``submit`` spools one request (plugin and budget flags,
``--wait``) and ``status [REQUEST-ID]`` renders the spool or a ticket::

    repro-synthesize serve --service-root service --executor workqueue
    repro-synthesize service worker --queue-dir service/queue
    repro-synthesize submit --core ibex --count 500 --wait 60
    repro-synthesize status

A ``--trace`` file feeds ``watch`` (a live progress view), ``report``
(a self-contained run report) and ``trace export`` (Chrome-trace JSON
for Perfetto); ``runs {list,diff}`` reads the run-history index under
``--results-dir`` (see README "Run reports & metrics")::

    repro-synthesize run --count 5000 --trace trace.jsonl
    repro-synthesize watch --trace trace.jsonl
    repro-synthesize report --trace trace.jsonl --format html --output run.html
    repro-synthesize trace export --trace trace.jsonl
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

_EXPERIMENTS = {
    "fig2": "Figure 2: contract precision vs. synthesis-set size",
    "fig3": "Figure 3: contract sensitivity vs. synthesis-set size",
    "table1": "Table I: the synthesized Ibex contract",
    "table2": "Table II: the synthesized CVA6 contract",
    "table3": "Table III: runtime breakdown of the toolchain",
}


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return int(text)


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A ``parents=`` parser for flags that several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _build_parser() -> argparse.ArgumentParser:
    # Shared flags, each declared once.  Nested parents never overlap
    # within one command, so argparse adds no flag twice.
    results = _flags()
    results.add_argument(
        "--results-dir", default="results", help="outputs, dataset cache, run history"
    )
    cached = _flags(results)
    cached.add_argument(
        "--no-cache", action="store_true", help="do not cache or reuse datasets"
    )
    core = _flags()
    core.add_argument("--core", help="core model (default: ibex)")
    models = _flags()
    models.add_argument("--attacker", help="attacker (default: retirement-timing)")
    models.add_argument("--solver", help="ILP solver backend (default: scipy-milp)")
    executor = _flags()
    executor.add_argument(
        "--executor",
        choices=REGISTRIES["executors"].names(),
        help="evaluation executor backend (default: in-process evaluation)",
    )
    queue = _flags()
    queue.add_argument(
        "--queue-dir",
        metavar="DIR",
        help="work-queue root shared by broker and workers (default: "
        "REPRO_QUEUE_DIR env; serve owns <service-root>/queue)",
    )
    trace = _flags()
    trace.add_argument(
        "--trace",
        metavar="PATH",
        help="JSONL file that runs append repro.trace records to and that "
        "watch, report and 'trace export' read",
    )
    output = _flags()
    output.add_argument("--output", metavar="PATH", help="write here, not the default")
    service_root = _flags()
    service_root.add_argument(
        "--service-root",
        default="service",
        metavar="DIR",
        help="request spool, contract store and trace (default: service)",
    )

    # What to synthesize: a `run`, each campaign cell, a `submit`.
    pipeline = _flags(core, models)
    pipeline.add_argument("--template", help="template (default: riscv-rv32im)")
    pipeline.add_argument("--restrict", help="template restriction, e.g. IL+RL+ML+AL")
    pipeline.add_argument(
        "--generator", help="test-case generator (random, mutate, coverage)"
    )
    pipeline.add_argument(
        "--count", type=int, default=1000, help="test-case budget (default: 1000)"
    )
    pipeline.add_argument("--seed", type=int, default=0, help="default: 0")
    pipeline.add_argument(
        "--verify",
        type=int,
        metavar="N",
        help="verify with N fresh directed test cases (default: check "
        "the contract against the evaluated dataset)",
    )
    lists = _flags()
    lists.add_argument("--budgets", metavar="N,N,...", help="default: --count")
    lists.add_argument("--seeds", metavar="N,N,...", help="default: --seed")

    # How to evaluate it: the executor and its workqueue broker.
    lease = _flags()
    lease.add_argument(
        "--lease",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="reclaim and requeue a shard claimed longer than this",
    )
    broker = _flags(queue, lease)
    broker.add_argument(
        "--embedded-workers",
        type=int,
        default=0,
        metavar="N",
        help="run N workqueue workers in-process, next to the broker",
    )
    backend = _flags(executor, broker)
    backend.add_argument(
        "--processes",
        type=_positive_int,
        metavar="N",
        help="size of each run's worker pool (default: usable CPUs, at most 8)",
    )
    backend.add_argument(
        "--shard-size",
        type=_positive_int,
        metavar="N",
        help="test cases per evaluation shard (default: 250)",
    )
    polling = _flags()
    polling.add_argument(
        "--poll",
        type=float,
        metavar="SECONDS",
        help="queue/spool poll interval (default: 0.05 worker, 0.2 serve)",
    )
    polling.add_argument(
        "--idle-timeout",
        type=float,
        metavar="SECONDS",
        help="exit after this long with nothing to do",
    )

    experiment = _flags(cached, models, executor, queue)
    experiment.add_argument(
        "--scale", type=float, help="budget multiplier (default: REPRO_SCALE or 1.0)"
    )
    grid = _flags(cached, pipeline, backend, trace)
    grid.add_argument(
        "--adaptive-rounds",
        type=_positive_int,
        metavar="N",
        help="evaluate in an adaptive loop of up to N rounds",
    )
    grid.add_argument(
        "--batch",
        type=_positive_int,
        metavar="N",
        help="test cases per adaptive round (default: --count split evenly)",
    )
    grid.add_argument(
        "--stop",
        metavar="RULE",
        help="adaptive stopping rule (contract-stable, full-coverage, budget)",
    )
    grid.add_argument(
        "--resume",
        nargs="?",
        const=True,
        metavar="PATH",
        help="checkpoint completed shards or cells to the manifest at "
        "PATH and resume from it (default path: derived)",
    )
    grid.add_argument(
        "--retries",
        type=int,
        metavar="N",
        help="retry failing shards and cells up to N times with "
        "deterministic backoff, then quarantine them (default: fail fast)",
    )
    grid.add_argument(
        "--shard-timeout",
        type=float,
        metavar="SECONDS",
        help="soft per-shard deadline: hung shards are rescheduled",
    )

    parser = argparse.ArgumentParser(
        prog="repro-synthesize",
        description="Synthesize hardware-software leakage contracts for the "
        "bundled RISC-V core models and reproduce the paper's experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, parents, summary):
        subparser = commands.add_parser(name, parents=parents, help=summary)
        subparser.set_defaults(handler=handler)
        return subparser

    for name, summary in _EXPERIMENTS.items():
        parents = [experiment] if name in ("table1", "table2") else [experiment, core]
        command(name, _run_experiments, parents, summary)
    command("all", _run_experiments, [experiment, core], "every experiment in turn")
    listing = command("list", _list_registries, [], "print the plugin registries")
    listing.add_argument("registry", nargs="?", choices=list(REGISTRIES))

    command("run", _run_pipeline, [grid], "run one ad-hoc synthesis pipeline")
    campaign = command(
        "campaign",
        _run_campaign,
        [grid, lists],
        "run or inspect a resumable configuration grid",
    )
    campaign.add_argument("action", nargs="?", choices=("run", "status", "report"))
    campaign.add_argument(
        "--campaign-name", default="cli", help="names the cell manifest (default: cli)"
    )
    campaign.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="AXIS=VALUE",
        dest="filters",
        help="only cells matching AXIS=VALUE (repeatable), e.g. core=ibex",
    )

    service = command(
        "service",
        _run_service,
        [queue, lease, polling, trace],
        "'service worker': drain the work queue",
    )
    service.add_argument("action", nargs="?", choices=("worker",))
    service.add_argument(
        "--worker-id", help="identity in leases/heartbeats (default: worker-<pid>)"
    )
    service.add_argument(
        "--heartbeat-interval",
        type=float,
        metavar="SECONDS",
        help="lease-refresh/telemetry interval (default: 2.0)",
    )
    service.add_argument("--max-jobs", type=int, metavar="N", help="exit after N jobs")
    service.add_argument(
        "--failure-log", metavar="PATH", help="quarantine records for failed shards"
    )
    service.add_argument("--fault", metavar="NAME", help="arm a fault plan (testing)")
    service.add_argument("--fault-state", metavar="JSON", help="the plan's kwargs")
    serve = command(
        "serve",
        _run_serve,
        [service_root, backend, polling, trace],
        "run the contract-service broker loop",
    )
    serve.add_argument(
        "--max-requests", type=int, metavar="N", help="exit after serving N requests"
    )
    submit = command(
        "submit",
        _run_submit,
        [service_root, pipeline, lists, trace],
        "spool one contract request",
    )
    submit.add_argument(
        "--wait", type=float, metavar="SECONDS", help="block until the ticket lands"
    )
    status = command("status", _run_status, [service_root], "the spool or a ticket")
    status.add_argument("request_id", nargs="?", metavar="REQUEST-ID")

    watch = command("watch", _run_watch, [service_root, trace], "tail a trace live")
    watch.add_argument("--once", action="store_true", help="render one frame")
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS", help="default: 1.0"
    )
    report = command("report", _run_report, [trace, output], "render a run report")
    report.add_argument(
        "--format",
        default="markdown",
        dest="output_format",
        metavar="FMT",
        help="markdown (default) or html",
    )
    export = command(
        "trace", _run_trace, [trace, output], "'trace export': Chrome-trace JSON"
    )
    export.add_argument("action", nargs="?", choices=("export",))
    export.add_argument(
        "--format", default="chrome", choices=("chrome",), dest="output_format"
    )
    runs = command("runs", _run_runs, [results], "list or diff the run history")
    runs.add_argument("action", nargs="?", choices=("list", "diff"))
    runs.add_argument(
        "run_ids",
        nargs="*",
        metavar="RUN",
        help="diff: two run ids, id prefixes or 1-based indices (-1 = latest)",
    )
    runs.add_argument(
        "--threshold",
        type=float,
        metavar="FRACTION",
        help="relative change flagged as a regression (default: 0.10)",
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
    pipeline.executor(
        _effective_cli_executor(arguments),
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

    budgets = _split(arguments.budgets) or [arguments.count]
    seeds = _split(arguments.seeds) or [arguments.seed]
    spec = CampaignSpec(
        name=arguments.campaign_name,
        cores=tuple(_split(arguments.core) or ("ibex",)),
        attackers=tuple(_split(arguments.attacker) or ("retirement-timing",)),
        templates=tuple(_split(arguments.template) or ("riscv-rv32im",)),
        restrictions=tuple(_split(arguments.restrict) or (None,)),
        solvers=tuple(_split(arguments.solver) or ("scipy-milp",)),
        generators=tuple(_split(arguments.generator) or ("random",)),
        budgets=tuple(int(budget) for budget in budgets),
        seeds=tuple(int(seed) for seed in seeds),
        adaptive_rounds=_campaign_adaptive_rounds(arguments),
        batch=arguments.batch,
        stop=arguments.stop,
        verify=arguments.verify,
        retries=arguments.retries,
        shard_timeout=arguments.shard_timeout,
    )
    return CampaignRunner(
        spec,
        results_dir=arguments.results_dir,
        cache=not arguments.no_cache,
        executor=_effective_cli_executor(arguments),
        processes=arguments.processes,
        shard_size=arguments.shard_size,
        manifest=arguments.resume if isinstance(arguments.resume, str) else True,
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
    """The ``campaign`` subcommand: run (default), status, or report."""
    runner = _campaign_runner(arguments)
    if arguments.action == "status":
        print(runner.status().render())
        return 0
    if arguments.action == "report":
        print(runner.report().render())
        return 0
    result = runner.run()
    print()
    print(result.render())
    os.makedirs(arguments.results_dir, exist_ok=True)
    summary_path = os.path.join(
        arguments.results_dir, "campaign_%s.txt" % runner.spec.name
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
    """The ``service worker`` subcommand: the worker loop."""
    import json

    from repro.service.queue import JobQueue, QueueUnavailableError, resolve_queue_root
    from repro.service.worker import DEFAULT_HEARTBEAT_INTERVAL, JobWorker
    from repro.trace import Tracer

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
    heartbeat = arguments.heartbeat_interval
    if heartbeat is None:
        heartbeat = DEFAULT_HEARTBEAT_INTERVAL
    worker = JobWorker(
        queue,
        worker_id=arguments.worker_id,
        poll_seconds=arguments.poll if arguments.poll is not None else 0.05,
        lease_seconds=arguments.lease,
        max_jobs=arguments.max_jobs,
        idle_timeout=arguments.idle_timeout,
        failure_log_path=arguments.failure_log,
        heartbeat_interval=heartbeat,
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
    if arguments.executor == "workqueue" and arguments.queue_dir is None:
        # The serve loop owns its queue by default — workers join with
        # `service worker --queue-dir <service-root>/queue`.
        arguments.queue_dir = os.path.join(root, "queue")
    executor = _effective_cli_executor(arguments, tracer=tracer)
    service = ContractService(
        store,
        executor=executor or "serial",
        processes=arguments.processes,
        shard_size=arguments.shard_size,
        tracer=tracer,
    )
    server = ContractServer(
        service,
        root,
        poll_seconds=arguments.poll if arguments.poll is not None else 0.2,
        idle_timeout=arguments.idle_timeout,
        max_requests=arguments.max_requests,
    )
    queue = ", queue %s" % arguments.queue_dir if arguments.queue_dir else ""
    print("serving %s (executor %s%s)" % (root, arguments.executor or "serial", queue))
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

        Tracer(arguments.trace, source="submit").event("submit", request=request_id)
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
                "serve --service-root %s` running?" % (request_id, arguments.wait, root)
            )
        time.sleep(0.2)


def _run_status(arguments) -> int:
    """The ``status`` subcommand: the spool table, or one ticket."""
    from repro.service.service import load_ticket, render_status

    root = arguments.service_root
    if arguments.request_id:
        ticket = load_ticket(root, arguments.request_id)
        if ticket is None:
            raise SystemExit(
                "no finished ticket %r under %s" % (arguments.request_id, root)
            )
        print(ticket.render())
        return 0
    print(render_status(root))
    return 0


def _run_watch(arguments) -> int:
    """The ``watch`` subcommand: tail a trace file as a live view."""
    from repro.trace import watch

    path = arguments.trace or os.path.join(arguments.service_root, "trace.jsonl")
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
    try:
        document = render_report(arguments.trace, fmt=arguments.output_format)
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
    """The ``trace export`` subcommand: a Chrome-trace file."""
    from repro.trace.export import export_chrome

    if not arguments.trace:
        raise SystemExit("trace export: pass --trace PATH (the run's trace file)")
    if not os.path.exists(arguments.trace):
        raise SystemExit("trace export: no trace file at %r" % arguments.trace)
    output = arguments.output or arguments.trace + ".chrome.json"
    document = export_chrome(arguments.trace, output)
    print("exported %d trace event(s) to %s" % (len(document["traceEvents"]), output))
    return 0


def _run_runs(arguments) -> int:
    """The ``runs`` subcommand: list the history index (default), or
    diff two of its runs."""
    from repro.metrics import diff_runs, load_runs, render_runs, resolve_run
    from repro.metrics.runs import DEFAULT_THRESHOLD, runs_path

    runs = load_runs(arguments.results_dir)
    if arguments.action != "diff":
        print(render_runs(runs))
        return 0
    if len(arguments.run_ids) != 2:
        raise SystemExit(
            "runs diff: pass exactly two runs (id, id prefix, or "
            "1-based index; -1 = latest), e.g. `repro-synthesize runs "
            "diff -2 -1`"
        )
    if not runs:
        raise SystemExit(
            "runs diff: no recorded runs in %s" % runs_path(arguments.results_dir)
        )
    before = resolve_run(runs, arguments.run_ids[0])
    after = resolve_run(runs, arguments.run_ids[1])
    threshold = (
        arguments.threshold if arguments.threshold is not None else DEFAULT_THRESHOLD
    )
    diff = diff_runs(before, after, threshold=threshold)
    print(diff.render())
    return 1 if diff.regressions else 0


def _list_registries(arguments) -> int:
    """The ``list`` subcommand, optionally filtered to one registry."""
    print(describe_registries(only=arguments.registry))
    return 0


def _run_experiments(arguments) -> int:
    """The experiment subcommands: one figure or table, or ``all``."""
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
    core = getattr(arguments, "core", None)  # table1/table2 take no --core
    core_kwargs = {}
    if core is not None:
        core_kwargs["core_name"] = core

    names = list(_EXPERIMENTS) if arguments.command == "all" else [arguments.command]
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
            print(run_table3(config, core_names=[core] if core else None).render())
        print()
    print("results written to %s/" % config.results_dir)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    arguments = _build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
