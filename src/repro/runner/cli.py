"""Command-line interface for the sweep runner.

Usage (with ``PYTHONPATH=src``)::

    python -m repro.runner list [--tag TAG] [--backend B]
    python -m repro.runner run NAME [NAME ...] [--backend B] [options]
    python -m repro.runner sweep (--tag TAG ... | --all | NAME ...) [options]
    python -m repro.runner explore [--space S] [--strategy NAME] [options]
    python -m repro.runner serve [--workload W] [--arrival A] [--policy P]
                                 [--load R[,R...]] [options]
    python -m repro.runner worker --spool TARGET [--poll S] [--idle-exit S]
    python -m repro.runner spoold --spool DIR [--host H] [--port P]
    python -m repro.runner spool TARGET (--status | --gc [--max-age S]) [--json]
    python -m repro.runner cache (--show | --clear | --prune)

Common options: ``--backend {engine,analytic}`` (event-driven simulation vs
the closed-form fast model), ``--executor {serial,pool,workqueue}`` (the
execution policy; default derived from ``--workers``), ``--workers N``
(parallel worker processes; ``auto`` resolves to the machine's CPU count),
``--spool TARGET`` (the work-queue spool -- a shared directory or a
``tcp://host:port`` job-server URL -- required by ``--executor workqueue``),
``--cache-dir D`` (default ``.repro-cache``), ``--no-cache``, ``--force``
(ignore cache hits but refresh entries), ``--json FILE`` (dump outcomes as
JSON).

``worker`` attaches a detached work-queue worker to a spool: it claims jobs
published by ``--executor workqueue`` sweeps (from this host or any other
sharing the filesystem -- or any host that can reach the ``spoold`` server,
for a ``tcp://`` spool), executes them, and publishes results -- see
``repro.runner.executors`` for the protocol.

``spoold`` serves a local spool directory over TCP
(:mod:`repro.runner.netqueue`): submitters and workers pass the printed
``tcp://host:port`` URL as their ``--spool`` and need no shared filesystem.
``spool`` inspects any spool target: ``--status`` renders queue depth,
claim ages, and per-worker throughput; ``--gc`` sweeps orphaned
result/claim/heartbeat/scratch files older than ``--max-age``.

``explore`` searches a named design space on the analytic proxy backend and
re-certifies the resulting Pareto frontier on the cycle-level engine
(:mod:`repro.explore`); ``--list-spaces`` describes the catalogue.
Every strategy generation is evaluated through the kind's batch runner as
chunk jobs across the executor (``--chunk-size`` sets the points per job)
and cached per chunk; ``--weights latency=..,traffic=..,utilization=..``
ranks the frontier (and halving survivors) by weighted scalarisation
instead of non-domination.

``serve`` simulates live traffic -- open-loop (exponential / bursty /
diurnal arrivals at ``--load`` req/s) or closed-loop (``--clients`` clients
with ``--think`` think time) -- through a batching policy into the analytic
accelerator model (:mod:`repro.serve`); several ``--load`` values sweep a
throughput-latency curve, and ``--recertify M`` engine-verifies the M most
frequent dispatch shapes against the lower-bound + byte-identical-traffic
contract.  ``--list-workloads`` describes the workload catalogue.

All user errors (unknown scenario names, unsupported backends, invalid
worker counts, empty selections) exit with status 2 and a one-line message
on stderr -- never a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import List, Optional

from .cache import DEFAULT_CACHE_DIR, ResultCache, code_version
from .executors import (
    EXECUTOR_NAMES,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    WorkQueueExecutor,
)
from .scenarios import BACKENDS, DEFAULT_BACKEND, REGISTRY
from .sweep import SweepOutcome, run_sweep

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """argparse type for strict counts (``--budget``, ...): an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers_argument(text: str) -> int:
    """argparse type for ``--workers``: an integer >= 1, or ``auto``.

    ``auto`` resolves to ``os.cpu_count()`` at parse time (1 when the count
    cannot be determined), so sweeps scale to the machine without the
    invocation hard-coding its core count.
    """
    if text.strip().lower() == "auto":
        return os.cpu_count() or 1
    return _positive_int(text)


def _chunk_size_argument(text: str):
    """argparse type for ``--chunk-size``: an integer >= 1 (``1`` is one
    scenario per job) or ``auto`` (the adaptive points-per-job heuristic).
    Omitting the flag keeps the default policy: whole-generation batching
    on serial executors, auto-sharding on distributed ones."""
    lowered = text.strip().lower()
    if lowered == "auto":
        return lowered
    return _positive_int(text)


def _seed_argument(text: str) -> Optional[int]:
    """argparse type for ``--seed``: an integer, or ``random`` for a fresh
    entropy-drawn seed (the effective value is always echoed in the output
    and the JSON report, so any run can be replayed by passing it back)."""
    if text.strip().lower() == "random":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid seed {text!r} (expected an integer or 'random')"
        ) from None


def _positive_float(text: str) -> float:
    """argparse type for durations (``--poll``, ...): a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not value > 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _loads_argument(text: str) -> List[float]:
    """argparse type for ``--load``: comma-separated offered loads > 0."""
    loads = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise argparse.ArgumentTypeError(f"empty offered load in {text!r}")
        loads.append(_positive_float(part))
    return loads


#: user-facing objective names accepted by ``--weights``, mapped to the
#: payload keys the explorer's objectives actually read.
_WEIGHT_ALIASES = {
    "latency": "latency_s",
    "traffic": "offchip_bytes",
    "offchip_traffic": "offchip_bytes",
    "utilization": "utilization",
    "throughput": "pipeline_tasks_per_s",
    "area": "area_luts",
    "energy": "energy_j",
}


def _weights_argument(text: str) -> dict:
    """argparse type for ``--weights``: ``latency=2,traffic=1,...``."""
    weights: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, separator, raw = part.partition("=")
        name = name.strip().lower()
        if not separator:
            raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {part!r}")
        if name not in _WEIGHT_ALIASES:
            raise argparse.ArgumentTypeError(
                f"unknown objective {name!r}; known: "
                f"{', '.join(sorted(_WEIGHT_ALIASES))}"
            )
        try:
            value = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid weight {raw!r} for {name!r}"
            ) from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"weights must be finite, got {name}={value:g}"
            )
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"weights must be non-negative, got {name}={value:g}"
            )
        key = _WEIGHT_ALIASES[name]
        if key in weights:
            raise argparse.ArgumentTypeError(f"objective {name!r} given more than once")
        weights[key] = value
    if not weights:
        raise argparse.ArgumentTypeError("no weights given")
    if not any(weights.values()):
        raise argparse.ArgumentTypeError("at least one weight must be positive")
    return weights


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Declarative scenario sweeps over the RSN simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered scenarios")
    list_cmd.add_argument(
        "--tag",
        action="append",
        default=None,
        help="only scenarios carrying this tag (repeatable)",
    )
    list_cmd.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="only scenarios supporting this backend",
    )

    def add_executor_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--executor",
            choices=EXECUTOR_NAMES,
            default=None,
            help="execution policy: serial (in-process), pool "
            "(local multiprocessing pool), or workqueue "
            "(distributed fan-out over a shared --spool "
            "directory); default: derived from --workers "
            "(pool when > 1, else serial)",
        )
        cmd.add_argument(
            "--workers",
            type=_workers_argument,
            default=1,
            metavar="N|auto",
            help="worker processes: an integer >= 1, or 'auto' "
            "for this machine's CPU count; with --executor "
            "workqueue this is the number of *local* "
            "workers the sweep contributes (default: 1, "
            "serial)",
        )
        cmd.add_argument(
            "--spool",
            default=None,
            help="work-queue spool shared with `python -m "
            "repro.runner worker` processes: a shared "
            "directory, or tcp://host:port of a "
            "`spoold` job server (required by "
            "--executor workqueue)",
        )

    def add_chunk_size_option(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--chunk-size",
            type=_chunk_size_argument,
            default=None,
            metavar="N|auto",
            help="how batch-capable kinds shard into chunk "
            "jobs: an explicit points-per-chunk (1 is one "
            "scenario per job) or 'auto' (adaptive, ~32 "
            "jobs per generation, aligned to the design "
            "space's trailing axes); "
            "default: whole-generation batching on "
            "serial executors, auto-sharding on "
            "distributed ones",
        )

    def add_exec_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--backend",
            choices=BACKENDS,
            default=DEFAULT_BACKEND,
            help="execution backend: cycle-level event-driven "
            "engine, or the analytic fast model "
            f"(default: {DEFAULT_BACKEND})",
        )
        add_executor_options(cmd)
        add_chunk_size_option(cmd)
        cmd.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
        )
        cmd.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the result cache entirely",
        )
        cmd.add_argument(
            "--force",
            action="store_true",
            help="re-run even on cache hits (refreshes entries)",
        )
        cmd.add_argument(
            "--json",
            dest="json_path",
            default=None,
            help="write outcomes to this JSON file",
        )

    run_cmd = sub.add_parser("run", help="run scenarios by name")
    run_cmd.add_argument("names", nargs="+", help="scenario names")
    add_exec_options(run_cmd)

    sweep_cmd = sub.add_parser("sweep", help="run a tagged or full sweep")
    sweep_cmd.add_argument("names", nargs="*", help="extra scenario names")
    sweep_cmd.add_argument(
        "--tag",
        action="append",
        default=None,
        help="include every scenario with this tag (repeatable)",
    )
    sweep_cmd.add_argument(
        "--all", action="store_true", help="run the entire catalogue"
    )
    add_exec_options(sweep_cmd)

    explore_cmd = sub.add_parser(
        "explore",
        help="design-space exploration: analytic-proxy search, "
        "engine-verified Pareto frontier",
    )
    explore_cmd.add_argument(
        "--space",
        default="encoder",
        help="design space to search (default: encoder; " "see --list-spaces)",
    )
    explore_cmd.add_argument(
        "--strategy",
        default="halving",
        help="search strategy: grid, random, or halving " "(default: halving)",
    )
    explore_cmd.add_argument(
        "--budget",
        type=_positive_int,
        default=200,
        help="total analytic proxy evaluations " "(default: 200)",
    )
    explore_cmd.add_argument(
        "--verify-top",
        type=int,
        default=8,
        help="frontier points to re-certify on the "
        "engine backend; 0 skips verification "
        "(default: 8)",
    )
    explore_cmd.add_argument(
        "--seed",
        type=_seed_argument,
        default=0,
        metavar="N|random",
        help="RNG seed for random/halving sampling; "
        "'random' draws a fresh seed and echoes it "
        "for replay (default: 0)",
    )
    explore_cmd.add_argument(
        "--weights",
        type=_weights_argument,
        default=None,
        metavar="latency=W,traffic=W,...",
        help="weighted scalarisation of the objectives "
        "(latency, traffic, utilization, throughput, "
        "area, energy): rank the frontier (and "
        "halving survivors) by weighted normalised "
        "score instead of non-domination rank",
    )
    add_executor_options(explore_cmd)
    add_chunk_size_option(explore_cmd)
    explore_cmd.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory " f"(default: {DEFAULT_CACHE_DIR})",
    )
    explore_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely",
    )
    explore_cmd.add_argument(
        "--force", action="store_true", help="re-run even on cache hits"
    )
    explore_cmd.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the full exploration report to this " "JSON file",
    )
    explore_cmd.add_argument(
        "--report",
        dest="report_path",
        default=None,
        help="write the rendered frontier/verification " "tables to this text file",
    )
    explore_cmd.add_argument(
        "--list-spaces",
        action="store_true",
        help="describe the design-space catalogue and " "exit",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="serving-layer simulation: live traffic through a batching "
        "policy into the analytic accelerator model",
    )
    serve_cmd.add_argument(
        "--workload",
        default="encoder-mix",
        help="request-mix workload (default: encoder-mix; "
        "see --list-workloads)",
    )
    serve_cmd.add_argument(
        "--arrival",
        choices=("exponential", "bursty", "diurnal", "closed"),
        default="exponential",
        help="arrival process: open-loop exponential/"
        "bursty/diurnal at --load req/s, or a closed "
        "loop of --clients think-time clients "
        "(default: exponential)",
    )
    serve_cmd.add_argument(
        "--policy",
        choices=("static", "dynamic", "continuous"),
        default="dynamic",
        help="batching policy (default: dynamic)",
    )
    serve_cmd.add_argument(
        "--load",
        type=_loads_argument,
        default=[100.0],
        metavar="R[,R...]",
        help="offered load(s) in req/s; several values "
        "sweep a throughput-latency curve "
        "(default: 100)",
    )
    serve_cmd.add_argument(
        "--requests",
        type=_positive_int,
        default=10000,
        help="requests to simulate per load point " "(default: 10000)",
    )
    serve_cmd.add_argument(
        "--batch-max",
        type=_positive_int,
        default=8,
        help="largest batch a dispatch may take " "(default: 8)",
    )
    serve_cmd.add_argument(
        "--window",
        type=_positive_float,
        default=0.02,
        metavar="SECONDS",
        help="dynamic-policy batching window " "(default: 0.02)",
    )
    serve_cmd.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=1024,
        help="admission-queue bound; arrivals beyond it "
        "are dropped (default: 1024)",
    )
    serve_cmd.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="drop requests that queue longer than this " "(default: no timeout)",
    )
    serve_cmd.add_argument(
        "--users",
        type=_positive_int,
        default=1000,
        help="distinct users behind open-loop traffic "
        "(per-user request mixes; default: 1000)",
    )
    serve_cmd.add_argument(
        "--clients",
        type=_positive_int,
        default=64,
        help="closed-loop clients (default: 64)",
    )
    serve_cmd.add_argument(
        "--think",
        type=_positive_float,
        default=0.1,
        metavar="SECONDS",
        help="closed-loop mean think time (default: 0.1)",
    )
    serve_cmd.add_argument(
        "--seed",
        type=_seed_argument,
        default=0,
        metavar="N|random",
        help="traffic seed; 'random' draws a fresh seed "
        "and echoes it for replay (default: 0)",
    )
    serve_cmd.add_argument(
        "--recertify",
        type=int,
        default=2,
        metavar="M",
        help="engine-verify the M most frequent (class, "
        "batch) dispatches against the lower-bound + "
        "byte-identical-traffic contract; 0 skips "
        "(default: 2)",
    )
    add_executor_options(serve_cmd)
    serve_cmd.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    serve_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely",
    )
    serve_cmd.add_argument(
        "--force", action="store_true", help="re-run even on cache hits"
    )
    serve_cmd.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the serving report (all load points, "
        "curve, certification) to this JSON file",
    )
    serve_cmd.add_argument(
        "--report",
        dest="report_path",
        default=None,
        help="write the rendered tables to this text file",
    )
    serve_cmd.add_argument(
        "--list-workloads",
        action="store_true",
        help="describe the workload catalogue and exit",
    )

    worker_cmd = sub.add_parser(
        "worker", help="attach a work-queue worker to a spool"
    )
    worker_cmd.add_argument(
        "--spool",
        required=True,
        help="spool directory shared with the submitting "
        "sweep (any host on the same filesystem), or "
        "tcp://host:port of a `spoold` job server "
        "(no shared filesystem needed)",
    )
    worker_cmd.add_argument(
        "--poll",
        type=_positive_float,
        default=0.2,
        metavar="SECONDS",
        help="sleep between claim attempts while the " "spool is empty (default: 0.2)",
    )
    worker_cmd.add_argument(
        "--idle-exit",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="exit once the spool has been empty this "
        "long (default: run until interrupted)",
    )
    worker_cmd.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        help="exit after this many jobs (default: " "unbounded)",
    )
    worker_cmd.add_argument(
        "--worker-id",
        default=None,
        help="spool-visible worker identity (default: " "<hostname>-<pid>)",
    )

    spoold_cmd = sub.add_parser(
        "spoold",
        help="serve a spool directory over TCP (the network "
        "work-queue transport; no shared filesystem needed)",
    )
    spoold_cmd.add_argument(
        "--spool",
        required=True,
        help="local directory holding the served queue state "
        "(created if missing; restarting a server on the "
        "same directory resumes the queue)",
    )
    spoold_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="address to bind (default: 127.0.0.1; use "
        "0.0.0.0 to accept remote workers)",
    )
    spoold_cmd.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0, an OS-assigned free "
        "port, echoed on startup)",
    )

    spool_cmd = sub.add_parser(
        "spool", help="inspect (--status) or garbage-collect (--gc) a spool"
    )
    spool_cmd.add_argument(
        "target",
        help="spool directory, or tcp://host:port of a " "`spoold` job server",
    )
    spool_group = spool_cmd.add_mutually_exclusive_group()
    spool_group.add_argument(
        "--status",
        action="store_true",
        help="render queue depth, claim ages, and per-worker "
        "throughput (default)",
    )
    spool_group.add_argument(
        "--gc",
        action="store_true",
        help="sweep orphaned result/claim/heartbeat/scratch "
        "files older than --max-age (pending jobs are "
        "never touched)",
    )
    spool_cmd.add_argument(
        "--max-age",
        type=_positive_float,
        default=3600.0,
        metavar="SECONDS",
        help="GC staleness threshold; files younger than "
        "this -- or belonging to a worker that "
        "heartbeat within it -- are kept "
        "(default: 3600)",
    )
    spool_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the status snapshot (or GC report) as "
        "JSON on stdout instead of the rendered table "
        "-- the exact dict the spool protocol serves, "
        "for dashboards and scripts",
    )

    cache_cmd = sub.add_parser("cache", help="inspect or clean the result cache")
    cache_cmd.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    group = cache_cmd.add_mutually_exclusive_group()
    group.add_argument("--show", action="store_true", help="list entries (default)")
    group.add_argument("--clear", action="store_true", help="delete all entries")
    group.add_argument(
        "--prune",
        action="store_true",
        help="drop stale-code-version, corrupted, and "
        "abandoned entries (never fails: problem "
        "entries are skipped with a warning)",
    )

    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _build_executor(args: argparse.Namespace) -> Executor:
    """Construct the executor the ``--executor/--workers/--spool`` flags
    describe.

    ``--executor`` defaults to the policy a plain worker count implies --
    pool when ``--workers`` exceeds 1, serial otherwise -- so pre-executor
    invocations behave unchanged.  Contradictory combinations raise
    ``ValueError``, which ``main`` reports as an exit-2 user error.
    """
    name = args.executor
    if name is None:
        name = "pool" if args.workers > 1 else "serial"
    if name != "workqueue" and args.spool is not None:
        raise ValueError("--spool is only meaningful with --executor workqueue")
    if name == "serial":
        if args.workers > 1:
            raise ValueError(
                f"--executor serial contradicts --workers "
                f"{args.workers}; drop one of them"
            )
        return SerialExecutor()
    if name == "pool":
        return ProcessPoolExecutor(args.workers)
    if args.spool is None:
        raise ValueError(
            "--executor workqueue requires --spool DIR (the "
            "directory shared with `python -m repro.runner "
            "worker` processes)"
        )
    return WorkQueueExecutor(args.spool, local_workers=args.workers)


def _print_outcomes(outcomes: List[SweepOutcome], wall_s: float, backend: str) -> None:
    name_width = max([len(o.scenario) for o in outcomes] + [8])
    print(f"{'scenario':<{name_width}}  {'source':<6}  {'elapsed':>9}  headline")
    for outcome in outcomes:
        source = "cache" if outcome.cached else "run"
        print(
            f"{outcome.scenario:<{name_width}}  {source:<6}  "
            f"{outcome.elapsed_s:>8.3f}s  {outcome.metric()}"
        )
    fresh = sum(1 for o in outcomes if not o.cached)
    hits = len(outcomes) - fresh
    print(
        f"-- {len(outcomes)} scenario(s) on the {backend} backend: "
        f"{fresh} executed, {hits} cache hit(s), "
        f"wall {wall_s:.2f}s, code version {code_version()}"
    )


def _dump_json(outcomes: List[SweepOutcome], path: str) -> None:
    payload = [
        {
            "scenario": o.scenario,
            "kind": o.kind,
            "backend": o.backend,
            "cached": o.cached,
            "elapsed_s": o.elapsed_s,
            "result": o.result,
        }
        for o in outcomes
    ]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"wrote {len(payload)} outcome(s) to {path}")


def _run_explore(args: argparse.Namespace) -> int:
    """The ``explore`` subcommand: search, verify, report.

    Exit codes: 0 on success, 2 on user errors (unknown space/strategy), and
    1 when any engine-verified frontier point violates the analytic
    lower-bound contract -- the one outcome that means the proxy itself is
    broken, which CI must treat as a failure.
    """
    from repro.analysis.reporting import dse_frontier_table, dse_verification_table
    from repro.explore import (
        get_space,
        get_strategy,
        objectives_for,
        run_exploration,
        spaces,
        validate_weights,
    )

    if args.list_spaces:
        for name in spaces.space_names():
            print(spaces.get_space(name).describe())
        return 0
    try:
        space = get_space(args.space)
        # The space picks the objective axes (chiplet spaces add throughput,
        # area and energy); weights must name one of *those* axes.  Validate
        # before constructing the strategy so the same typo cannot surface
        # as halving's ValueError instead of a clean exit 2.
        objectives = objectives_for(space, args.weights)
        validate_weights(args.weights, objectives)
        # Weighted exploration also selects halving survivors by weighted
        # score instead of non-domination rank, on the space's axes.
        strategy = get_strategy(
            args.strategy,
            weights=args.weights,
            objectives=tuple((o.key, o.sense) for o in objectives),
        )
    except (KeyError, ValueError) as error:
        return _fail(error.args[0])
    if args.verify_top < 0:
        return _fail(f"--verify-top must be >= 0, got {args.verify_top}")
    try:
        executor = _build_executor(args)
    except ValueError as error:
        return _fail(str(error))

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    with executor:
        report = run_exploration(
            space,
            strategy,
            budget=args.budget,
            verify_top=args.verify_top,
            seed=args.seed,
            executor=executor,
            cache=cache,
            force=args.force,
            objectives=objectives,
            weights=args.weights,
            chunk_size=args.chunk_size,
        )

    frontier = dse_frontier_table(report).render()
    verification = dse_verification_table(report).render() if report.verified else ""
    print(frontier)
    if verification:
        print()
        print(verification)
    print(
        f"-- {len(report.frontier)} frontier point(s) from "
        f"{report.evaluations} proxy evaluation(s), "
        f"{len(report.verified)} engine-verified, "
        f"seed {report.seed}, "
        f"wall {report.proxy_wall_s + report.verify_wall_s:.2f}s"
    )
    if args.report_path:
        with open(args.report_path, "w") as handle:
            handle.write(frontier + "\n")
            if verification:
                handle.write("\n" + verification + "\n")
            handle.write(f"\nseed: {report.seed} (replay with --seed "
                         f"{report.seed})\n")
        print(f"wrote frontier report to {args.report_path}")
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
        print(f"wrote exploration report to {args.json_path}")
    if not report.contract_ok:
        bad = [p.point_id for p in report.verified if not p.contract_ok]
        print(
            f"error: verified point(s) {bad} violate the analytic "
            "lower-bound contract",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: simulate, report, re-certify.

    Exit codes: 0 on success, 2 on user errors, and 1 when the engine
    re-certification of the sampled batch mix violates the lower-bound or
    byte-identical-traffic contract (the serving latencies would then rest
    on a broken cost model -- CI must treat it as a failure).
    """
    import random as random_module

    from repro.analysis.reporting import (
        serve_certification_table,
        serve_curve_table,
        serve_summary_table,
    )
    from repro.serve import get_workload, workload_names
    from repro.serve.driver import recertify_batch_mix, run_load_sweep
    from repro.serve.driver import throughput_latency_curve

    if args.list_workloads:
        from repro.serve import WORKLOADS

        for name in workload_names():
            workload = WORKLOADS[name]
            classes = ", ".join(
                f"{cls.name} (w={cls.weight:g})" for cls in workload.classes
            )
            print(f"{name}: {workload.description}")
            print(f"  classes: {classes}")
        return 0
    try:
        get_workload(args.workload)
    except KeyError as error:
        return _fail(error.args[0])
    if args.recertify < 0:
        return _fail(f"--recertify must be >= 0, got {args.recertify}")
    try:
        executor = _build_executor(args)
    except ValueError as error:
        return _fail(str(error))

    seed = args.seed
    if seed is None:
        seed = random_module.SystemRandom().randrange(2**32)
    params = {
        "workload": args.workload,
        "arrival": args.arrival,
        "policy": args.policy,
        "requests": args.requests,
        "batch_max": args.batch_max,
        "window_s": args.window,
        "queue_depth": args.queue_depth,
        "timeout_s": args.timeout,
        "users": args.users,
        "clients": args.clients,
        "think_s": args.think,
        "seed": seed,
    }
    loads = args.load if args.arrival != "closed" else args.load[:1]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    start = time.perf_counter()
    with executor:
        outcomes = run_load_sweep(
            params, loads, executor=executor, cache=cache, force=args.force
        )
        records = []
        if args.recertify:
            records = recertify_batch_mix(
                [o.result for o in outcomes],
                top=args.recertify,
                executor=executor,
                cache=cache,
                force=args.force,
            )
    wall_s = time.perf_counter() - start

    curve = throughput_latency_curve(outcomes)
    sections = [serve_summary_table(outcomes[-1].result).render()]
    if len(outcomes) > 1:
        sections.append(serve_curve_table(curve).render())
    if records:
        sections.append(serve_certification_table(records).render())
    rendered = "\n\n".join(sections)
    print(rendered)
    simulated = sum(o.result["requests"] for o in outcomes)
    print(
        f"-- {simulated} request(s) across {len(outcomes)} load point(s), "
        f"{len(records)} dispatch shape(s) engine-certified, "
        f"seed {seed}, wall {wall_s:.2f}s"
    )
    if args.report_path:
        with open(args.report_path, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote serving report to {args.report_path}")
    if args.json_path:
        payload = {
            "seed": seed,
            "results": [o.result for o in outcomes],
            "curve": curve,
            "certification": records,
        }
        with open(args.json_path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"wrote serving report to {args.json_path}")
    bad = [r for r in records if not (r["bound_ok"] and r["traffic_ok"])]
    if bad:
        shapes = [f"{r['class']}@b{r['batch']}" for r in bad]
        print(
            f"error: dispatch shape(s) {shapes} violate the analytic "
            "lower-bound/traffic contract",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_spoold(args: argparse.Namespace) -> int:
    """The ``spoold`` subcommand: serve a spool directory over TCP until
    interrupted.  Bind failures (port taken, bad host) are user errors."""
    from .netqueue import SpoolServer

    try:
        server = SpoolServer(args.spool, host=args.host, port=args.port)
    except (OSError, OverflowError, ValueError) as error:
        return _fail(f"spoold: cannot bind {args.host}:{args.port}: {error}")
    print(f"spoold serving {server.spool.root} on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("spoold interrupted", file=sys.stderr)
    finally:
        server.close()
    return 0


def _run_spool(args: argparse.Namespace) -> int:
    """The ``spool`` subcommand: live status (default) or GC, over either
    transport -- the target is a directory or a ``tcp://`` server URL."""
    from repro.analysis.reporting import spool_status_table

    from .executors import open_spool
    from .netqueue import NetSpoolError

    target = str(args.target)
    if not target.startswith("tcp://"):
        from pathlib import Path

        if not Path(target).is_dir():
            return _fail(f"spool: no spool directory at {target}")
    try:
        spool = open_spool(target)
    except ValueError as error:
        return _fail(f"spool: {error}")
    try:
        if args.gc:
            report = spool.gc(args.max_age)
            if args.json:
                print(json.dumps(report, indent=1, sort_keys=True))
                return 0
            removed = report["removed"]
            total = sum(removed.values())
            detail = ", ".join(
                f"{count} {category}"
                for category, count in sorted(removed.items())
                if count
            )
            print(
                f"removed {total} file(s) older than "
                f"{report['max_age_s']:g}s"
                + (f" ({detail})" if detail else "")
                + f", kept {report['kept']} current file(s)"
            )
        else:
            status = spool.status()
            if args.json:
                # The machine-readable twin of the table: the untouched
                # status dict (plus the target, so piped output stays
                # self-describing), one JSON object on stdout.
                print(
                    json.dumps(
                        {"target": spool.describe(), **status},
                        indent=1,
                        sort_keys=True,
                    )
                )
                return 0
            print(spool_status_table(status, target=spool.describe()).render())
        return 0
    except NetSpoolError as error:
        return _fail(f"spool: {error}")
    finally:
        spool.close()


def main(argv: Optional[List[str]] = None) -> int:
    from . import library  # noqa: F401 -- populates the registry

    args = _build_parser().parse_args(argv)

    if args.command == "list":
        try:
            scenarios = (
                REGISTRY.select(tags=args.tag, backend=args.backend)
                if (args.tag or args.backend)
                else REGISTRY.select()
            )
        except KeyError as error:
            return _fail(error.args[0])
        name_width = max([len(s.name) for s in scenarios] + [8])
        for scenario in scenarios:
            tags = ",".join(scenario.tags)
            backends = "/".join(REGISTRY.backends(scenario.kind))
            print(
                f"{scenario.name:<{name_width}}  [{tags}]  ({backends})  "
                f"{scenario.description}"
            )
        print(
            f"-- {len(scenarios)} scenario(s); tags: {', '.join(REGISTRY.all_tags())}"
        )
        return 0

    if args.command == "cache":
        cache = ResultCache(args.cache_dir)
        if args.clear:
            print(f"removed {cache.clear()} entrie(s) from {cache.root}")
            return 0
        if args.prune:
            stats = cache.prune()
            for warning in stats.warnings:
                print(f"warning: {warning}", file=sys.stderr)
            print(
                f"pruned {stats.removed} entrie(s) from {cache.root}, "
                f"kept {stats.kept} current entrie(s)"
            )
            return 0
        entries = cache.entries()
        for path in entries:
            print(path)
        print(
            f"-- {len(entries)} entrie(s) in {cache.root}, "
            f"code version {code_version()}"
        )
        return 0

    if args.command == "worker":
        from .worker import default_worker_id, run_worker

        worker_id = args.worker_id or default_worker_id()
        print(f"worker {worker_id} polling spool {args.spool}", flush=True)
        try:
            processed = run_worker(
                args.spool,
                poll_s=args.poll,
                idle_exit_s=args.idle_exit,
                max_jobs=args.max_jobs,
                worker_id=worker_id,
            )
        except KeyboardInterrupt:
            print(f"worker {worker_id} interrupted", file=sys.stderr)
            return 130
        print(f"worker {worker_id} processed {processed} job(s)")
        return 0

    if args.command == "spoold":
        return _run_spoold(args)

    if args.command == "spool":
        return _run_spool(args)

    if args.command == "explore":
        return _run_explore(args)

    if args.command == "serve":
        return _run_serve(args)

    try:
        if args.command == "run":
            # Validate every name up front, but preserve the user's ordering
            # (and duplicates) -- select() would sort and dedup.
            REGISTRY.select(names=args.names)
            scenarios = list(args.names)
        else:  # sweep
            if args.all:
                scenarios = [s.name for s in REGISTRY.select()]
            elif args.tag or args.names:
                scenarios = [
                    s.name for s in REGISTRY.select(names=args.names, tags=args.tag)
                ]
            else:
                return _fail("sweep: pass scenario names, --tag TAG, or --all")
            if not scenarios:
                return _fail(
                    f"sweep: no scenarios matched tags {args.tag}; "
                    "run `python -m repro.runner list` for the catalogue"
                )
    except KeyError as error:
        return _fail(error.args[0])

    try:
        executor = _build_executor(args)
    except ValueError as error:
        return _fail(str(error))
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    start = time.perf_counter()
    try:
        with executor:
            outcomes = run_sweep(
                scenarios,
                cache=cache,
                force=args.force,
                backend=args.backend,
                executor=executor,
                chunk_size=args.chunk_size,
            )
    except KeyError as error:
        return _fail(error.args[0])
    wall_s = time.perf_counter() - start
    _print_outcomes(outcomes, wall_s, args.backend)
    if args.json_path:
        _dump_json(outcomes, args.json_path)
    return 0
