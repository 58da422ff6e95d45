"""The sweep front-end: resolve cache hits, hand the rest to an executor.

:func:`run_sweep` takes scenario names (or :class:`Scenario` objects),
resolves cache hits first, and hands the remaining scenarios to an
:class:`~repro.runner.executors.Executor` -- serial, local process pool, or
the distributed work queue (:mod:`repro.runner.executors`) -- as **chunk
jobs**, the one job shape every executor carries.  Executors receive only
JSON-able ``(kind, [params, ...])`` chunks, so nothing non-picklable ever
crosses a process (or host) boundary and results are identical however they
were computed (in-process, in a pool worker, on another machine, or read
back from the cache -- the determinism and executor-contract suites assert
exactly this).

Every sweep runs on one execution *backend*: the event-driven ``"engine"``
(cycle-level, slow, exact) or the closed-form ``"analytic"`` fast model
(roofline lower bounds, no event loop, orders of magnitude faster).  The
backend is part of the cache identity, so engine and analytic results never
collide on disk.

A batch-capable kind travels as contiguous slices of a generation, each
evaluated in a single batch-runner call wherever the executor lands it
(in-process, pool worker, or a detached workqueue worker); ``chunk_size``
selects how :func:`run_sweep` shards it.  Every other kind travels one
scenario per job -- a chunk of one, run by its scalar runner.
:func:`evaluate_chunked` is the list-of-params front door the exploration
layer evaluates every generation through -- with per-chunk result caching
so warm reruns skip whole chunks.  Chunk results splice back in submission
order, so the outcome is byte-identical to the serial batched path by the
batch-runner equality contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .cache import ResultCache, configure_segment_memo
from .executors import ChunkJob, ChunkResult, Executor, SerialExecutor
from .scenarios import BACKENDS, DEFAULT_BACKEND, REGISTRY, Scenario

__all__ = [
    "SweepOutcome",
    "auto_chunk_size",
    "evaluate_chunked",
    "partition_chunks",
    "resolve_chunk_size",
    "run_sweep",
]

#: ``chunk_size`` policy values accepted everywhere the knob appears (the
#: CLI, :func:`run_sweep`, :func:`evaluate_chunked`):
#:
#: * ``None``      -- default policy: serial executors evaluate the whole
#:   generation in one batch call; distributed executors shard it with
#:   :func:`auto_chunk_size`.
#: * ``"auto"``    -- shard with :func:`auto_chunk_size` on any executor.
#: * ``int >= 1``  -- shard into chunks of exactly this many points
#:   (``1`` is one job per scenario).
CHUNK_SIZE_POLICIES = (None, "auto")


@dataclass
class SweepOutcome:
    """Result of one scenario within a sweep."""

    scenario: str
    kind: str
    result: Dict[str, Any]
    elapsed_s: float
    cached: bool
    backend: str = DEFAULT_BACKEND

    def metric(self) -> str:
        """A compact human-readable headline number for CLI tables."""
        result = self.result
        for key, fmt in (
            ("latency_ms", "{:.3f} ms"),
            ("latency_s", "{:.3e} s"),
            ("gflops", "{:.0f} GFLOPS"),
            ("events", "{} events"),
            ("end_time", "{:.3e} s"),
        ):
            if key in result and result[key] is not None:
                return fmt.format(result[key])
        return f"{len(result)} field(s)"


def _resolve(scenarios: Iterable[Union[str, Scenario]]) -> List[Scenario]:
    resolved = []
    for item in scenarios:
        resolved.append(item if isinstance(item, Scenario) else REGISTRY.get(item))
    return resolved


# ------------------------------------------------------------------ chunking


def partition_chunks(count: int, size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``count`` points in
    chunks of ``size`` (the final chunk may be shorter).

    ``count == 0`` partitions into no chunks; ``size`` larger than
    ``count`` yields a single chunk spanning everything.  Ranges are in
    ascending order -- splicing chunk results back by these ranges
    reproduces the original point order regardless of the order chunks
    *complete* in.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def auto_chunk_size(
    total: int,
    align: int = 1,
    target_jobs: int = 32,
    floor: int = 16,
    ceiling: int = 4096,
) -> int:
    """The adaptive chunk size ``--chunk-size auto`` resolves to.

    Targets ``target_jobs`` jobs over ``total`` points -- enough fan-out to
    keep a realistic worker fleet busy with several chunks each (so a slow
    host sheds work to fast ones), few enough that per-job spool overhead
    stays negligible against a batch call.  ``floor`` keeps tiny
    generations from fragmenting into pointless jobs and ``ceiling`` bounds
    job-file size (a chunk ships its params as JSON).  ``align`` rounds the
    size to a multiple of the design space's trailing-axis block (see
    :meth:`repro.explore.space.DesignSpace.chunk_alignment`), so chunks cut
    along axis boundaries and batch evaluators see maximal shared leading
    structure.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if align < 1:
        raise ValueError(f"align must be >= 1, got {align}")
    size = min(max(floor, math.ceil(total / target_jobs)), ceiling)
    if align > 1:
        size = max(align, round(size / align) * align)
        size = min(size, max(align, ceiling))
    return max(1, min(size, total))


def resolve_chunk_size(
    chunk_size: Optional[Union[int, str]], total: int, align: int = 1
) -> int:
    """Map a ``chunk_size`` policy value to a concrete size for ``total``
    points."""
    _validate_chunk_size(chunk_size)
    if chunk_size is None or chunk_size == "auto":
        return auto_chunk_size(total, align=align)
    return min(int(chunk_size), max(total, 1))


def _validate_chunk_size(chunk_size: Optional[Union[int, str]]) -> None:
    if chunk_size in CHUNK_SIZE_POLICIES:
        return
    if (
        isinstance(chunk_size, int)
        and not isinstance(chunk_size, bool)
        and chunk_size >= 1
    ):
        return
    raise ValueError(
        f"chunk_size must be None, 'auto', or an int >= 1; "
        f"got {chunk_size!r}"
    )


def _group_size(
    chunk_size: Optional[Union[int, str]],
    executor: Executor,
    total: int,
    align: int = 1,
) -> int:
    """Points per chunk for a batch-capable group of ``total`` points: the
    whole group in one batch call on a serial executor under the default
    policy, else :func:`resolve_chunk_size`."""
    if chunk_size is None and isinstance(executor, SerialExecutor):
        return total
    return resolve_chunk_size(chunk_size, total, align=align)


def _run_each(kind: str, backend: str, params_list: List[Dict[str, Any]]) -> List[dict]:
    """The batch runner of a kind that registers none: its scalar runner,
    once per point, through ``REGISTRY.run`` (which rejects non-dict
    results)."""
    return [
        REGISTRY.run(Scenario(name=kind, kind=kind, params=params), backend=backend)
        for params in params_list
    ]


def _run_chunk(
    chunk: ChunkJob,
    backend: str = DEFAULT_BACKEND,
    segment_memo_dir: Optional[str] = None,
) -> ChunkResult:
    """Worker entry point: execute one chunk job -- the only job shape.

    A batch-capable kind runs its batch runner once over the chunk; any
    other kind runs its scalar runner per point (its chunks hold one point
    each).  Module-level and bound only to JSON-able arguments so it
    crosses pickle (pool) and JSON (workqueue) boundaries; the workqueue
    worker rebuilds this exact call from the job payload.  Returns the
    per-point results (in chunk order) plus the chunk's wall seconds.
    """
    from . import library  # noqa: F401  (populates the kind registry)

    kind, params_list = chunk
    configure_segment_memo(segment_memo_dir)
    runner = REGISTRY.batch_runner(kind, backend) or partial(_run_each, kind, backend)
    start = time.perf_counter()
    results = runner([dict(params) for params in params_list])
    elapsed_s = time.perf_counter() - start
    if len(results) != len(params_list):
        raise RuntimeError(
            f"batch runner for kind {kind!r} ({backend} backend) returned "
            f"{len(results)} results for {len(params_list)} points"
        )
    return results, elapsed_s


def evaluate_chunked(
    kind: str,
    params_list: Sequence[Dict[str, Any]],
    backend: str = DEFAULT_BACKEND,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    chunk_size: Optional[Union[int, str]] = None,
    align: int = 1,
) -> Tuple[List[Dict[str, Any]], int]:
    """Evaluate ``params_list`` under ``kind`` in chunk jobs sharded across
    ``executor``, with per-chunk result caching.

    The exploration layer's only evaluation front door: one parameter
    mapping per point, results returned in input order, byte-identical to a
    single in-process batch call (which is exactly what a serial executor
    with the default ``chunk_size=None`` performs).  A kind without a batch
    runner runs its scalar runner point by point inside each chunk (see
    :func:`_run_chunk`); a kind with no runner at all on ``backend`` raises
    ``KeyError`` before anything executes.  ``cache`` stores one entry per
    *chunk*, keyed like per-scenario entries (canonical params + backend +
    code version -- see :meth:`~repro.runner.cache.ResultCache.chunk_key`),
    so a warm rerun skips whole chunks without executing anything;
    ``align`` feeds the auto chunk-size heuristic so cache keys stay stable
    across runs that share a design space.  Returns ``(results,
    cached_points)`` where ``cached_points`` counts points served from the
    chunk cache.
    """
    _validate_chunk_size(chunk_size)
    REGISTRY.runner(kind, backend)  # fail up front, not inside a worker
    params_list = list(params_list)
    total = len(params_list)
    if total == 0:
        return [], 0
    if executor is None:
        executor = SerialExecutor()
    size = _group_size(chunk_size, executor, total, align=align)
    segment_memo_dir = str(cache.segments_dir) if cache is not None else None
    results: List[Optional[Dict[str, Any]]] = [None] * total
    pending: List[Tuple[int, int]] = []
    cached_points = 0
    for start, stop in partition_chunks(total, size):
        part = params_list[start:stop]
        payload = (
            None
            if (cache is None or force)
            else cache.load_chunk(kind, part, backend=backend)
        )
        if payload is not None:
            results[start:stop] = payload["results"]
            cached_points += stop - start
        else:
            pending.append((start, stop))
    if pending:
        configure_segment_memo(segment_memo_dir)
        executor.configure(backend=backend, segment_memo_dir=segment_memo_dir)
        chunks: List[ChunkJob] = [
            (kind, [dict(params) for params in params_list[start:stop]])
            for start, stop in pending
        ]
        raw = executor.submit_chunks(
            chunks,
            partial(_run_chunk, backend=backend, segment_memo_dir=segment_memo_dir),
        )
        for (start, stop), (chunk_results, elapsed_s) in zip(pending, raw):
            results[start:stop] = chunk_results
            if cache is not None:
                cache.store_chunk(
                    kind,
                    params_list[start:stop],
                    chunk_results,
                    elapsed_s,
                    backend=backend,
                )
    return results, cached_points


def run_sweep(
    scenarios: Sequence[Union[str, Scenario]],
    cache: Optional[ResultCache] = None,
    force: bool = False,
    backend: str = DEFAULT_BACKEND,
    executor: Optional[Executor] = None,
    chunk_size: Optional[Union[int, str]] = None,
) -> List[SweepOutcome]:
    """Execute ``scenarios``, returning one :class:`SweepOutcome` per input.

    Parameters
    ----------
    executor:
        The :class:`~repro.runner.executors.Executor` that computes the
        cache misses -- ``SerialExecutor()`` when omitted.  The executor's
        lifecycle belongs to the caller (one instance can serve many
        sweeps); ``run_sweep`` only calls ``configure`` +
        ``submit_chunks``.
    cache:
        Optional :class:`ResultCache`.  Hits skip execution entirely; misses
        are stored after execution.
    force:
        Re-run scenarios even when the cache holds a valid entry (the fresh
        result overwrites it).
    backend:
        Execution backend for every scenario in the sweep (``"engine"`` or
        ``"analytic"``).  Scenarios whose kind does not support the backend
        raise ``KeyError`` before anything executes.
    chunk_size:
        How batch-capable kinds shard into chunk jobs -- one of
        :data:`CHUNK_SIZE_POLICIES` or an explicit ``int``.  The default
        (``None``) keeps serial sweeps on the whole-generation batched path
        and auto-shards on every other executor; ``1`` ships one scenario
        per job.  Kinds without a batch runner always run one scenario per
        chunk, in input order.
    """
    if backend not in BACKENDS:
        raise KeyError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
    _validate_chunk_size(chunk_size)
    if executor is None:
        executor = SerialExecutor()
    resolved = _resolve(scenarios)
    for scenario in resolved:
        # Fail the whole sweep up front rather than mid-flight in a worker.
        REGISTRY.runner(scenario.kind, backend)

    # Outcomes are keyed by (name, canonical identity) so duplicate inputs
    # execute once, while two ad-hoc scenarios that share a name but differ
    # in parameters stay distinct.
    def _key(scenario: Scenario) -> Tuple[str, str]:
        return scenario.name, scenario.canonical()

    outcomes: Dict[Tuple[str, str], SweepOutcome] = {}
    to_run: List[Scenario] = []
    seen: Set[Tuple[str, str]] = set()
    for scenario in resolved:
        key = _key(scenario)
        # Membership in the seen-keys set (not a scan of ``to_run``, which
        # would make resolution quadratic in the sweep size) decides
        # duplicates exactly once per input.
        if key in seen:
            continue
        seen.add(key)
        payload = (
            None if (cache is None or force) else cache.load(scenario, backend=backend)
        )
        if payload is not None:
            outcomes[key] = SweepOutcome(
                scenario=scenario.name,
                kind=scenario.kind,
                result=payload["result"],
                elapsed_s=payload.get("elapsed_s", 0.0),
                cached=True,
                backend=backend,
            )
        else:
            to_run.append(scenario)

    if to_run:
        # Cache-enabled sweeps persist memoized segments next to the
        # scenario entries; cache-less sweeps still share the in-memory
        # process memo between scenarios.  Configured unconditionally so a
        # cache-less sweep *detaches* any root a previous sweep attached --
        # otherwise it would keep writing into (or crash on a deleted)
        # stale cache directory.
        segment_memo_dir = str(cache.segments_dir) if cache is not None else None
        configure_segment_memo(segment_memo_dir)
        # One job shape: batch-capable kinds group by kind and shard by the
        # ``chunk_size`` policy (shared tallies, vectorized rooflines in one
        # batch call per chunk); every other kind runs as chunks of one, in
        # input order, after them.
        groups: Dict[str, List[Scenario]] = {}
        singles: List[List[Scenario]] = []
        for scenario in to_run:
            if REGISTRY.batch_runner(scenario.kind, backend) is None:
                singles.append([scenario])
            else:
                groups.setdefault(scenario.kind, []).append(scenario)
        members: List[List[Scenario]] = []
        for group in groups.values():
            size = _group_size(chunk_size, executor, len(group))
            for start, stop in partition_chunks(len(group), size):
                members.append(group[start:stop])
        members.extend(singles)
        executor.configure(backend=backend, segment_memo_dir=segment_memo_dir)
        raw = executor.submit_chunks(
            [(part[0].kind, [dict(s.params) for s in part]) for part in members],
            partial(_run_chunk, backend=backend, segment_memo_dir=segment_memo_dir),
        )
        for part, (results, elapsed_s) in zip(members, raw):
            per_point = elapsed_s / len(part)
            for scenario, result in zip(part, results):
                outcomes[_key(scenario)] = SweepOutcome(
                    scenario=scenario.name,
                    kind=scenario.kind,
                    result=result,
                    elapsed_s=per_point,
                    cached=False,
                    backend=backend,
                )
                if cache is not None:
                    cache.store(scenario, result, per_point, backend=backend)

    return [outcomes[_key(scenario)] for scenario in resolved]
