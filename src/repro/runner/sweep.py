"""The sweep front-ends: plan chunk jobs, serve cache hits, execute the rest.

Both front doors plan **chunk jobs** -- ``(kind, params)``, a kind and a
:class:`~repro.analysis.table.ColumnTable` of its points' parameters, the
one job shape every :class:`~repro.runner.executors.Executor` (serial,
local process pool, or the distributed work queue of
:mod:`repro.runner.executors`) carries -- and hand them to one core,
:func:`_evaluate_chunks`, which keys each chunk, serves it from the cache
or ships it, and stores each shipped chunk's entry as its result lands:
every chunk job is one cache entry.  :func:`run_sweep` takes scenario names
(or :class:`Scenario` objects) and plans a batch-capable kind as
contiguous slices of its scenarios, each evaluated in a single
batch-runner call wherever the executor lands it (``chunk_size`` selects
the slicing), and every other kind as one scenario per job -- a chunk of
one, run by its scalar runner.  :func:`evaluate_chunked` is the
parameter-table front door the exploration layer evaluates every
generation through.  Executors receive only JSON-able chunks, so nothing
non-picklable ever crosses a process (or host) boundary and results are
identical however they were computed (in-process, in a pool worker, on
another machine, or read back from the cache -- the determinism and
executor-contract suites assert exactly this).  Chunk results splice back
in submission order, so the outcome is byte-identical to the serial
batched path by the batch-runner equality contract.

Every sweep runs on one execution *backend*: the event-driven ``"engine"``
(cycle-level, slow, exact) or the closed-form ``"analytic"`` fast model
(roofline lower bounds, no event loop, orders of magnitude faster).  The
backend is part of the cache identity, so engine and analytic results never
collide on disk.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .cache import ResultCache, chunk_identity, configure_segment_memo
from .executors import ChunkJob, ChunkResult, Executor, SerialExecutor
from .scenarios import BACKENDS, DEFAULT_BACKEND, REGISTRY, Scenario

if TYPE_CHECKING:
    from ..analysis.table import ColumnTable

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


def _run_each(kind: str, backend: str, params_list: ColumnTable) -> List[dict]:
    """The batch runner of a kind that registers none: its scalar runner,
    once per row of ``params_list`` (each a fresh dict), through
    ``REGISTRY.run`` (which rejects non-dict results)."""
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

    A batch-capable kind runs its batch runner once over the chunk's
    :class:`~repro.analysis.table.ColumnTable` of parameters; any other
    kind runs its scalar runner per point (its chunks hold one point each).
    Module-level and bound only to JSON-able arguments so it crosses pickle
    (pool) and JSON (workqueue) boundaries; the workqueue worker rebuilds
    this exact call from the job payload, the parameter table decoded from
    its wire form.  Returns a :class:`~repro.analysis.table.ColumnTable` of
    the per-point results (in chunk order; a scalar runner's row dicts
    become one) plus the chunk's wall seconds.

    The submitter creates ``segment_memo_dir`` before it submits, so a
    worker on its host or on a shared mount attaches the disk layer.  A
    worker that cannot see the directory (another host, no shared
    filesystem) runs memory-only and creates nothing.
    """
    from ..analysis.table import ColumnTable
    from . import library  # noqa: F401  (populates the kind registry)

    kind, params_list = chunk
    if segment_memo_dir is not None and not os.path.isdir(segment_memo_dir):
        segment_memo_dir = None
    configure_segment_memo(segment_memo_dir)
    runner = REGISTRY.batch_runner(kind, backend) or partial(_run_each, kind, backend)
    start = time.perf_counter()
    results = runner(params_list)
    elapsed_s = time.perf_counter() - start
    if len(results) != len(params_list):
        raise RuntimeError(
            f"batch runner for kind {kind!r} ({backend} backend) returned "
            f"{len(results)} results for {len(params_list)} points"
        )
    return ColumnTable.of(results), elapsed_s


class _Shipped:
    """The chunk jobs a generator yields, drawn one at a time on demand.

    :meth:`~repro.runner.executors.Executor.submit_chunks` consumes its
    chunks lazily, so the first pass pulls each job from ``jobs`` -- which
    keys that chunk and looks it up in the cache -- only when the executor
    asks for it.  The jobs drawn are remembered without their identity texts
    (those belong to :func:`_evaluate_chunks`, which releases them once
    used), so later passes and ``len()`` -- which finishes the first pass
    -- see every shipped chunk, as a list of chunk jobs would show them.

    No executor needs either: the pool lists its input once, the serial
    executor maps over it and the work queue iterates it once.  They are
    here for code that hooks ``submit_chunks`` and reads its chunks after
    the call -- perfbench's trace counters (``perfbench/layers.py``) take
    ``len()`` of the chunks and iterate them again to report
    ``runner.sweep.chunks``, ``runner.executors.jobs`` and
    ``runner.executors.points``.  A plain generator would leave those
    counters broken on ``--trace 1`` runs.
    """

    def __init__(self, jobs: Iterator[ChunkJob]):
        self._jobs = jobs
        self._drawn: List[ChunkJob] = []

    def __iter__(self) -> Iterator[ChunkJob]:
        index = 0
        while True:
            if index < len(self._drawn):
                yield self._drawn[index]
            else:
                job = next(self._jobs, None)
                if job is None:
                    return
                self._drawn.append(ChunkJob(*job[:2]))
                yield job
            index += 1

    def __len__(self) -> int:
        for _ in self:
            pass
        return len(self._drawn)


def _evaluate_chunks(
    chunks: Sequence[ChunkJob],
    executor: Executor,
    backend: str,
    cache: Optional[ResultCache],
    force: bool,
) -> List[Tuple[ColumnTable, float, bool]]:
    """Evaluate ``chunks`` on ``executor``: ``(table, elapsed_s, cached)``
    per chunk, in order -- the one chunk path of :func:`evaluate_chunked`
    and :func:`run_sweep`.

    Chunks are keyed and looked up one at a time, as the executor draws
    them, and each miss is handed over before the next chunk is keyed, so
    on the work queue the first job reaches a worker while later chunks
    are still being keyed; no chunk that hits the cache is shipped
    (``force`` skips the lookups, and fresh entries overwrite).  With a
    cache, each chunk's one identity text
    (:func:`~repro.runner.cache.chunk_identity`) keys it and travels in its
    job, and it is dropped once the chunk's entry is written; without one,
    nothing here encodes the parameters.  Every chunk job is one cache
    entry, written as soon as its result lands -- a work-queue worker's
    entry as the worker wrote it -- while the executor is still computing
    the rest, so a run that fails part way keeps every chunk that finished.

    The segment-memo directory follows the cache: cache-enabled runs persist
    memoized segments next to the cache entries, here and in every worker.
    A cache-less run still shares the in-memory process memo, and
    *detaches* any root an earlier run attached -- otherwise it would keep
    writing into (or crash on a deleted) stale cache directory.
    """
    evaluated: List[Any] = [None] * len(chunks)
    shipped: List[int] = []  # the chunk position of each shipped chunk
    identities: Dict[int, str] = {}  # shipped chunk -> identity, until stored

    def misses() -> Iterator[ChunkJob]:
        for position, (kind, params) in enumerate(chunks):
            identity = None
            if cache is not None:
                identity = chunk_identity(kind, params, backend)
                hit = (
                    None
                    if force
                    else cache.load_chunk(kind, params, backend, identity=identity)
                )
                if hit is not None:
                    evaluated[position] = (
                        hit["results"],
                        hit.get("elapsed_s", 0.0),
                        True,
                    )
                    continue
                identities[len(shipped)] = identity
            shipped.append(position)
            yield ChunkJob(kind, params, identity)

    def store(
        index: int, chunk_result: ChunkResult, entry: Optional[str] = None
    ) -> None:
        kind, params = chunks[shipped[index]]
        results, elapsed_s = chunk_result
        cache.store_chunk(
            kind,
            params,
            results,
            elapsed_s,
            backend=backend,
            identity=identities.pop(index),
            entry=entry,
        )

    segment_memo_dir = str(cache.segments_dir) if cache is not None else None
    configure_segment_memo(segment_memo_dir)
    executor.configure(backend=backend, segment_memo_dir=segment_memo_dir)
    raw = executor.submit_chunks(
        _Shipped(misses()),
        partial(_run_chunk, backend=backend, segment_memo_dir=segment_memo_dir),
        on_result=None if cache is None else store,
    )
    for position, (results, elapsed_s) in zip(shipped, raw):
        evaluated[position] = (results, elapsed_s, False)
    return evaluated


def evaluate_chunked(
    kind: str,
    params_list: Sequence[Dict[str, Any]],
    backend: str = DEFAULT_BACKEND,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    chunk_size: Optional[Union[int, str]] = None,
    align: int = 1,
) -> Tuple[ColumnTable, int]:
    """Evaluate ``params_list`` under ``kind`` in chunk jobs sharded across
    ``executor``, with per-chunk result caching.

    The exploration layer's only evaluation front door: one parameter
    mapping per point, as a :class:`~repro.analysis.table.ColumnTable` (a
    sequence of mappings is read as
    :meth:`~repro.analysis.table.ColumnTable.of` reads it) cut into chunks
    that are slices of it, so no mapping is built until a chunk runs a
    scalar runner -- and one :class:`~repro.analysis.table.ColumnTable` of
    results per call, in
    input order, byte-identical to a single in-process batch call (which
    is exactly what a serial executor with the default ``chunk_size=None``
    performs, and whose table is returned as is).  Several chunks --
    computed tables, work-queue results and cache hits, each decoded from
    the column wire form -- are spliced in order without building a row.
    A kind without a batch runner runs its scalar runner point by point
    inside each chunk (see :func:`_run_chunk`); a kind with no runner at
    all on ``backend`` raises ``KeyError`` before anything executes.
    ``cache`` stores one entry per chunk job (see
    :func:`_evaluate_chunks`), so a warm rerun skips whole chunks without
    executing anything.  ``align`` feeds the auto chunk-size heuristic so
    cache keys stay stable across runs that share a design space.  Returns
    ``(table, cached_points)`` where ``cached_points`` counts points served
    from the chunk cache.
    """
    from ..analysis.table import ColumnTable  # NumPy: imported where used

    _validate_chunk_size(chunk_size)
    REGISTRY.runner(kind, backend)  # fail up front, not inside a worker
    params_list = ColumnTable.of(params_list)
    total = len(params_list)
    if total == 0:
        return ColumnTable(), 0
    if executor is None:
        executor = SerialExecutor()
    size = _group_size(chunk_size, executor, total, align=align)
    chunks = [
        ChunkJob(kind, params_list[start:stop])
        for start, stop in partition_chunks(total, size)
    ]
    evaluated = _evaluate_chunks(chunks, executor, backend, cache, force)
    cached_points = sum(len(table) for table, _, cached in evaluated if cached)
    if len(evaluated) == 1:
        return evaluated[0][0], cached_points
    return ColumnTable.concat([table for table, _, _ in evaluated]), cached_points


def run_sweep(
    scenarios: Sequence[Union[str, Scenario]],
    cache: Optional[ResultCache] = None,
    force: bool = False,
    backend: str = DEFAULT_BACKEND,
    executor: Optional[Executor] = None,
    chunk_size: Optional[Union[int, str]] = None,
) -> List[SweepOutcome]:
    """Execute ``scenarios``, returning one :class:`SweepOutcome` per input.

    Inputs that describe the same work -- the same kind and parameters,
    under any names -- execute once, and each keeps its own name.

    Parameters
    ----------
    executor:
        The :class:`~repro.runner.executors.Executor` that computes the
        cache misses -- ``SerialExecutor()`` when omitted.  The executor's
        lifecycle belongs to the caller (one instance can serve many
        sweeps); ``run_sweep`` only calls ``configure`` +
        ``submit_chunks``.
    cache:
        Optional :class:`ResultCache`, holding one entry per chunk job.
        Hits skip execution entirely; each miss is stored as soon as its
        chunk's result lands, so a sweep that fails part way keeps every
        chunk that finished.
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
    from ..analysis.table import ColumnTable  # NumPy: imported where used

    if backend not in BACKENDS:
        raise KeyError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
    _validate_chunk_size(chunk_size)
    if executor is None:
        executor = SerialExecutor()
    resolved = _resolve(scenarios)
    for scenario in resolved:
        # Fail the whole sweep up front rather than mid-flight in a worker.
        REGISTRY.runner(scenario.kind, backend)
    keys = [scenario.canonical() for scenario in resolved]
    # One scenario per distinct work identity, in first-seen order (the
    # scenario kept may carry any of the identity's names: only its kind and
    # parameters are used).
    distinct = dict(zip(keys, resolved))

    # One job shape: batch-capable kinds group by kind and shard by the
    # ``chunk_size`` policy (shared tallies, vectorized rooflines in one
    # batch call per chunk); every other kind runs as chunks of one, in
    # input order, after them.
    groups: Dict[str, List[str]] = {}
    singles: List[List[str]] = []
    for key, scenario in distinct.items():
        if REGISTRY.batch_runner(scenario.kind, backend) is None:
            singles.append([key])
        else:
            groups.setdefault(scenario.kind, []).append(key)
    members: List[List[str]] = []
    for group in groups.values():
        size = _group_size(chunk_size, executor, len(group))
        for start, stop in partition_chunks(len(group), size):
            members.append(group[start:stop])
    members.extend(singles)
    chunks = [
        ChunkJob(
            distinct[part[0]].kind,
            ColumnTable.of([distinct[key].params for key in part]),
        )
        for part in members
    ]

    done: Dict[str, Tuple[Dict[str, Any], float, bool]] = {}
    evaluated = _evaluate_chunks(chunks, executor, backend, cache, force)
    for part, (results, elapsed_s, cached) in zip(members, evaluated):
        for key, result in zip(part, results):
            done[key] = (result, elapsed_s / len(part), cached)
    return [
        SweepOutcome(scenario.name, scenario.kind, *done[key], backend=backend)
        for key, scenario in zip(keys, resolved)
    ]
