"""Pluggable execution executors: serial, process pool, distributed work queue.

:func:`~repro.runner.sweep.run_sweep` delegates the *execution policy* --
how the scenarios that missed the cache actually get computed -- to an
:class:`Executor`.  Three implementations ship:

* :class:`SerialExecutor` -- run every job in-process, in order.
* :class:`ProcessPoolExecutor` -- fan out over a local ``multiprocessing``
  pool (including the per-worker segment-memo re-attachment).
* :class:`WorkQueueExecutor` -- fan out to *detached* worker processes over
  a **spool transport**.  The filesystem transport is a shared spool
  directory (:class:`Spool`): workers can run on any host that shares the
  filesystem (``python -m repro.runner worker --spool DIR``); the executor
  enqueues JSON job files, workers claim them by atomic rename, results come
  back as JSON files, and a heartbeat/orphan-requeue protocol recovers jobs
  whose worker died mid-flight.  The network transport
  (:mod:`repro.runner.netqueue`) speaks the same contract to a ``python -m
  repro.runner spoold`` job server over TCP (``--spool tcp://host:port``),
  so submitters and workers need no shared filesystem at all.
  :func:`open_spool` maps a path or URL to the right transport.

The contract every executor honours is the repository-wide determinism
contract: workers receive only JSON-able jobs, and results are
byte-identical however they were computed (in-process, in a pool worker, or
on another host).  ``tests/differential/test_executor_contract.py`` pins
serial == pool == workqueue differentially.

Executors carry one job shape, the **chunk job**
(:meth:`Executor.submit_chunks`): a ``(kind, [params, ...])`` pair.  A
batch-capable kind ships contiguous slices of a generation, each evaluated
in a single batch-runner call wherever the job lands, so fanning out a
sharded generation costs one job per *chunk* instead of one per point and
the >100x batched-evaluation win survives distribution.  Any other kind
ships one scenario per job: a chunk of one, run by its scalar runner.
``tests/differential/test_chunk_contract.py`` pins chunked results
byte-identical to the serial batched path across every executor.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import (
    EncodedJob,
    chunk_job,
    code_version,
    decode_result,
    read_json_object,
    write_json_atomic,
)
from .scenarios import DEFAULT_BACKEND

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "Spool",
    "WorkQueueExecutor",
    "format_job_id",
    "open_spool",
]


class ChunkJob(tuple):
    """One **chunk job**, ``(kind, params)``: a scenario kind plus the
    parameter mappings of a contiguous slice of points -- one point for a
    kind without a batch runner.  A plain ``(kind, params)`` tuple is a
    chunk job too.

    ``params_text`` is the chunk's canonical params text
    (:func:`repro.runner.cache.encode_params`) when the submitter built it
    already to key the chunk, else ``None``; the work queue ships it rather
    than encoding the parameters again.  It never leaves the submitting
    process: a chunk job pickles (into a pool worker) as a plain tuple.
    """

    def __new__(
        cls,
        kind: str,
        params: List[Dict[str, Any]],
        params_text: Optional[str] = None,
    ) -> "ChunkJob":
        job = super().__new__(cls, (kind, params))
        job.params_text = params_text
        return job

    def __reduce__(self):
        return tuple, (tuple(self),)


#: what executing one chunk yields: the per-point result dicts (in the
#: chunk's own order) and the chunk's wall seconds.
ChunkResult = Tuple[List[Dict[str, Any]], float]

#: ``run_chunk_fn(chunk) -> (results, elapsed_s)`` -- the chunk work
#: function; :func:`repro.runner.sweep` passes a pre-bound ``_run_chunk``.
RunChunkFn = Callable[[ChunkJob], ChunkResult]

#: ``on_result(index, chunk_result, results_text)`` -- called once per chunk
#: as its result lands; :func:`repro.runner.sweep` stores the chunk's cache
#: entry in it.  ``results_text`` is the JSON text the chunk's results were
#: decoded from when they arrived as text (the work queue), else ``None``.
OnResult = Callable[[int, ChunkResult, Optional[str]], None]


def _deliver(
    results: Iterable[ChunkResult], on_result: Optional[OnResult]
) -> List[ChunkResult]:
    """Collect in-order ``results``, handing each to ``on_result`` first."""
    delivered: List[ChunkResult] = []
    for index, chunk_result in enumerate(results):
        if on_result is not None:
            on_result(index, chunk_result, None)
        delivered.append(chunk_result)
    return delivered


class Executor:
    """Execution policy for the chunk jobs of one sweep.

    Lifecycle: :func:`run_sweep` calls :meth:`configure` (backend plus the
    segment-memo directory the sweep attached) before every
    :meth:`submit_chunks`, so one executor instance can serve many sweeps --
    an exploration reuses its executor across every proxy generation and
    the engine verification pass.  Executors holding external resources
    (the work queue's local worker processes) release them in
    :meth:`close`; all executors are context managers (``with
    make_executor(...) as ex: ...``).
    """

    name = "abstract"

    def __init__(self) -> None:
        self.backend: str = DEFAULT_BACKEND
        self.segment_memo_dir: Optional[str] = None

    # ------------------------------------------------------------- lifecycle

    def configure(self, backend: str, segment_memo_dir: Optional[str]) -> None:
        """Per-sweep wiring: execution backend and on-disk segment-memo root.

        Both travel with every job so out-of-process workers reproduce the
        submitting process's memo configuration exactly.
        """
        self.backend = backend
        self.segment_memo_dir = segment_memo_dir

    def close(self) -> None:
        """Release external resources; idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- execution

    def submit_chunks(
        self,
        chunks: Iterable[ChunkJob],
        run_chunk_fn: RunChunkFn,
        on_result: Optional[OnResult] = None,
    ) -> List[ChunkResult]:
        """Execute **chunk jobs**, returning one :data:`ChunkResult` per
        input, in input order.

        ``chunks`` is any iterable, consumed once and lazily: a chunk is
        pulled only when the executor is ready to start or ship it, so the
        sweep layer can key and look up the next chunk in the cache while
        the ones before it already run.  The base implementation runs every
        chunk in-process, in order, which is exactly the serial policy;
        fan-out executors override it to ship each chunk as a single unit
        of distributed work.  The determinism contract extends to chunks:
        each per-point result is byte-identical to what the scalar runner
        would have produced, so splicing chunk results back in submission
        order reproduces the serial path exactly.

        ``on_result(index, chunk_result, results_text)``, when given, is
        called exactly once per chunk, before this returns, as soon as that
        chunk's result is available -- ``index`` is the chunk's position in
        ``chunks``, ``chunk_result`` the same tuple the returned list holds
        there, and ``results_text`` the JSON text of its results when they
        arrived as text (else ``None``).  Calls come in completion order,
        which need not be input order, and always in the submitting
        process, so the sweep layer writes each chunk's cache entry while
        later chunks are still computing.  An exception raised by
        ``on_result`` (or by ``chunks``) propagates out of this call (a
        fan-out executor withdraws the rest of the batch first).
        """
        return _deliver(map(run_chunk_fn, chunks), on_result)


class SerialExecutor(Executor):
    """Run every job in-process, in order -- the zero-overhead policy."""

    name = "serial"


class ProcessPoolExecutor(Executor):
    """Fan chunk jobs out over a local ``multiprocessing`` pool.

    A pool is created per :meth:`submit_chunks` call and sized to
    ``min(workers, len(chunks))`` -- so this executor draws every chunk
    from its input before it starts; single-chunk (or single-worker)
    submissions run serially in-process, so a pool executor never pays fork
    overhead it cannot amortise.  ``run_chunk_fn`` crosses the process
    boundary pickled, which is why :func:`run_sweep` binds only
    module-level functions and JSON-able arguments into it; the
    segment-memo directory bound into it re-attaches the on-disk memo layer
    inside every pool worker.  Results come back through ``pool.imap``, so
    ``on_result`` sees each chunk while the pool still computes later ones.
    """

    name = "pool"

    def __init__(self, workers: int):
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def submit_chunks(
        self,
        chunks: Iterable[ChunkJob],
        run_chunk_fn: RunChunkFn,
        on_result: Optional[OnResult] = None,
    ) -> List[ChunkResult]:
        chunks = list(chunks)
        if self.workers > 1 and len(chunks) > 1:
            import multiprocessing

            processes = min(self.workers, len(chunks))
            with multiprocessing.Pool(processes=processes) as pool:
                return _deliver(pool.imap(run_chunk_fn, chunks), on_result)
        return super().submit_chunks(chunks, run_chunk_fn, on_result)


# ----------------------------------------------------------------- work queue


def _sanitize_id(identifier: str) -> str:
    """Restrict worker/job identifiers to filesystem-safe characters."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", identifier)


#: valid segment-memo keys on the wire.  Real keys are ``workload-`` plus a
#: hex digest; the spool stores entries opaquely, so this only keeps every
#: key a safe ``memo/`` filename (defence against a hostile or broken peer).
_MEMO_KEY_RE = re.compile(r"[A-Za-z0-9-]{1,100}")


#: zero-padding width of the per-batch job index.  Job ids must sort
#: lexicographically in submission order (``Spool.claim`` hands out the
#: smallest id first), so the width bounds the batch size: 8 digits keeps
#: ordering intact out to 10^8 jobs per submission -- two orders of
#: magnitude past the largest design-space sweeps on the roadmap.  (The old
#: 5-digit width silently broke claim ordering at 100k jobs.)
_JOB_INDEX_WIDTH = 8

#: characters of job text :meth:`WorkQueueExecutor._publish` holds back at
#: most before it publishes them (a chunk of a design-space generation is
#: larger on its own, so those chunks ship one by one).  The value is not
#: tuned: 8 KiB and 1 MiB measured the same as 64 KiB within noise on
#: ``benchmarks/bench_publish_batching.py``'s workload.
_PUBLISH_BYTES = 1 << 16


def format_job_id(batch: str, index: int) -> str:
    """The id of job ``index`` of submission ``batch``; lexicographic order
    over one batch's ids equals submission order for up to ``10 **
    _JOB_INDEX_WIDTH`` jobs."""
    return f"{batch}.{index:0{_JOB_INDEX_WIDTH}d}"


def open_spool(target: os.PathLike) -> "Spool":
    """Map a spool *target* -- a directory path, or a ``tcp://host:port``
    job-server URL -- to the transport that speaks it.

    Everything that accepts a spool (the work-queue executor, the worker
    loop, the ``spool`` maintenance CLI) routes through here, so the network
    transport is selectable anywhere a spool directory is today.
    """
    text = os.fspath(target) if not isinstance(target, str) else target
    if isinstance(text, str) and text.startswith("tcp://"):
        from .netqueue import NetSpool

        return NetSpool(text)
    return Spool(target)


@dataclass(frozen=True)
class _ClaimedJob:
    """One claimed spool job: its id and the claim file holding its payload."""

    job_id: str
    path: Path

    def read(self) -> str:
        """The raw job text; raises ``FileNotFoundError`` when the claim
        vanished under us (orphan-requeued away by the submitter)."""
        return self.path.read_text()


class Spool:
    """The on-disk work-queue protocol shared by submitters and workers.

    Layout (all under one *spool root*, which must live on a filesystem
    every participating host shares)::

        <spool>/pending/<job>.json            jobs awaiting a claim
        <spool>/claimed/<job>@@<worker>.json  jobs being executed
        <spool>/results/<job>.json            finished jobs (result or error)
        <spool>/workers/<worker>.json         worker heartbeat files

    The protocol rests on one primitive: **atomic rename**.  A worker claims
    a job by renaming ``pending/<job>.json`` to its worker-unique name under
    ``claimed/`` -- exactly one rename of a given source can succeed, so a
    job is never executed by two workers that both believe they own it; the
    losing worker gets ``FileNotFoundError`` and moves on to the next file.
    Results and jobs are written via tempfile + rename in the same
    directory, so a reader never sees a partial JSON file.

    Liveness: every worker touches ``workers/<worker>.json`` on a heartbeat
    interval.  The submitter treats a claimed job whose worker heartbeat
    (or, for a worker that never heartbeat, the claim file itself) is older
    than the orphan timeout as abandoned, and requeues it by renaming the
    claim file back to ``pending/`` -- the claim file *is* the job payload,
    so requeueing loses nothing.  If the worker was merely slow and finishes
    anyway, the duplicated execution is harmless: results are byte-identical
    by the determinism contract, and result files are keyed by job id.

    Multiple submitters may share one spool: job ids are prefixed with a
    per-submission unique batch id, and each submitter only collects (and
    requeues) its own jobs.

    This class is also the reference implementation of the **spool
    transport** contract -- the method surface
    (``ensure``/``enqueue``/``claim``/``finish``/``take_results``/
    ``requeue_orphans``/``beat``/``live_workers``/``abandon``/``status``/
    ``gc``) the work-queue executor and the worker loop program against.
    :class:`repro.runner.netqueue.NetSpool` implements the same surface over
    a TCP job server, so neither side needs a shared filesystem;
    :func:`open_spool` selects the transport from the spool target.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        # Claim-order cache: one sorted directory listing amortised over many
        # claims (see ``claim``), instead of re-globbing the whole pending
        # directory per claim (O(n^2) over a large backlog).
        self._pending_cache: List[Path] = []

    # ---------------------------------------------------------------- layout

    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def claimed_dir(self) -> Path:
        return self.root / "claimed"

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def workers_dir(self) -> Path:
        return self.root / "workers"

    @property
    def memo_dir(self) -> Path:
        return self.root / "memo"

    def ensure(self) -> "Spool":
        """Create the spool layout; safe to call from every participant."""
        for directory in (
            self.pending_dir,
            self.claimed_dir,
            self.results_dir,
            self.workers_dir,
            self.memo_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    def describe(self) -> str:
        """Human-readable spool target for error messages and logs."""
        return str(self.root)

    def close(self) -> None:
        """Release transport resources; a directory spool holds none."""

    def worker_log_dir(self) -> Path:
        """Where locally spawned worker processes should write their logs."""
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        return self.workers_dir

    # ------------------------------------------------------------------ jobs

    def enqueue(self, job_id: str, payload: Any) -> Path:
        """Publish one job file atomically; returns its pending path.

        ``payload`` is a job object, an
        :class:`~repro.runner.cache.EncodedJob`, or a job's JSON text; the
        last two are written verbatim (see
        :func:`~repro.runner.cache.json_text`).
        """
        return write_json_atomic(self.pending_dir / f"{job_id}.json", payload)

    def enqueue_many(self, jobs: Sequence[Tuple[str, Any]]) -> int:
        """Publish many ``(job_id, payload)`` jobs; returns the count.

        On the directory transport this is a plain loop; the network
        transport overrides it to batch jobs into few round-trips.
        """
        for job_id, payload in jobs:
            self.enqueue(job_id, payload)
        return len(jobs)

    def claim(self, worker_id: str) -> Optional[_ClaimedJob]:
        """Claim the oldest pending job for ``worker_id``, or ``None``.

        Claiming is the atomic rename described in the class docstring;
        contention with other workers is resolved by the filesystem (the
        losers skip to the next pending file).  The claim file is touched
        after the rename: ``os.replace`` preserves the *submission-time*
        mtime, and until the worker's first heartbeat that mtime is what
        orphan detection falls back on -- a job that sat in ``pending/``
        longer than the orphan timeout would otherwise look abandoned the
        instant it was claimed, and two workers would execute it.

        The sorted directory listing is cached on this instance and consumed
        across calls, so claiming a backlog of n jobs costs O(n) listings in
        total rather than O(n) *per claim* (O(n^2) at the 10^5-job scale the
        roadmap targets).  Stale cache entries -- files another worker
        claimed first -- lose the rename and are skipped; jobs enqueued
        after a listing are picked up by the next one, so a snapshot can
        only ever delay a new job by one cache drain, never starve it.
        """
        worker_id = _sanitize_id(worker_id)
        listed_fresh = False
        while True:
            if not self._pending_cache:
                if listed_fresh:
                    return None
                try:
                    # Reverse-sorted so pop() takes the smallest id first.
                    self._pending_cache = sorted(
                        self.pending_dir.glob("*.json"), reverse=True
                    )
                except OSError:
                    return None
                listed_fresh = True
                if not self._pending_cache:
                    return None
            path = self._pending_cache.pop()
            job_id = path.stem
            target = self.claimed_dir / f"{job_id}@@{worker_id}.json"
            try:
                os.replace(path, target)
            except FileNotFoundError:
                continue  # another worker won this claim
            except OSError:
                continue
            try:
                os.utime(target)
            except OSError:
                pass  # worst case the stale mtime risks one spurious requeue
            return _ClaimedJob(job_id=job_id, path=target)

    def requeue_orphans(
        self,
        orphan_timeout_s: float,
        job_ids: Optional[Sequence[str]] = None,
        now: Optional[float] = None,
        prefix: Optional[str] = None,
    ) -> List[str]:
        """Move abandoned claimed jobs back to ``pending/``.

        A claim is abandoned when its worker's heartbeat file -- or the
        claim file itself, for a worker that died before its first beat --
        is older than ``orphan_timeout_s``.  ``job_ids`` (an explicit id
        set) or ``prefix`` (a batch id prefix -- O(1) to ship over the
        network transport, where a 10^5-id list per scan would not be)
        restricts the scan to one submitter's jobs, so co-tenant submitters
        never requeue each other's work.  Returns the requeued job ids.

        Staleness is judged against the *fileserver's* clock (see
        :meth:`fs_now`): when ``now`` is omitted it is sampled from the
        spool's filesystem, never from the caller's local ``time.time()``,
        so callers on clock-skewed hosts inherit the documented contract
        instead of the NFS skew bug it exists to prevent.
        """
        now = self.fs_now("requeue-orphans") if now is None else now
        wanted = set(job_ids) if job_ids is not None else None
        requeued: List[str] = []
        for path in sorted(self.claimed_dir.glob("*.json")):
            stem = path.stem
            job_id, separator, worker_id = stem.partition("@@")
            if not separator:
                continue  # not a claim file of this protocol
            if wanted is not None and job_id not in wanted:
                continue
            if prefix is not None and not job_id.startswith(prefix):
                continue
            heartbeat = self.workers_dir / f"{worker_id}.json"
            try:
                last_alive = heartbeat.stat().st_mtime
            except OSError:
                try:
                    last_alive = path.stat().st_mtime
                except OSError:
                    continue  # claim vanished (worker finished)
            if now - last_alive <= orphan_timeout_s:
                continue
            try:
                os.replace(path, self.pending_dir / f"{job_id}.json")
            except OSError:
                continue  # worker finished (or another requeuer won)
            requeued.append(job_id)
        return requeued

    # --------------------------------------------------------------- results

    def write_result(self, job_id: str, payload: Any) -> Path:
        """Publish one result file atomically; returns its path.  A result's
        JSON text (``str``) is written verbatim."""
        return write_json_atomic(self.result_path(job_id), payload)

    def result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def finish(self, claimed: _ClaimedJob, payload: Any) -> bool:
        """Publish the result of a claimed job and release the claim.

        Returns whether the result was accepted.  On the directory transport
        it always is -- a worker that lost its claim to an orphan requeue
        still publishes a byte-identical result, so the overwrite is a
        no-op by the determinism contract.  The network transport returns
        ``False`` for a stale claim (the server has requeued the job away),
        and the worker then drops the job from its processed count.
        """
        self.write_result(claimed.job_id, payload)
        try:
            claimed.path.unlink()
        except OSError:
            pass
        return True

    def take_results(self, prefix: str) -> Dict[str, str]:
        """Consume every published result whose job id starts with
        ``prefix``, returning ``{job_id: raw_text}``.

        One directory listing per call (probing outstanding result paths
        individually would be O(n) failed opens per poll against a
        possibly-remote filesystem); the files are unlinked as they are
        read, so each result is observed exactly once.  Raw text is
        returned rather than parsed JSON so the submitter's
        corrupted-result recovery works identically over every transport.
        Transient filesystem errors yield an empty dict -- the caller polls
        again.
        """
        try:
            present = sorted(self.results_dir.glob(f"{prefix}*.json"))
        except OSError:
            return {}
        taken: Dict[str, str] = {}
        for path in present:
            try:
                raw = path.read_text()
            except OSError:
                continue  # mid-publish or vanished; next poll sees it
            try:
                path.unlink()
            except OSError:
                pass
            taken[path.stem] = raw
        return taken

    def abandon(self, prefix: str) -> None:
        """Best-effort removal of one batch's unfinished spool files, so
        shared spools do not accumulate jobs no submitter will collect.

        Claims are withdrawn too (a worker mid-job already holds the parsed
        payload, so removing its claim file does not disturb it); the one
        leak this cannot prevent is a result file published *after* this
        cleanup by a worker that was still executing -- bounded garbage
        :meth:`gc` sweeps by result-file age.
        """
        for directory, pattern in (
            (self.pending_dir, f"{prefix}*.json"),
            (self.results_dir, f"{prefix}*.json"),
            (self.claimed_dir, f"{prefix}*@@*.json"),
        ):
            try:
                stale = list(directory.glob(pattern))
            except OSError:
                continue
            for path in stale:
                try:
                    path.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------- memo sync

    def memo_sync(
        self, entries: Sequence[Dict[str, Any]], known: Sequence[str] = ()
    ) -> List[Dict[str, Any]]:
        """Exchange segment-memo entries through the spool.

        ``entries`` (full ``key``/``code_version``/``result`` entry dicts,
        the shape :meth:`repro.runner.cache.SegmentMemo.take_new` returns)
        are published under ``memo/``; every published entry whose key is
        *not* in ``known`` comes back, so each participant pushes what it
        just simulated and pulls what its peers have.  The spool stores the
        entries opaquely -- validation (including the code-version check
        that keeps a stale peer from poisoning anyone) happens in each
        participant's :meth:`~repro.runner.cache.SegmentMemo.absorb`.
        Failures degrade to an empty exchange: the memo is an accelerator,
        never a correctness dependency.
        """
        try:
            self.memo_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return []
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            key = entry.get("key")
            if not isinstance(key, str) or not _MEMO_KEY_RE.fullmatch(key):
                continue
            try:
                write_json_atomic(self.memo_dir / f"{key}.json", entry)
            except OSError:
                continue
        known_keys = set(known)
        fetched: List[Dict[str, Any]] = []
        try:
            present = sorted(self.memo_dir.glob("*.json"))
        except OSError:
            return []
        for path in present:
            if path.stem in known_keys:
                continue
            entry = read_json_object(path)
            if entry is not None:  # else corrupted; absorb would reject it
                fetched.append(entry)
        return fetched

    # ------------------------------------------------------------ heartbeats

    def beat(self, worker_id: str, info: Optional[Dict[str, Any]] = None) -> None:
        """Refresh ``worker_id``'s heartbeat; failures are swallowed -- a
        missed beat only risks a harmless requeue.

        Without ``info`` the beat is a bare mtime touch (content written on
        the first beat only).  With ``info`` the file is rewritten
        atomically, so a worker can publish live counters -- processed
        jobs, start time -- that ``spool --status`` renders as throughput.
        """
        worker_id = _sanitize_id(worker_id)
        path = self.workers_dir / f"{worker_id}.json"
        try:
            if info is None and path.exists():
                os.utime(path)
            else:
                write_json_atomic(path, {"worker": worker_id, **(info or {})})
        except OSError:
            pass

    def live_workers(self, within_s: float, now: Optional[float] = None) -> List[str]:
        """Worker ids whose heartbeat is younger than ``within_s``.

        Like :meth:`requeue_orphans`, staleness is judged on the clock that
        stamped the heartbeats: ``now`` defaults to :meth:`fs_now`, never to
        the caller's local ``time.time()``.  (The old local-clock default
        was the same NFS skew bug family -- a skewed submitter's
        ``_check_for_dead_pool`` could falsely abort a sweep because live
        external workers looked dead, or hang forever because dead ones
        looked alive.)
        """
        now = self.fs_now("live-workers") if now is None else now
        alive = []
        for path in sorted(self.workers_dir.glob("*.json")):
            try:
                if now - path.stat().st_mtime <= within_s:
                    alive.append(path.stem)
            except OSError:
                continue
        return alive

    def clear_heartbeat(self, worker_id: str) -> None:
        """Remove ``worker_id``'s heartbeat file (worker shutdown)."""
        try:
            (self.workers_dir / f"{_sanitize_id(worker_id)}.json").unlink()
        except OSError:
            pass

    def fs_now(self, token: str) -> float:
        """The *filesystem's* notion of now, for comparing against mtimes.

        Heartbeat staleness must be judged on the clock that stamped the
        heartbeats -- the fileserver's -- not the submitter's local clock:
        on a shared (e.g. NFS) spool, cross-host clock skew larger than the
        orphan timeout would otherwise make every fresh heartbeat look
        stale (or make dead workers look alive forever).  Touching a
        scratch file and reading its mtime samples that clock; local
        ``time.time()`` is the fallback when the touch fails.  The scratch
        name is unique per call (two callers sharing a token must never
        race each other's unlink into the fallback) and removed before
        returning -- earlier versions leaked one ``.clock`` file per token
        forever; :meth:`gc` sweeps any stragglers from crashed callers.
        The ``.clock`` suffix keeps the scratch invisible to every
        ``*.json`` glob in the protocol.
        """
        path = self.workers_dir / (
            f"{_sanitize_id(token)}-{uuid.uuid4().hex[:8]}.clock"
        )
        try:
            path.touch()
            stamp = path.stat().st_mtime
        except OSError:
            return time.time()
        try:
            path.unlink()
        except OSError:
            pass
        return stamp

    # ---------------------------------------------------------- maintenance

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """A live snapshot of the spool: queue depth, claims, workers.

        Ages are relative to the spool filesystem's clock (:meth:`fs_now`).
        The returned dict is JSON-able; ``spool --status`` renders it via
        :func:`repro.analysis.reporting.spool_status_table`, and the
        ``spoold`` server serves the same shape (plus its requeue counters)
        over the network transport.
        """
        now = self.fs_now("status") if now is None else now

        def _listing(directory: Path, pattern: str) -> List[Path]:
            try:
                return sorted(directory.glob(pattern))
            except OSError:
                return []

        claimed = []
        for path in _listing(self.claimed_dir, "*.json"):
            job_id, separator, worker_id = path.stem.partition("@@")
            if not separator:
                continue
            try:
                age_s = max(now - path.stat().st_mtime, 0.0)
            except OSError:
                continue
            claimed.append({"job": job_id, "worker": worker_id, "age_s": age_s})
        workers = []
        for path in _listing(self.workers_dir, "*.json"):
            try:
                age_s = max(now - path.stat().st_mtime, 0.0)
            except OSError:
                continue  # worker shut down mid-scan
            # Liveness is the mtime; the heartbeat content only decorates it.
            info = read_json_object(path) or {}
            workers.append(
                {
                    "worker": path.stem,
                    "age_s": age_s,
                    "pid": info.get("pid"),
                    "host": info.get("host"),
                    "processed": info.get("processed"),
                    "started": info.get("started"),
                }
            )
        return {
            "now": now,
            "pending": len(_listing(self.pending_dir, "*.json")),
            "results": len(_listing(self.results_dir, "*.json")),
            "claimed": claimed,
            "workers": workers,
            "requeues": {},  # only the network server observes requeues
        }

    def gc(self, max_age_s: float, now: Optional[float] = None) -> Dict[str, Any]:
        """Age-based sweep of the garbage the protocol admits to leaking:
        results no submitter collected (abandoned batches), claims and
        heartbeats of dead workers whose submitter is gone, ``.clock``
        scratch files from crashed :meth:`fs_now` callers, worker ``.log``
        files, and published ``memo/`` entries (a source edit orphans them
        -- peers on the new code version reject them on absorb, so age is
        the right reaper).  ``pending/`` is never touched -- a pending job
        is a promise to some submitter, however old.

        A file is garbage when it is older than ``max_age_s`` *and* (for
        claims, heartbeats, and logs) its worker has not heartbeat within
        ``max_age_s`` -- a live worker's long-running claim is work, not
        garbage.  Ages are judged on the spool filesystem's clock.
        Returns ``{"removed": {category: count}, "kept": count}``.
        """
        if max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        now = self.fs_now("gc") if now is None else now
        live = set(self.live_workers(within_s=max_age_s, now=now))
        removed = {
            "results": 0,
            "claims": 0,
            "heartbeats": 0,
            "clocks": 0,
            "logs": 0,
            "memo": 0,
        }
        kept = 0

        def _stale(path: Path) -> Optional[bool]:
            try:
                return now - path.stat().st_mtime > max_age_s
            except OSError:
                return None  # vanished mid-scan: neither removed nor kept

        def _sweep(directory: Path, pattern: str, category: str, keep_workers):
            nonlocal kept
            try:
                candidates = sorted(directory.glob(pattern))
            except OSError:
                return
            for path in candidates:
                if keep_workers is not None and keep_workers(path.stem) in live:
                    kept += 1
                    continue
                stale = _stale(path)
                if stale is None:
                    continue
                if not stale:
                    kept += 1
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                removed[category] += 1

        _sweep(self.results_dir, "*.json", "results", None)
        _sweep(
            self.claimed_dir,
            "*.json",
            "claims",
            lambda stem: stem.partition("@@")[2],
        )
        _sweep(self.workers_dir, "*.json", "heartbeats", lambda stem: stem)
        _sweep(self.workers_dir, "*.clock", "clocks", None)
        _sweep(self.workers_dir, "*.log", "logs", lambda stem: stem)
        _sweep(self.memo_dir, "*.json", "memo", None)
        return {"removed": removed, "kept": kept, "max_age_s": max_age_s}


def _chunk_result(job_id: str, payload: Dict[str, Any], expected: int) -> ChunkResult:
    """The :data:`ChunkResult` a worker's result ``payload`` carries for a
    chunk of ``expected`` points; raises ``RuntimeError`` when the payload
    breaks the batch-runner contract (``results`` not a list of the chunk's
    length, a result that is not a JSON object, ``elapsed_s`` missing or
    not a number)."""
    chunk_results = payload.get("results")
    elapsed_s = payload.get("elapsed_s")
    if not isinstance(chunk_results, list) or len(chunk_results) != expected:
        got = len(chunk_results) if isinstance(chunk_results, list) else "no"
        problem = f"returned {got} result(s) for {expected} point(s)"
    elif not all(isinstance(result, dict) for result in chunk_results):
        problem = "returned a result that is not a JSON object"
    elif type(elapsed_s) not in (int, float):
        problem = f"reported elapsed_s {elapsed_s!r}, not a number of seconds"
    else:
        return chunk_results, elapsed_s
    raise RuntimeError(
        f"workqueue chunk job {job_id} {problem}; worker "
        f"{payload.get('worker', '<unknown>')} violated the batch-runner contract"
    )


class WorkQueueExecutor(Executor):
    """Fan chunk jobs out to detached worker processes over a spool transport.

    ``spool`` is either a directory on a filesystem all participants share
    (the :class:`Spool` transport) or a ``tcp://host:port`` URL of a
    ``python -m repro.runner spoold`` job server (the
    :class:`~repro.runner.netqueue.NetSpool` transport -- no shared
    filesystem required).  Each job carries one JSON-able chunk (plus
    backend, segment-memo directory, and the submitter's code version), so
    any worker reaching the spool -- same host or not -- computes the
    byte-identical result the submitting process would have.  Workers are
    started with ``python -m repro.runner worker --spool DIR|URL``; the
    executor can additionally spawn ``local_workers`` such processes itself
    (terminated on :meth:`close`), which is how the CLI gives ``--executor
    workqueue`` standalone capacity.

    Failure handling:

    * a worker that dies mid-job stops heartbeating; after
      ``orphan_timeout_s`` the submitter renames the claim back to
      ``pending/`` (at most ``max_requeues`` times per job);
    * a job file a worker cannot parse (external corruption) comes back as a
      ``corrupt-job`` error result; the submitter rewrites the pristine job
      from memory, again bounded by ``max_requeues``;
    * a chunk that *raises* in a worker, a worker running different code
      than the submitter, or a result that breaks the batch-runner contract
      (a ``results`` list of the wrong length, no numeric ``elapsed_s``) is
      a hard error: the submitter raises ``RuntimeError`` with the worker's
      report (matching the in-process executors, where the exception
      propagates directly).

    Each chunk is shipped as soon as the input yields it: the job text is
    built around the chunk's params text (the one the sweep keyed it with,
    when it did) and published before the next chunk is drawn, so the first
    job reaches a worker while later chunks are still being keyed.  The
    executor then keeps only ``(kind, params)`` per job, enough to rebuild
    the pristine job for a retry.  Results are validated and handed to
    ``on_result`` as they are collected, in completion order, together
    with the worker's own text of the results, so chunk-cache writes splice
    it in verbatim and overlap the workers' compute on the rest of the
    batch.
    """

    name = "workqueue"

    #: how long a spawned local worker lingers after the spool runs dry
    #: before exiting on its own -- a leak backstop for executors that are
    #: never :meth:`close`\ d.
    LOCAL_WORKER_IDLE_EXIT_S = 300.0

    def __init__(
        self,
        spool: os.PathLike,
        local_workers: int = 0,
        poll_s: float = 0.05,
        orphan_timeout_s: float = 30.0,
        max_requeues: int = 3,
        timeout_s: Optional[float] = None,
    ):
        super().__init__()
        if local_workers < 0:
            raise ValueError(f"local_workers must be >= 0, got {local_workers}")
        if poll_s <= 0:
            raise ValueError(f"poll_s must be > 0, got {poll_s}")
        if orphan_timeout_s <= 0:
            raise ValueError(f"orphan_timeout_s must be > 0, got {orphan_timeout_s}")
        self.spool = open_spool(spool)
        self.local_workers = local_workers
        self.poll_s = poll_s
        self.orphan_timeout_s = orphan_timeout_s
        self.max_requeues = max_requeues
        self.timeout_s = timeout_s
        self._procs: List[subprocess.Popen] = []
        self._logs: List[Any] = []

    # --------------------------------------------------------- local workers

    def _spawn_local_workers(self) -> None:
        if self.local_workers <= 0:
            return
        self._procs = [p for p in self._procs if p.poll() is None]
        missing = self.local_workers - len(self._procs)
        if missing <= 0:
            return
        import repro

        env = os.environ.copy()
        package_parent = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = package_parent + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        log_dir = self.spool.worker_log_dir()
        for _ in range(missing):
            worker_id = f"local-{os.getpid()}-{uuid.uuid4().hex[:6]}"
            log = open(log_dir / f"{worker_id}.log", "ab")
            self._logs.append(log)
            self._procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.runner",
                        "worker",
                        "--spool",
                        self.spool.describe(),
                        "--poll",
                        str(self.poll_s),
                        "--idle-exit",
                        str(self.LOCAL_WORKER_IDLE_EXIT_S),
                        "--worker-id",
                        worker_id,
                    ],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                )
            )

    def close(self) -> None:
        """Terminate spawned local workers and release their log handles."""
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        logs, self._logs = self._logs, []
        for log in logs:
            try:
                log.close()
            except OSError:
                pass
        self.spool.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------- execution

    def configure(self, backend: str, segment_memo_dir: Optional[str]) -> None:
        # The memo directory crosses host/process boundaries inside job
        # files, so a relative path (".repro-cache/segments") must be pinned
        # to the submitter's filesystem location before it travels.
        if segment_memo_dir is not None:
            segment_memo_dir = str(Path(segment_memo_dir).resolve())
        super().configure(backend, segment_memo_dir)

    def submit_chunks(
        self,
        chunks: Iterable[ChunkJob],
        run_chunk_fn: RunChunkFn,
        on_result: Optional[OnResult] = None,
    ) -> List[ChunkResult]:
        # ``run_chunk_fn`` never crosses the wire: a job ships its (kind,
        # params, backend, segment_memo_dir) payload and the worker rebuilds
        # the identical call.  Each chunk is one job file, so the whole
        # failure protocol -- orphan requeue, corrupt-job retry,
        # code-version fencing -- operates at chunk granularity: a dead
        # worker forfeits (and a healthy one re-executes) the entire chunk,
        # never a partial slice of it.
        del run_chunk_fn
        batch = uuid.uuid4().hex[:10]
        shipped: List[ChunkJob] = []
        try:
            self._publish(batch, chunks, shipped)
            if not shipped:
                return []
            return self._collect(batch, shipped, on_result)
        except BaseException:
            if shipped:
                self.spool.abandon(f"{batch}.")
            raise

    # ----------------------------------------------------------- publication

    def _job(
        self,
        job_id: str,
        kind: str,
        params: List[Dict[str, Any]],
        params_text: Optional[str] = None,
    ) -> EncodedJob:
        return chunk_job(
            job_id, kind, params, self.backend, self.segment_memo_dir, params_text
        )

    def _publish(
        self,
        batch: str,
        chunks: Iterable[ChunkJob],
        shipped: List[ChunkJob],
    ) -> None:
        """Publish one job per chunk of ``chunks``, appending each chunk,
        without its params text, to ``shipped`` (job ``i`` is
        ``shipped[i]``).

        The first job is published the moment it is built, so a worker
        starts on it while later chunks are still being keyed.  Later ones
        are published as soon as the unpublished job texts reach
        :data:`_PUBLISH_BYTES` -- every chunk of a design-space generation
        does on its own -- or the input runs dry.  On the ``tcp://``
        transport each ``enqueue_many`` is one round-trip, and a sweep of
        1,000 one-point jobs over ``spoold`` ran about a tenth slower when
        each job was published alone (``bench_publish_batching.py``;
        DESIGN-PERF.md, "Per-chunk caching").  On the directory spool the
        batching only holds jobs back a little; it measured no slower.
        """
        unpublished: List[Tuple[str, Any]] = []
        size = 0
        for chunk in chunks:
            if not shipped:
                self.spool.ensure()
                self._spawn_local_workers()
            kind, params = chunk
            job_id = format_job_id(batch, len(shipped))
            job = self._job(job_id, kind, params, getattr(chunk, "params_text", None))
            shipped.append(ChunkJob(kind, params))
            unpublished.append((job_id, job))
            size += len(job.text)
            if len(shipped) == 1 or size >= _PUBLISH_BYTES:
                self.spool.enqueue_many(unpublished)
                unpublished, size = [], 0
        if unpublished:
            self.spool.enqueue_many(unpublished)

    # ------------------------------------------------------------ collection

    def _collect(
        self,
        batch: str,
        shipped: Sequence[ChunkJob],
        on_result: Optional[OnResult],
    ) -> List[ChunkResult]:
        outstanding = {format_job_id(batch, index) for index in range(len(shipped))}
        collected: List[Optional[ChunkResult]] = [None] * len(shipped)
        requeues: Dict[str, int] = {}
        deadline = None if self.timeout_s is None else time.monotonic() + self.timeout_s
        last_orphan_scan = time.monotonic()
        prefix = f"{batch}."
        while outstanding:
            progress = False
            # One transport round-trip per pass, scoped to our batch by id
            # prefix: probing outstanding results individually would be O(n)
            # operations per pass against a possibly-remote spool.  Raw
            # texts come back so corrupted-result recovery is
            # transport-independent.
            taken = self.spool.take_results(prefix)
            for job_id in sorted(taken):
                raw = taken.pop(job_id)
                if job_id not in outstanding:
                    continue  # duplicate from a requeue race; drop it
                progress = True
                index = int(job_id[len(prefix) :])
                chunk_result = self._accept(
                    job_id, raw, shipped[index], index, requeues, on_result
                )
                if chunk_result is not None:
                    collected[index] = chunk_result
                    outstanding.discard(job_id)
            if not outstanding:
                break
            now = time.monotonic()
            if now - last_orphan_scan >= min(self.orphan_timeout_s, 1.0):
                last_orphan_scan = now
                for job_id in self.spool.requeue_orphans(
                    self.orphan_timeout_s, prefix=prefix
                ):
                    requeues[job_id] = requeues.get(job_id, 0) + 1
                    if requeues[job_id] > self.max_requeues:
                        raise RuntimeError(
                            f"workqueue job {job_id} was orphaned "
                            f"{requeues[job_id]} times (> max_requeues="
                            f"{self.max_requeues}); giving up"
                        )
                self._check_for_dead_pool(outstanding)
            if deadline is not None and now > deadline:
                raise TimeoutError(
                    f"workqueue sweep timed out after {self.timeout_s:g}s with "
                    f"{len(outstanding)} job(s) outstanding -- are any workers "
                    f"attached to {self.spool.describe()}?"
                )
            if not progress:
                time.sleep(self.poll_s)
        return collected  # type: ignore[return-value]

    def _accept(
        self,
        job_id: str,
        raw: str,
        chunk: ChunkJob,
        index: int,
        requeues: Dict[str, int],
        on_result: Optional[OnResult],
    ) -> Optional[ChunkResult]:
        """Check one job's result text and hand it to ``on_result``; returns
        its :data:`ChunkResult`, or ``None`` when the job was re-published
        instead.  The texts die with this call, right after ``on_result``
        has written them into the chunk's cache entry."""
        kind, params = chunk
        try:
            payload, results_text = decode_result(raw)
        except ValueError:
            # Externally corrupted result: retry the job.
            self._requeue(job_id, chunk, requeues, "corrupted result")
            return None
        error = payload.get("error")
        if error:
            if error.get("type") == "corrupt-job":
                self._requeue(job_id, chunk, requeues, "corrupted job")
                return None
            raise RuntimeError(
                f"workqueue job {job_id} (chunk {kind}[{len(params)} points]) "
                f"failed in worker {payload.get('worker', '<unknown>')}: "
                f"{error.get('message', error)}"
            )
        if payload.get("code_version") != code_version():
            raise RuntimeError(
                f"workqueue job {job_id} was executed by worker "
                f"{payload.get('worker', '<unknown>')} running a "
                "different code version; results would not be "
                "byte-identical.  Restart the workers from this "
                "source tree."
            )
        chunk_result = _chunk_result(job_id, payload, len(params))
        synced = payload.get("segment_memo")
        if synced:
            # Fold the worker's piggybacked segment-memo entries into this
            # process's memo (absorb validates each against the current code
            # version), so later in-process work -- the next generation of
            # an exploration, a verify pass -- starts warm from what remote
            # workers just simulated.
            from .cache import process_segment_memo

            process_segment_memo().absorb(synced)
        if on_result is not None:
            on_result(index, chunk_result, results_text)
        return chunk_result

    def _requeue(
        self,
        job_id: str,
        chunk: ChunkJob,
        requeues: Dict[str, int],
        reason: str,
    ) -> None:
        """Re-publish the pristine job after a recoverable failure."""
        requeues[job_id] = requeues.get(job_id, 0) + 1
        if requeues[job_id] > self.max_requeues:
            raise RuntimeError(
                f"workqueue job {job_id} failed {requeues[job_id]} times "
                f"(> max_requeues={self.max_requeues}); giving up.  Last "
                f"failure: {reason}"
            )
        kind, params = chunk
        self.spool.enqueue(job_id, self._job(job_id, kind, params))

    def _check_for_dead_pool(self, outstanding: Sequence[str]) -> None:
        """Fail fast when this executor's own workers all died and nobody
        else is heartbeating -- otherwise the submit would hang forever."""
        if self.local_workers <= 0 or not self._procs:
            return  # external-only mode waits patiently by design
        if any(proc.poll() is None for proc in self._procs):
            return
        if self.spool.live_workers(within_s=self.orphan_timeout_s):
            return
        codes = [proc.returncode for proc in self._procs]
        raise RuntimeError(
            f"all {len(self._procs)} local workqueue worker(s) exited "
            f"(exit codes {codes}) with {len(outstanding)} job(s) "
            f"outstanding and no external workers heartbeating; see the "
            f"worker logs under {self.spool.worker_log_dir()}"
        )


#: CLI-selectable executor names (see ``repro.runner.cli``).
EXECUTOR_NAMES: Tuple[str, ...] = (
    SerialExecutor.name,
    ProcessPoolExecutor.name,
    WorkQueueExecutor.name,
)
