"""The detached work-queue worker: claim spool jobs, execute, publish.

``python -m repro.runner worker --spool DIR|tcp://host:port`` runs
:func:`run_worker` -- the consuming half of the
:class:`~repro.runner.executors.Spool` protocol, over either transport.  A
worker is stateless and host-agnostic: it needs nothing but this source tree
and the spool target, so any machine sharing the filesystem -- or, over the
network transport, merely able to reach the ``spoold`` server -- can join an
in-flight sweep (or leave it -- the submitter's orphan-requeue recovers jobs
a dying worker held).

Execution is the same code path as every other executor:
:func:`repro.runner.sweep._run_chunk` on the job's **chunk** -- the one job
shape, a ``(kind, params-list)`` pair run as one batch-runner call, or one
scalar-runner call for a kind without a batch runner -- with the job's
segment-memo directory attached first.  Results are byte-identical to an
in-process run, and concurrent workers share memo and cache entries through
the concurrent-writer-tolerant disk layers.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from typing import Any, Dict, Optional

from .cache import (
    chunk_result_payload,
    code_version,
    decode_json_object,
    process_segment_memo,
    read_chunk_job,
)
from .executors import open_spool

__all__ = ["run_worker"]

#: how often a worker refreshes its heartbeat file.
HEARTBEAT_INTERVAL_S = 1.0


def default_worker_id() -> str:
    """A host-unique default identity: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _error(
    job_id: str, worker_id: str, error_type: str, message: str
) -> Dict[str, Any]:
    """An error result payload of type ``error_type``."""
    return {
        "job": job_id,
        "worker": worker_id,
        "error": {"type": error_type, "message": message},
    }


def _execute(claimed, worker_id: str) -> Optional[Dict[str, Any]]:
    """Run one claimed job; returns a result payload, or ``None`` for a
    claim that vanished under us (no result should be published then).

    ``claimed`` is either transport's claim object; its ``read()`` returns
    the raw job text (local on the network transport -- the payload
    travelled with the claim).  Three failure shapes map to three result
    forms the submitter distinguishes: a job file that cannot be parsed
    (``corrupt-job`` -- recoverable, the submitter rewrites the job), a
    code-version mismatch (``version-mismatch`` -- fatal, the worker must
    be restarted from the submitter's tree), and a chunk that raises
    (``exception`` -- fatal, mirrors the in-process behaviour).  The
    version is checked before the job's shape is read: a job from another
    tree may use a shape this tree cannot read, and rewriting it could
    never help.  ``KeyboardInterrupt``/``SystemExit`` are deliberately
    *not* caught: a killed worker must look like a dead worker (claim left
    behind, recovered by orphan requeue), not like a failed job.
    """
    job_id = claimed.job_id
    try:
        raw = claimed.read()
    except FileNotFoundError:
        # The submitter orphan-requeued this claim while we were stalled
        # (clock pause, filesystem hang): the job belongs to someone else
        # now.  Publishing anything would clobber the new owner's result.
        # (The network transport catches the equivalent race server-side:
        # a stale claim's result is dropped at publish time instead.)
        return None
    except OSError as error:
        return _error(
            job_id, worker_id, "corrupt-job", f"cannot read job file: {error}"
        )
    try:
        payload = decode_json_object(raw)
    except ValueError as error:
        return _error(
            job_id, worker_id, "corrupt-job", f"cannot parse job file: {error}"
        )
    job_version = payload.get("code_version")
    if job_version != code_version():
        return _error(
            job_id,
            worker_id,
            "version-mismatch",
            f"job was submitted from code version {job_version}, "
            f"this worker runs {code_version()}",
        )
    try:
        kind, params_list, backend, segment_memo_dir = read_chunk_job(payload)
    except (KeyError, TypeError) as error:
        return _error(
            job_id, worker_id, "corrupt-job", f"cannot parse job file: {error}"
        )
    try:
        from .sweep import _run_chunk

        results, elapsed_s = _run_chunk(
            (kind, params_list), backend=backend, segment_memo_dir=segment_memo_dir
        )
    except Exception:
        return _error(job_id, worker_id, "exception", traceback.format_exc())
    # The transport encodes this payload once, results included; the
    # submitter splices that text of the results into its cache entry.
    payload = chunk_result_payload(job_id, worker_id, kind, results, elapsed_s)
    # Piggyback any segment-memo entries this job freshly simulated on the
    # result file: the submitter folds them into its own memo, and the
    # post-job memo_sync below shares them with sibling workers.
    new_entries = process_segment_memo().take_new()
    if new_entries:
        payload["segment_memo"] = new_entries
    return payload


def run_worker(
    spool_dir: os.PathLike,
    poll_s: float = 0.2,
    idle_exit_s: Optional[float] = None,
    max_jobs: Optional[int] = None,
    worker_id: Optional[str] = None,
) -> int:
    """Consume jobs from the spool at ``spool_dir`` -- a directory or a
    ``tcp://host:port`` job-server URL -- until told to stop; returns the
    number of jobs processed.

    Parameters
    ----------
    poll_s:
        Sleep between claim attempts while the spool is empty.
    idle_exit_s:
        Exit once the spool has been empty this long (``None`` runs
        forever, the mode for dedicated worker hosts).
    max_jobs:
        Exit after this many jobs (``None`` is unbounded).
    worker_id:
        Spool-visible identity; defaults to ``<hostname>-<pid>``.
    """
    if poll_s <= 0:
        raise ValueError(f"poll_s must be > 0, got {poll_s}")
    # Populate the kind registry before the first claim, not per job.
    from . import library  # noqa: F401

    spool = open_spool(spool_dir).ensure()
    worker_id = worker_id or default_worker_id()
    stop = threading.Event()
    # Shared with the heartbeat thread, which publishes it as live status:
    # ``spool --status`` derives per-worker throughput from processed/started.
    stats = {"processed": 0}
    info_base = {
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "started": spool.fs_now(f"{worker_id}-start"),
    }

    def heartbeat() -> None:
        while not stop.is_set():
            spool.beat(
                worker_id, info={**info_base, "processed": stats["processed"]}
            )
            stop.wait(HEARTBEAT_INTERVAL_S)

    beat_thread = threading.Thread(
        target=heartbeat, name=f"spool-heartbeat-{worker_id}", daemon=True
    )
    beat_thread.start()
    idle_since = time.monotonic()
    try:
        while max_jobs is None or stats["processed"] < max_jobs:
            claimed = spool.claim(worker_id)
            if claimed is None:
                if (
                    idle_exit_s is not None
                    and time.monotonic() - idle_since >= idle_exit_s
                ):
                    break
                time.sleep(poll_s)
                continue
            result = _execute(claimed, worker_id)
            idle_since = time.monotonic()
            if result is None:
                continue  # lost the claim to an orphan requeue
            if spool.finish(claimed, result):
                stats["processed"] += 1
            # A rejected (stale-claim) result means the job was requeued to
            # another worker while we ran it; nothing to do -- the other
            # worker's byte-identical result is the one that counts.
            # Exchange segment-memo entries with sibling workers through the
            # spool: push what this job freshly simulated, pull what peers
            # published since.  absorb() validates each entry's code version,
            # so a peer on different sources can never poison this worker.
            memo = process_segment_memo()
            fetched = spool.memo_sync(
                result.get("segment_memo") or [], known=memo.keys()
            )
            if fetched:
                memo.absorb(fetched)
    finally:
        stop.set()
        beat_thread.join(timeout=HEARTBEAT_INTERVAL_S + 1.0)
        spool.clear_heartbeat(worker_id)
        spool.close()
    return stats["processed"]
