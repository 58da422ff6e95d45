"""Network transport for the distributed work queue: ``spoold`` + NetSpool.

``python -m repro.runner spoold --spool DIR`` runs a :class:`SpoolServer`: a
TCP job server that fronts a *server-local* directory :class:`Spool` and
speaks a JSON-lines protocol implementing the exact
enqueue / claim-exclusively / heartbeat / result / orphan-requeue contract
of the filesystem transport.  Submitters and workers connect with
``--spool tcp://host:port`` (:class:`NetSpool`, selected by
:func:`repro.runner.executors.open_spool`), so no participant needs a
shared filesystem.

Why a thin front-end over the directory spool rather than an in-memory
queue:

* **Restart recovery is free.**  All queue state (pending jobs, claims,
  results, heartbeats) lives on the server's local disk in the proven
  spool layout; a restarted server resumes exactly where it stopped, with
  jobs in flight recovered by the ordinary orphan-requeue path.
* **One authoritative clock.**  Every mtime -- heartbeats, claims -- is
  stamped by the server host, and every staleness comparison samples the
  same host's clock, so the NFS clock-skew bug family (three fixed so far
  across PRs 6 and 7) cannot occur by construction: there is no second
  clock.
* **Exclusivity is inherited.**  A claim is still one atomic rename on one
  (local) filesystem, serialised under the server's lock.

Protocol: one JSON object per line in each direction.  Requests carry an
``op``; responses are ``{"ok": true, ...}`` or ``{"ok": false, "error":
message}``.  A malformed line is answered with an error and the connection
is closed; an unknown ``op`` is an error but keeps the connection.  Jobs
and results cross the wire as *raw text* in both directions (``raw`` on
``enqueue``/``result``, ``jobs`` pairs on ``enqueue_many``), and the server
writes that text into its spool verbatim.  So corrupted-payload recovery
behaves identically over both transports, and the transport never decodes
or re-encodes the chunk jobs and results it carries (see
:meth:`repro.runner.executors.WorkQueueExecutor.submit_chunks`).
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cache import json_text
from .executors import Spool, _sanitize_id

__all__ = [
    "DEFAULT_PORT",
    "NetSpool",
    "NetSpoolError",
    "PROTOCOL_VERSION",
    "SpoolServer",
    "parse_spool_url",
]

#: bumped on any wire-incompatible change; checked in the ``hello`` handshake.
#: Version 2 carries jobs and results as raw JSON text instead of objects.
PROTOCOL_VERSION = 2

#: default port when a ``tcp://host`` URL omits one.
DEFAULT_PORT = 7733


def parse_spool_url(url: str) -> Tuple[str, int]:
    """Split ``tcp://host[:port]`` into ``(host, port)``.

    Raises ``ValueError`` for anything else -- the caller chose the network
    transport explicitly, so a malformed URL is a configuration error, not
    something to fall back from.
    """
    if not url.startswith("tcp://"):
        raise ValueError(f"not a tcp:// spool URL: {url!r}")
    rest = url[len("tcp://") :].rstrip("/")
    host, separator, port_text = rest.rpartition(":")
    if not separator:
        host, port_text = rest, str(DEFAULT_PORT)
    if not host:
        raise ValueError(f"spool URL has no host: {url!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"spool URL has a non-numeric port: {url!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"spool URL port out of range: {url!r}")
    return host, port


class NetSpoolError(OSError):
    """The job server rejected an operation or cannot be reached."""


class _NetClaimedJob:
    """A claim received over the network: the job id plus its raw text.

    Mirrors :class:`repro.runner.executors._ClaimedJob` for the worker loop;
    the payload travelled with the claim, so :meth:`read` is local.
    """

    __slots__ = ("job_id", "raw", "worker_id")

    def __init__(self, job_id: str, raw: str, worker_id: str):
        self.job_id = job_id
        self.raw = raw
        self.worker_id = worker_id

    def read(self) -> str:
        return self.raw


# --------------------------------------------------------------------- server


def _text(raw: Any) -> str:
    """A job or result as it crossed the wire: JSON text, stored verbatim
    (a corrupted one is caught and retried end to end, like on disk)."""
    if not isinstance(raw, str):
        raise TypeError(f"expected a job or result as JSON text, got {raw!r:.40}")
    return raw


class _SpoolRequestHandler(socketserver.StreamRequestHandler):
    """One connection: read request lines, answer each on its own line."""

    server: "_SpoolTCPServer"

    def handle(self) -> None:
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request is not a JSON object")
            except (ValueError, json.JSONDecodeError) as error:
                # A peer that cannot frame JSON lines cannot be reasoned
                # with: answer once and drop the connection.
                self._send({"ok": False, "error": f"malformed request: {error}"})
                return
            try:
                response = self.server.owner.dispatch(request)
            except Exception as error:  # never kill the server thread
                response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            try:
                self._send(response)
            except OSError:
                return  # peer went away mid-reply

    def _send(self, response: Dict[str, Any]) -> None:
        self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
        self.wfile.flush()


class _SpoolTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "SpoolServer"


class SpoolServer:
    """The ``spoold`` job server: a JSON-lines TCP front over a local Spool.

    All spool operations run under one lock, so the whole queue behaves as
    a single serialised actor -- claims, requeues, and result publishes
    cannot interleave.  The underlying :class:`Spool` directory holds every
    piece of state; stopping and restarting a server on the same directory
    (and port) resumes the queue with nothing lost.
    """

    def __init__(self, root: os.PathLike, host: str = "127.0.0.1", port: int = 0):
        self.spool = Spool(root).ensure()
        self._lock = threading.Lock()
        self._requeues: Dict[str, int] = {}
        self._tcp = _SpoolTCPServer((host, port), _SpoolRequestHandler)
        self._tcp.owner = self

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"tcp://{host}:{port}"

    def serve_forever(self) -> None:
        self._tcp.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        self._tcp.shutdown()

    def close(self) -> None:
        self._tcp.server_close()

    def __enter__(self) -> "SpoolServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
        self.close()

    # ------------------------------------------------------------- dispatch

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op: {op!r}"}
        return handler(request)

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        proto = request.get("proto")
        if proto != PROTOCOL_VERSION:
            return {
                "ok": False,
                "error": f"protocol version mismatch: client speaks {proto!r}, "
                f"server speaks {PROTOCOL_VERSION}",
            }
        return {"ok": True, "proto": PROTOCOL_VERSION, "root": str(self.spool.root)}

    def _op_enqueue(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raw = _text(request["raw"])
        with self._lock:
            self.spool.enqueue(str(request["job"]), raw)
        return {"ok": True}

    def _op_enqueue_many(self, request: Dict[str, Any]) -> Dict[str, Any]:
        jobs = [(str(job_id), _text(raw)) for job_id, raw in request["jobs"]]
        with self._lock:
            count = self.spool.enqueue_many(jobs)
        return {"ok": True, "count": count}

    def _op_claim(self, request: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = str(request["worker"])
        with self._lock:
            claimed = self.spool.claim(worker_id)
            if claimed is None:
                return {"ok": True, "job": None}
            try:
                raw = claimed.path.read_text()
            except OSError:
                # Unreadable claim (local-disk failure): surrender it so the
                # exclusivity invariant holds, and report empty-handed.
                try:
                    os.replace(
                        claimed.path, self.spool.pending_dir / f"{claimed.job_id}.json"
                    )
                except OSError:
                    pass
                return {"ok": True, "job": None}
        return {"ok": True, "job": claimed.job_id, "raw": raw}

    def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = str(request["job"])
        worker_id = _sanitize_id(str(request["worker"]))
        raw = _text(request["raw"])
        claim_path = self.spool.claimed_dir / f"{job_id}@@{worker_id}.json"
        with self._lock:
            if not claim_path.exists():
                # The claim was requeued away (orphan recovery) while the
                # worker was stalled: the job belongs to someone else now.
                # Dropping the stale result here is the single-clock
                # equivalent of the fs worker's vanished-claim path.
                return {"ok": True, "accepted": False}
            self.spool.write_result(job_id, raw)
            try:
                claim_path.unlink()
            except OSError:
                pass
        return {"ok": True, "accepted": True}

    def _op_take_results(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            taken = self.spool.take_results(str(request["prefix"]))
        return {"ok": True, "results": taken}

    def _op_requeue_orphans(self, request: Dict[str, Any]) -> Dict[str, Any]:
        timeout_s = float(request["timeout_s"])
        prefix = request.get("prefix")
        job_ids = request.get("job_ids")
        with self._lock:
            requeued = self.spool.requeue_orphans(
                timeout_s,
                job_ids=job_ids,
                prefix=None if prefix is None else str(prefix),
            )
            for job_id in requeued:
                self._requeues[job_id] = self._requeues.get(job_id, 0) + 1
        return {"ok": True, "requeued": requeued}

    def _op_beat(self, request: Dict[str, Any]) -> Dict[str, Any]:
        info = request.get("info")
        with self._lock:
            self.spool.beat(str(request["worker"]), info=info)
        return {"ok": True}

    def _op_clear_beat(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self.spool.clear_heartbeat(str(request["worker"]))
        return {"ok": True}

    def _op_live_workers(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            workers = self.spool.live_workers(within_s=float(request["within_s"]))
        return {"ok": True, "workers": workers}

    def _op_abandon(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self.spool.abandon(str(request["prefix"]))
        return {"ok": True}

    def _op_now(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # The single authoritative clock: the server host's view of its own
        # spool filesystem, the same clock that stamps every mtime above.
        return {"ok": True, "now": self.spool.fs_now("netq-now")}

    def _op_memo_sync(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entries = request.get("entries") or []
        known = request.get("known") or []
        if not isinstance(entries, list) or not isinstance(known, list):
            return {"ok": False, "error": "memo_sync: entries/known must be lists"}
        with self._lock:
            fetched = self.spool.memo_sync(entries, known=[str(k) for k in known])
        return {"ok": True, "entries": fetched}

    def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            status = self.spool.status()
            status["requeues"] = dict(self._requeues)
        return {"ok": True, "status": status}

    def _op_gc(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            report = self.spool.gc(float(request["max_age_s"]))
        return {"ok": True, "report": report}


# --------------------------------------------------------------------- client


class NetSpool:
    """Client half of the network transport: the :class:`Spool` surface
    spoken to a ``spoold`` server over one persistent TCP connection.

    The connection is shared between the worker's main loop and its
    heartbeat thread, so every round-trip holds a lock.  On a connection
    error each call reconnects and retries once; if the server is still
    unreachable, polling operations (``claim``/``take_results``/
    ``requeue_orphans``/``live_workers``) degrade to their empty results so
    the caller's poll loop simply tries again -- which is exactly what
    lets submitters and workers ride out a server restart -- while
    one-shot operations (``ensure``/``status``/``gc``) raise
    :class:`NetSpoolError`.
    """

    def __init__(self, url: str):
        self.url = url
        self.host, self.port = parse_spool_url(url)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._log_dir: Optional[Path] = None

    # ------------------------------------------------------------ transport

    def _connect_locked(self) -> None:
        self._disconnect_locked()
        sock = socket.create_connection((self.host, self.port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _disconnect_locked(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None

    def _roundtrip_locked(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._file is None:
            self._connect_locked()
        assert self._file is not None
        self._file.write(json.dumps(request).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ConnectionError("server sent a non-object response")
        return response

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round-trip, with a single reconnect retry.

        Raises :class:`NetSpoolError` both for unreachable servers and for
        server-side rejections; tolerant wrappers below catch it.
        """
        with self._lock:
            try:
                response = self._roundtrip_locked(request)
            except (OSError, ValueError):
                # Stale connection (server restarted, idle timeout): one
                # fresh connection, one retry.  Every operation in this
                # protocol is safe to retry -- the ambiguous case, a claim
                # whose response was lost, leaves a server-side claim that
                # ordinary orphan recovery requeues.
                try:
                    self._connect_locked()
                    response = self._roundtrip_locked(request)
                except (OSError, ValueError) as error:
                    self._disconnect_locked()
                    raise NetSpoolError(
                        f"spool server {self.url} unreachable: {error}"
                    ) from None
        if not response.get("ok"):
            raise NetSpoolError(
                f"spool server {self.url} rejected {request.get('op')!r}: "
                f"{response.get('error', 'unknown error')}"
            )
        return response

    # -------------------------------------------------------- spool surface

    def ensure(self) -> "NetSpool":
        self._call({"op": "hello", "proto": PROTOCOL_VERSION})
        return self

    def describe(self) -> str:
        return self.url

    def close(self) -> None:
        with self._lock:
            self._disconnect_locked()

    def worker_log_dir(self) -> Path:
        """Logs cannot live on the (remote) spool; use a local scratch dir."""
        if self._log_dir is None:
            self._log_dir = Path(tempfile.mkdtemp(prefix="repro-netspool-logs-"))
        return self._log_dir

    def enqueue(self, job_id: str, payload: Any) -> None:
        self._call({"op": "enqueue", "job": job_id, "raw": json_text(payload)})

    def enqueue_many(self, jobs: Sequence[Tuple[str, Any]]) -> int:
        if not jobs:
            return 0
        wire = [[job_id, json_text(payload)] for job_id, payload in jobs]
        response = self._call({"op": "enqueue_many", "jobs": wire})
        return int(response.get("count", len(jobs)))

    def claim(self, worker_id: str) -> Optional[_NetClaimedJob]:
        try:
            response = self._call({"op": "claim", "worker": worker_id})
        except NetSpoolError:
            return None  # server briefly away: the poll loop retries
        job_id = response.get("job")
        if job_id is None:
            return None
        return _NetClaimedJob(str(job_id), str(response.get("raw", "")), worker_id)

    def finish(self, claimed: _NetClaimedJob, payload: Any) -> bool:
        try:
            response = self._call(
                {
                    "op": "result",
                    "job": claimed.job_id,
                    "worker": claimed.worker_id,
                    "raw": json_text(payload),
                }
            )
        except NetSpoolError:
            # Result lost with the connection: the claim goes stale on the
            # server and orphan recovery re-runs the job (byte-identical by
            # the determinism contract).
            return False
        return bool(response.get("accepted"))

    def take_results(self, prefix: str) -> Dict[str, str]:
        try:
            response = self._call({"op": "take_results", "prefix": prefix})
        except NetSpoolError:
            return {}
        results = response.get("results")
        return dict(results) if isinstance(results, dict) else {}

    def requeue_orphans(
        self,
        orphan_timeout_s: float,
        job_ids: Optional[Sequence[str]] = None,
        now: Optional[float] = None,
        prefix: Optional[str] = None,
    ) -> List[str]:
        # ``now`` is deliberately not shipped: staleness is judged on the
        # server's own clock, the only clock in this transport.
        request: Dict[str, Any] = {
            "op": "requeue_orphans",
            "timeout_s": orphan_timeout_s,
        }
        if job_ids is not None:
            request["job_ids"] = list(job_ids)
        if prefix is not None:
            request["prefix"] = prefix
        try:
            response = self._call(request)
        except NetSpoolError:
            return []
        requeued = response.get("requeued")
        return [str(job_id) for job_id in requeued] if requeued else []

    def beat(self, worker_id: str, info: Optional[Dict[str, Any]] = None) -> None:
        try:
            self._call({"op": "beat", "worker": worker_id, "info": info})
        except NetSpoolError:
            pass  # a missed beat only risks a harmless requeue

    def live_workers(self, within_s: float, now: Optional[float] = None) -> List[str]:
        try:
            response = self._call({"op": "live_workers", "within_s": within_s})
        except NetSpoolError:
            return []
        workers = response.get("workers")
        return [str(worker) for worker in workers] if workers else []

    def clear_heartbeat(self, worker_id: str) -> None:
        try:
            self._call({"op": "clear_beat", "worker": worker_id})
        except NetSpoolError:
            pass

    def abandon(self, prefix: str) -> None:
        try:
            self._call({"op": "abandon", "prefix": prefix})
        except NetSpoolError:
            pass  # best-effort cleanup; spool GC sweeps what this misses

    def memo_sync(
        self, entries: Sequence[Dict[str, Any]], known: Sequence[str] = ()
    ) -> List[Dict[str, Any]]:
        """Exchange segment-memo entries through the server's ``memo/``.

        Degrades to an empty exchange when the server is away *or* predates
        the op (an older server answers "unknown op", which :meth:`_call`
        raises as :class:`NetSpoolError` too) -- the memo is an accelerator,
        so a sweep against a PR-8-era ``spoold`` simply runs unwarmed.
        """
        try:
            response = self._call(
                {"op": "memo_sync", "entries": list(entries), "known": list(known)}
            )
        except NetSpoolError:
            return []
        fetched = response.get("entries")
        return [e for e in fetched if isinstance(e, dict)] if fetched else []

    def fs_now(self, token: str) -> float:
        try:
            response = self._call({"op": "now"})
        except NetSpoolError:
            return time.time()
        return float(response["now"])

    def status(self) -> Dict[str, Any]:
        return dict(self._call({"op": "status"})["status"])

    def gc(self, max_age_s: float) -> Dict[str, Any]:
        if max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        return dict(self._call({"op": "gc", "max_age_s": max_age_s})["report"])
