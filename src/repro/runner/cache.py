"""On-disk result cache for scenario runs, plus the segment-level memo.

The cache holds one kind of entry, the **chunk entry**
``chunk__<kind>-<key>.json``: the results of one ``(kind, [params, ...])``
chunk job, keyed by a stable hash of the kind and every point's parameters
(in order), the execution backend, *and* the code version -- a content hash
over every ``.py`` file of the :mod:`repro` package.  A scenario's entry is
the chunk entry for ``[scenario.params]``.  Editing any source file
invalidates the whole cache automatically; repeated sweeps on unchanged code
are near-instant cache hits that return byte-identical results.

Below the result cache sits :class:`SegmentMemo`: a process-wide (and
optionally on-disk) memo of *simulated segment* results keyed by the
workload key of :meth:`repro.xnn.executor.XNNExecutor._workload_key` (a hash
of the segment's builder-op descriptors, the datapath configuration, the
codegen options, and the code version).  Two scenarios that describe the
same segment -- the same encoder group appearing under different scenario
names, a sweep revisiting a design point, ``explore --verify-top``
re-certifying a point a previous exploration already simulated -- therefore
generate and simulate it once; every later occurrence is a dictionary lookup
that returns the exact same numbers (the differential suite pins memoized ==
fresh byte for byte).

Every JSON file the runner persists -- cache entries, segment-memo entries,
spool jobs, results and heartbeats -- is written by :func:`write_json_atomic`
and read back through :func:`decode_json_object`.  Those files are machine
formats written on the work queue's critical path, so they carry no
``indent``: with any ``indent`` CPython's :mod:`json` falls back from its C
encoder to the pure-Python one, which is 2-3x slower on a chunk's results.

This module also owns the text format of a chunk on its way through the work
queue, so a chunk's data is encoded once however many files it lands in.
:func:`encode_params` builds the chunk's one canonical params text: it
feeds the chunk key, the cache lookup, the spool job (:func:`chunk_job`) and
the cache entry.  :func:`decode_result` reads a worker's result and hands back the
text of its ``results`` member, which the entry splices in verbatim, so the
submitter never re-encodes what a worker already encoded.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .scenarios import DEFAULT_BACKEND, Scenario, canonical_json

__all__ = [
    "EncodedJob",
    "PruneStats",
    "ResultCache",
    "SegmentMemo",
    "chunk_job",
    "code_version",
    "configure_segment_memo",
    "decode_json_object",
    "decode_result",
    "encode_params",
    "json_text",
    "process_segment_memo",
    "read_json_object",
    "write_json_atomic",
    "DEFAULT_CACHE_DIR",
]

#: default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the :mod:`repro` package sources (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro
        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


# ------------------------------------------------------------- JSON files


def json_text(payload: Any) -> str:
    """The text of the JSON file that holds ``payload``.

    A ``str`` is taken to be JSON text already, and an :class:`EncodedJob`
    carries its own text, so neither is encoded again.  Anything else is
    encoded key-sorted on one line.  There is deliberately no ``indent``:
    any ``indent`` makes CPython's :mod:`json` skip its C encoder for the
    pure-Python one, 2-3x slower on a 3,840-point chunk's results.  The
    default separators stay, so the text still reads ``"key": value``.
    """
    if isinstance(payload, str):
        return payload
    if isinstance(payload, EncodedJob):
        return payload.text
    return json.dumps(payload, sort_keys=True)


def write_json_atomic(path: os.PathLike, payload: Any) -> Path:
    """Write ``payload`` to ``path`` as the text :func:`json_text` gives.

    Every spool job, result and cache entry passes through here.  A job or
    an entry arrives as text built from its chunk's one params text, and a
    result relayed by the network transport as the worker's own text; those
    are written verbatim, never decoded and encoded again.

    The text goes to a ``.tmp`` file in the same directory that is then
    ``os.replace``-d into place, so a reader never observes a partial file.
    On any failure the tmp file is removed and the error re-raised (a
    crashed process can still leave one behind; :meth:`ResultCache.prune`
    reaps old ones).  Returns ``path``.
    """
    path = Path(path)
    encoded = json_text(payload)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(encoded)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def decode_json_object(text: str) -> Dict[str, Any]:
    """Parse ``text`` as a JSON object; raises ``ValueError`` when it is not
    JSON or holds JSON that is not an object."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def read_json_object(path: os.PathLike) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``, or ``None`` when the file is
    missing, unreadable, not JSON, or holds JSON that is not an object."""
    try:
        return decode_json_object(Path(path).read_text())
    except (OSError, ValueError):
        return None


# ------------------------------------------------------- chunk text format


def encode_params(params_list: Sequence[Dict[str, Any]]) -> str:
    """The canonical params text of one chunk: :func:`canonical_json` of its
    points' parameter mappings, in order.

    A chunk's key, its spool job and its cache entry are all built from
    this one text.  Raises ``ValueError`` for a non-finite float.
    """
    return canonical_json([dict(params) for params in params_list])


def _object_text(members: Dict[str, str]) -> str:
    """A JSON object from already-encoded member values, keys sorted, with
    the separators ``json.dumps`` uses by default."""
    return (
        "{"
        + ", ".join(f"{json.dumps(key)}: {members[key]}" for key in sorted(members))
        + "}"
    )


class EncodedJob(dict):
    """A spool job: the job object together with its JSON text.

    The mapping is the job (``job``, ``chunk`` -- the ``kind`` and the list
    of ``params`` --, ``backend``, ``segment_memo_dir``, ``code_version``);
    ``text`` is its encoding, which every transport writes or ships as is.
    Build one with :func:`chunk_job` and treat it as read-only: ``text``
    does not follow edits to the mapping.
    """

    __slots__ = ("text",)


def chunk_job(
    job_id: str,
    kind: str,
    params_list: Sequence[Dict[str, Any]],
    backend: str,
    segment_memo_dir: Optional[str],
    params_text: Optional[str] = None,
) -> EncodedJob:
    """The spool job for one chunk.

    ``params_text`` is the chunk's :func:`encode_params` text when the
    caller built it already (for the chunk key); the job text embeds it
    instead of encoding the parameters again.
    """
    if params_text is None:
        params_text = encode_params(params_list)
    version = code_version()
    job = EncodedJob(
        job=job_id,
        chunk={"kind": kind, "params": list(params_list)},
        backend=backend,
        segment_memo_dir=segment_memo_dir,
        code_version=version,
    )
    job.text = _object_text(
        {
            "backend": json.dumps(backend),
            "chunk": _object_text({"kind": json.dumps(kind), "params": params_text}),
            "code_version": json.dumps(version),
            "job": json.dumps(job_id),
            "segment_memo_dir": json.dumps(segment_memo_dir),
        }
    )
    return job


def read_chunk_job(
    job: Dict[str, Any],
) -> Tuple[str, List[Dict[str, Any]], str, Optional[str]]:
    """``(kind, params_list, backend, segment_memo_dir)`` of a decoded spool
    job; raises ``KeyError`` or ``TypeError`` when it is not shaped like one."""
    kind = job["chunk"]["kind"]
    params_list = job["chunk"]["params"]
    if not isinstance(params_list, list):
        raise TypeError("chunk params must be a list")
    return kind, params_list, job["backend"], job.get("segment_memo_dir")


def chunk_result_payload(
    job_id: str,
    worker_id: str,
    kind: str,
    results: List[Dict[str, Any]],
    elapsed_s: float,
) -> Dict[str, Any]:
    """A worker's result for one chunk job; :func:`json_text` encodes it,
    the chunk's results included, exactly once."""
    return {
        "job": job_id,
        "worker": worker_id,
        "kind": kind,
        "results": results,
        "elapsed_s": elapsed_s,
        "code_version": code_version(),
    }


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match


def decode_result(text: str) -> Tuple[Dict[str, Any], Optional[str]]:
    """Parse a result file's ``text`` into its object and the text of its
    ``results`` member (``None`` when it has none).

    One pass over the text: each member value is decoded where it stands,
    so the results list comes back both as objects and as the exact span
    of text they were decoded from, whatever the member order.  The span is
    valid JSON for exactly the decoded list, so a cache entry can splice it
    in verbatim once the list passes its checks.  Raises ``ValueError``
    when ``text`` is not a JSON object.
    """
    payload: Dict[str, Any] = {}
    results_text: Optional[str] = None
    index = _SPACE(text, 0).end()
    if text[index : index + 1] != "{":
        raise ValueError("expected a JSON object")
    index = _SPACE(text, index + 1).end()
    if text[index : index + 1] == "}":
        index += 1
    else:
        while True:
            if text[index : index + 1] != '"':
                raise ValueError(f"expected a member name at {index}")
            key, index = _DECODER.raw_decode(text, index)
            index = _SPACE(text, index).end()
            if text[index : index + 1] != ":":
                raise ValueError(f"expected ':' at {index}")
            start = _SPACE(text, index + 1).end()
            payload[key], index = _DECODER.raw_decode(text, start)
            if key == "results":
                results_text = text[start:index]
            index = _SPACE(text, index).end()
            separator = text[index : index + 1]
            if separator == "}":
                index += 1
                break
            if separator != ",":
                raise ValueError(f"expected ',' or '}}' at {index}")
            index = _SPACE(text, index + 1).end()
    if _SPACE(text, index).end() != len(text):
        raise ValueError(f"extra data after the object at {index}")
    return payload, results_text


def _unlink(path: Path, warnings: Optional[List[str]] = None) -> bool:
    """Remove ``path``; False if it vanished or cannot be removed.

    A concurrent pruner winning the race is silent; anything else (a
    read-only cache directory, foreign ownership on a shared cache) is
    appended to ``warnings`` when given -- cache maintenance degrades to a
    warning, it never tracebacks.
    """
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    except OSError as error:
        if warnings is not None:
            warnings.append(f"cannot remove {path.name}: {error}")
        return False
    return True


@dataclass
class PruneStats:
    """What one :meth:`ResultCache.prune` pass did.

    ``warnings`` records entries that could not be read or removed cleanly --
    corrupted JSON, files vanishing under a concurrent writer/pruner -- which
    the CLI reports on stderr without failing (prune is maintenance, not
    correctness: a skipped entry simply stays a cache miss).
    """

    kept: int = 0
    removed: int = 0
    warnings: List[str] = field(default_factory=list)


#: ``.tmp`` spill files older than this are considered crash leftovers; prune
#: leaves younger ones alone because a concurrent writer may still own them.
_TMP_GRACE_S = 3600.0


class ResultCache:
    """A directory of ``chunk__<kind>-<key>.json`` chunk entries.

    One entry holds the results of one ``(kind, [params, ...])`` chunk job
    (see :func:`repro.runner.sweep.evaluate_chunked`); a scenario's entry is
    the chunk entry for ``[scenario.params]``, which :meth:`store` and
    :meth:`load` address by scenario.  Segment-memo entries live under
    :attr:`segments_dir` and share the cache's code-version lifecycle.
    """

    #: subdirectory holding the on-disk segment-memo entries.
    SEGMENTS_SUBDIR = "segments"

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def segments_dir(self) -> Path:
        """Where this cache keeps segment-memo entries (may not exist yet)."""
        return self.root / self.SEGMENTS_SUBDIR

    # ---------------------------------------------------------------- keying

    def chunk_key(
        self,
        kind: str,
        params_list: Sequence[Dict[str, Any]],
        backend: str = DEFAULT_BACKEND,
        *,
        params_text: Optional[str] = None,
    ) -> str:
        """Stable hash of one chunk entry's identity.

        The identity is the canonical JSON of the kind plus every point's
        parameters (order-sensitive, since results splice back
        positionally), the backend, and the code version.  The backend is
        part of it because the engine and analytic backends legitimately
        produce different results for the same point; the code version
        because a source edit must invalidate every entry (and lets
        :meth:`prune` sweep superseded ones).

        ``params_text`` is the chunk's :func:`encode_params` text when the
        caller holds it already; the key is then a hash over it, with no
        second encoding.  The text is spliced into
        ``canonical_json({"kind": kind, "params": params_list})`` byte for
        byte, so keys, and with them entry paths, do not depend on who
        built the text.
        """
        if params_text is None:
            params_text = encode_params(params_list)
        identity = (
            '{"kind":'
            + canonical_json(kind)
            + ',"params":'
            + params_text
            + "}|"
            + backend
            + "|"
            + code_version()
        )
        return hashlib.sha256(identity.encode()).hexdigest()[:20]

    def chunk_path(
        self,
        kind: str,
        params_list: Sequence[Dict[str, Any]],
        backend: str = DEFAULT_BACKEND,
        *,
        params_text: Optional[str] = None,
    ) -> Path:
        safe_kind = kind.replace("/", "__")
        key = self.chunk_key(kind, params_list, backend, params_text=params_text)
        return self.root / f"chunk__{safe_kind}-{key}.json"

    # ----------------------------------------------------------------- store

    def store(
        self,
        scenario: Scenario,
        result: Dict[str, Any],
        elapsed_s: float,
        backend: str = DEFAULT_BACKEND,
    ) -> Path:
        """Persist one scenario result (the chunk entry for
        ``[scenario.params]``) atomically; returns the entry path."""
        return self._store_entry(
            scenario.kind, [scenario.params], [result], elapsed_s, backend
        )

    def store_chunk(
        self,
        kind: str,
        params_list: Sequence[Dict[str, Any]],
        results: List[Dict[str, Any]],
        elapsed_s: float,
        backend: str = DEFAULT_BACKEND,
        *,
        params_text: Optional[str] = None,
        results_text: Optional[str] = None,
    ) -> Path:
        """Persist one chunk's results atomically; returns the entry path.

        The entry is built as text around the chunk's params text and the
        text of its results.  ``params_text`` is the chunk's
        :func:`encode_params` text when the caller holds it (it keyed the
        chunk with it); ``results_text`` is the JSON text ``results`` were
        decoded from, when they arrived as text (a work-queue result, see
        :func:`decode_result`).  Either is spliced in verbatim; only what
        is missing is encoded here.
        """
        return self._store_entry(
            kind, params_list, results, elapsed_s, backend, params_text, results_text
        )

    def _store_entry(
        self,
        kind: str,
        params_list: Sequence[Dict[str, Any]],
        results: List[Dict[str, Any]],
        elapsed_s: float,
        backend: str,
        params_text: Optional[str] = None,
        results_text: Optional[str] = None,
    ) -> Path:
        if len(results) != len(params_list):
            raise ValueError(
                f"chunk for kind {kind!r} has {len(params_list)} points but "
                f"{len(results)} results"
            )
        if params_text is None:
            params_text = encode_params(params_list)
        if results_text is None:
            results_text = json.dumps(results, sort_keys=True)
        entry = _object_text(
            {
                "backend": json.dumps(backend),
                "chunk": "true",
                "code_version": json.dumps(code_version()),
                "elapsed_s": json.dumps(elapsed_s),
                "kind": json.dumps(kind),
                "params": params_text,
                "results": results_text,
            }
        )
        path = self.chunk_path(kind, params_list, backend, params_text=params_text)
        return write_json_atomic(path, entry)

    # ------------------------------------------------------------------ load

    def load(
        self, scenario: Scenario, backend: str = DEFAULT_BACKEND
    ) -> Optional[Dict[str, Any]]:
        """The cached entry for ``scenario`` (the chunk entry for
        ``[scenario.params]``, so its result is ``["results"][0]``), or
        ``None`` on a miss."""
        return self.load_chunk(scenario.kind, [scenario.params], backend)

    def load_chunk(
        self,
        kind: str,
        params_list: Sequence[Dict[str, Any]],
        backend: str = DEFAULT_BACKEND,
        *,
        params_text: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """Return the cached chunk entry, or ``None`` on a miss.

        A hit requires the file to hold a JSON object whose recorded
        identity matches the requested kind, point parameters (order
        included), backend, and the current code version, with a results
        list that is point-for-point complete and holds one JSON object per
        point -- a missing, corrupted, partial, or foreign entry
        (hash-prefix collision, manual edit) is a plain miss.  Entries of
        older code versions hash to other paths, so there is no migration.
        ``params_text`` is the chunk's :func:`encode_params` text when the
        caller holds it; it both keys the lookup and checks the entry's
        recorded parameters.
        """
        if params_text is None:
            params_text = encode_params(params_list)
        payload = read_json_object(
            self.chunk_path(kind, params_list, backend, params_text=params_text)
        )
        if payload is None:
            return None
        results = payload.get("results")
        if (
            payload.get("kind") != kind
            or payload.get("backend") != backend
            or payload.get("code_version") != code_version()
            or not isinstance(results, list)
            or len(results) != len(params_list)
            or not all(isinstance(result, dict) for result in results)
        ):
            return None
        try:
            if canonical_json(payload.get("params")) != params_text:
                return None
        except ValueError:
            return None  # non-finite floats: never a text this cache writes
        return payload

    # ------------------------------------------------------------- inventory

    def entries(self) -> list:
        return sorted(self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Segment-memo entries under :attr:`segments_dir` are cleared along
        with the chunk entries (they share the code-version lifecycle).
        Tolerates entries vanishing between listing and unlinking -- sweeps
        and prunes may run concurrently on the same directory.
        """
        removed = 0
        for directory in (self.root, self.segments_dir):
            for path in sorted(directory.glob("*.json")):
                if _unlink(path):
                    removed += 1
        return removed

    def prune(self) -> PruneStats:
        """Remove stale and corrupted entries; keep everything current.

        Covers the chunk entries and the segment-memo entries alike.  An
        entry is *stale* when its recorded ``code_version`` is not the
        current one (superseded by a source edit -- it can never hit again)
        and *corrupted* when it cannot be parsed as a JSON object.  Both are
        removed, as are ``.tmp`` spill files older than an hour (crash
        leftovers of :func:`write_json_atomic`).  Concurrent writers are
        tolerated end to end: fresh spill files are left alone, vanished
        files are skipped, and nothing in here raises for an individual bad
        entry -- problems are collected as warnings instead.
        """
        stats = PruneStats()
        current = code_version()
        now = time.time()
        for directory in (self.root, self.segments_dir):
            for path in sorted(directory.glob("*.json")):
                name = path.relative_to(self.root)
                try:
                    payload = decode_json_object(path.read_text())
                except FileNotFoundError:
                    continue  # concurrent prune/clear got there first
                except (OSError, ValueError) as error:
                    stats.warnings.append(f"removing corrupted entry {name}: {error}")
                    if _unlink(path, stats.warnings):
                        stats.removed += 1
                    continue
                if payload.get("code_version") != current:
                    if _unlink(path, stats.warnings):
                        stats.removed += 1
                else:
                    stats.kept += 1
            for tmp in sorted(directory.glob("*.tmp")):
                try:
                    age = now - tmp.stat().st_mtime
                except OSError:
                    continue
                if age > _TMP_GRACE_S:
                    stats.warnings.append(
                        f"removing abandoned spill file "
                        f"{tmp.relative_to(self.root)} ({age:.0f}s old)"
                    )
                    if _unlink(tmp, stats.warnings):
                        stats.removed += 1
        return stats


# --------------------------------------------------------------- segment memo


#: the fields every segment-memo ``result`` carries, with their JSON types
#: (exact types: a JSON ``true`` is not a byte count).
_RESULT_FIELDS = {
    "latency_s": (int, float),
    "ddr_bytes": (int,),
    "lpddr_bytes": (int,),
    "uops": (int,),
}


def _current_entry(entry: Any) -> bool:
    """Whether ``entry`` is a well-formed segment-memo entry (``key`` /
    ``code_version`` / ``result``) of the current code version, whose
    ``result`` holds every field of :data:`_RESULT_FIELDS` -- a partial
    entry is a plain miss, never a crash in the executor."""
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("key"), str)
        and entry.get("code_version") == code_version()
        and isinstance(entry.get("result"), dict)
    ):
        return False
    result = entry["result"]
    return all(
        type(result.get(name)) in types for name, types in _RESULT_FIELDS.items()
    )


class SegmentMemo:
    """Memo of simulated segment results, one key per segment.

    Every simulated segment is stored under its *workload key*
    (``workload-`` prefixed; a SHA-256 over the segment's builder-op
    descriptors, the :class:`XNNConfig`, the :class:`CodegenOptions`, and the
    code version, computed by
    :meth:`repro.xnn.executor.XNNExecutor._workload_key` before any codegen
    runs).  A hit skips codegen and the event-loop simulation alike, and
    guarantees the skipped work would have produced a byte-identical result.
    The storage is layered:

    * an **in-memory** dict, always on: identical segments within one process
      (one sweep, one exploration, one test run) simulate once;
    * an optional **on-disk** layer under a :class:`ResultCache`'s
      ``segments/`` directory, attached with :meth:`set_root`: identical
      segments across processes and across runs are also served from memo.

    Entries are validated against the recorded code version on load, exactly
    like result-cache entries; stale entries are plain misses (and are
    swept by ``ResultCache.prune``).  Results never depend on tensor *data*,
    so the memo must only be consulted for timing-only simulations
    (``carry_data=False``) -- the executor enforces this.

    For cross-host sharing, :meth:`store` additionally records each *newly*
    stored entry so :meth:`take_new` can hand them to the work-queue layer
    (workers piggyback them on result files, submitters and TCP peers fold
    them back in through :meth:`absorb`).  Absorbed entries are validated
    against the current code version -- a peer running different sources can
    never poison this memo -- and are *not* re-recorded as new, so entries
    do not ping-pong between hosts.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._root: Optional[Path] = None
        self._new: Dict[str, Dict[str, Any]] = {}
        #: lifetime counters, for benchmarks and tests.
        self.hits = 0
        self.misses = 0
        if root is not None:
            self.set_root(root)

    @property
    def root(self) -> Optional[Path]:
        return self._root

    def set_root(self, root: Optional[os.PathLike]) -> None:
        """Attach (or detach, with ``None``) the on-disk layer."""
        if root is None:
            self._root = None
            return
        path = Path(root)
        if self._root != path:
            path.mkdir(parents=True, exist_ok=True)
            self._root = path

    def _path(self, key: str) -> Path:
        assert self._root is not None
        return self._root / f"segment-{key[:32]}.json"

    # ------------------------------------------------------------------ load

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the memoized payload for ``key``, or ``None`` on a miss."""
        payload = self._memory.get(key)
        if payload is None and self._root is not None:
            entry = read_json_object(self._path(key))
            if _current_entry(entry) and entry["key"] == key:
                payload = entry["result"]
                self._memory[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(payload)

    # ----------------------------------------------------------------- store

    def store(self, key: str, payload: Dict[str, Any], fresh: bool = True) -> None:
        """Memoize ``payload`` (JSON-able scalars) under ``key``.

        ``fresh`` entries (the default: locally simulated results) are also
        recorded for :meth:`take_new`, so the work-queue layer can ship them
        to other hosts; entries arriving *from* other hosts are stored with
        ``fresh=False`` (see :meth:`absorb`) and are not re-shipped.

        The disk layer is an accelerator, not a correctness requirement: a
        failed write (deleted cache directory, permissions, full disk)
        degrades to the in-memory entry instead of failing the simulation
        that produced the result.
        """
        self._memory[key] = dict(payload)
        entry = {"key": key, "code_version": code_version(), "result": dict(payload)}
        if fresh:
            self._new[key] = entry
        if self._root is None:
            return
        try:
            write_json_atomic(self._path(key), entry)
        except OSError:
            pass

    # ----------------------------------------------------- cross-host sharing

    def keys(self) -> List[str]:
        """Every in-memory key (the ``known`` set for a memo-sync exchange)."""
        return list(self._memory)

    def take_new(self) -> List[Dict[str, Any]]:
        """Return-and-clear the entries stored fresh since the last call.

        Each element is a full entry dict (``key`` / ``code_version`` /
        ``result``), the same shape the disk layer writes, ready to travel
        over the spool and be fed to a peer's :meth:`absorb`.
        """
        entries = list(self._new.values())
        self._new.clear()
        return entries

    def absorb(self, entries) -> int:
        """Fold entries from another host in; returns how many were accepted.

        Every entry is validated the same way a disk read is: it must be a
        well-formed entry dict whose recorded ``code_version`` matches this
        process's -- a peer running edited sources (or replaying stale
        entries) contributes nothing, so a synced memo can never poison a
        sweep.  Accepted entries are stored with ``fresh=False``: they are
        persisted locally (memory + disk layer) but never re-shipped.
        """
        accepted = 0
        if not isinstance(entries, (list, tuple)):
            return 0
        for entry in entries:
            if not _current_entry(entry):
                continue
            key = entry["key"]
            if key not in self._memory:
                self.store(key, entry["result"], fresh=False)
            accepted += 1
        return accepted

    # ----------------------------------------------------------- maintenance

    def clear(self) -> None:
        """Drop every in-memory entry and delete any on-disk entries."""
        self._memory.clear()
        self._new.clear()
        self.hits = 0
        self.misses = 0
        if self._root is not None:
            for path in sorted(self._root.glob("*.json")):
                _unlink(path)

    def __len__(self) -> int:
        return len(self._memory)


#: the process-wide memo every :class:`~repro.xnn.executor.XNNExecutor`
#: shares by default.  Purely in-memory until a sweep attaches a cache
#: directory via :func:`configure_segment_memo`.
_PROCESS_SEGMENT_MEMO = SegmentMemo()


def process_segment_memo() -> SegmentMemo:
    """The process-wide segment memo (default for every executor)."""
    return _PROCESS_SEGMENT_MEMO


def configure_segment_memo(root: Optional[os.PathLike]) -> SegmentMemo:
    """Attach (``root``) or detach (``None``) the process memo's disk layer.

    Called by the sweep executor in the parent process and in every worker,
    so cache-enabled sweeps persist segment results next to the cache
    entries (``<cache-dir>/segments/``).
    """
    _PROCESS_SEGMENT_MEMO.set_root(root)
    return _PROCESS_SEGMENT_MEMO
