"""On-disk result cache for scenario runs, plus the segment-level memo.

The cache holds one kind of entry, the **chunk entry**
``chunk__<kind>-<key>.json``: the results of one ``(kind, params)`` chunk
job, keyed by a stable hash of the kind and every point's parameters (in
order), the execution backend, *and* the code version -- a content hash
over every ``.py`` file of the :mod:`repro` package.  A chunk job is the
cache unit: sweeps and explorations alike store one entry per chunk job
they run (:func:`repro.runner.sweep._evaluate_chunks`), so a scenario run
as a chunk of one -- every kind without a batch runner -- has the entry
for ``[scenario.params]``, while a batched sweep's chunk of several
scenarios has one entry for all of them.  Editing any source file
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

A chunk's data is encoded once however many files it lands in, and no text
is built or read by hand to get there.  :func:`chunk_identity` encodes a
chunk's kind, backend, code version and parameters in one canonical JSON
text -- the parameters in the column wire form of a table
(:func:`repro.analysis.table.to_wire`), whose numeric columns are base64
of their bytes; its SHA-256 (:func:`identity_key`) is the chunk's key, and
the same text is the second line of the chunk's spool job.
:func:`entry_text` encodes a chunk's entry: its results, in the same wire
form, with the key and the rest of the identity but without the
parameters.  A worker sends the entry as the second line of its result,
and the submitter stores that line as it arrives.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .scenarios import DEFAULT_BACKEND, Scenario, canonical_json

__all__ = [
    "PruneStats",
    "ResultCache",
    "SegmentMemo",
    "chunk_identity",
    "code_version",
    "configure_segment_memo",
    "decode_json_object",
    "entry_text",
    "identity_key",
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

    A ``str`` is taken to be JSON text already and is not encoded again.
    Anything else is encoded key-sorted on one line.  There is deliberately
    no ``indent``:
    any ``indent`` makes CPython's :mod:`json` skip its C encoder for the
    pure-Python one, 2-3x slower on a 3,840-point chunk's results.  The
    default separators stay, so the text still reads ``"key": value``.
    """
    if isinstance(payload, str):
        return payload
    return json.dumps(payload, sort_keys=True)


def write_json_atomic(path: os.PathLike, payload: Any) -> Path:
    """Write ``payload`` to ``path`` as the text :func:`json_text` gives.

    Every spool job, result and cache entry passes through here.  A chunk's
    job, a worker's result and the entry it carries arrive as text and are
    written verbatim, never decoded and encoded again.

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


def chunk_identity(
    kind: str, params_list: Sequence[Dict[str, Any]], backend: str
) -> str:
    """The identity text of one chunk: :func:`canonical_json` of its kind,
    its points' parameters (in order, since results splice back
    positionally), the backend and the code version.

    The parameters are encoded as the wire form
    (:func:`~repro.analysis.table.to_wire`) of their
    :class:`~repro.analysis.table.ColumnTable` -- a sequence of mappings
    is read as :meth:`~repro.analysis.table.ColumnTable.of` reads it --
    whose numeric columns are base64 bytes; a worker decodes it back to a
    table with :func:`~repro.analysis.table.from_wire`, with no dict per
    point on either side.  The wire form follows the cells, so the same
    rows, however they are held, have the same identity.

    The backend is part of it because the engine and analytic backends
    legitimately produce different results for the same point; the code
    version because a source edit must invalidate every entry (and lets
    :meth:`ResultCache.prune` sweep superseded ones).  The text is the
    second line of the chunk's spool job, and :func:`identity_key` hashes
    it into the chunk's key.  Raises ``ValueError`` for a non-finite
    float.
    """
    from ..analysis.table import to_wire  # NumPy: imported where used

    return canonical_json(
        {
            "backend": backend,
            "code_version": code_version(),
            "kind": kind,
            "params": to_wire(params_list, allow_nan=False),
        }
    )


def identity_key(identity: str) -> str:
    """The key of the chunk whose :func:`chunk_identity` is ``identity``:
    its SHA-256, all 64 hex digits."""
    return hashlib.sha256(identity.encode()).hexdigest()


def entry_text(
    kind: str,
    backend: str,
    key: str,
    results: Sequence[Dict[str, Any]],
    elapsed_s: float,
) -> str:
    """The cache entry of one chunk, as the text :meth:`ResultCache.store_chunk`
    writes: its ``results`` in the column wire form
    (:func:`~repro.analysis.table.to_wire`), ``elapsed_s``, the chunk's
    ``key`` (:func:`identity_key`), ``kind``, ``backend`` and the current
    ``code_version``.  A worker builds it for the chunk it ran and sends it
    as the second line of its result.  Raises ``TypeError`` for a result
    key that is not a ``str``.
    """
    from ..analysis.table import to_wire  # NumPy: imported where used

    return json_text(
        {
            "backend": backend,
            "code_version": code_version(),
            "elapsed_s": elapsed_s,
            "key": key,
            "kind": kind,
            "results": to_wire(results),
        }
    )


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
    """A directory of ``chunk__<kind>-<key prefix>.json`` chunk entries.

    One entry holds the results of one ``(kind, params)`` chunk job, the
    cache unit of every sweep and exploration (see
    :func:`repro.runner.sweep._evaluate_chunks`).  :meth:`store` and
    :meth:`load` address the entry of a chunk of one, ``[scenario.params]``,
    by scenario.  Segment-memo entries live under :attr:`segments_dir` and
    share the cache's code-version lifecycle.

    Every method that addresses a chunk takes its ``identity``
    (:func:`chunk_identity`) when the caller built it already, so the
    parameters are encoded once per chunk.
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
        identity: Optional[str] = None,
    ) -> str:
        """The chunk's key: the SHA-256 of its :func:`chunk_identity`."""
        if identity is None:
            identity = chunk_identity(kind, params_list, backend)
        return identity_key(identity)

    def _path(self, kind: str, key: str) -> Path:
        safe_kind = kind.replace("/", "__")
        return self.root / f"chunk__{safe_kind}-{key[:20]}.json"

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
        kind = scenario.kind
        key = self.chunk_key(kind, [scenario.params], backend)
        entry = entry_text(kind, backend, key, [result], elapsed_s)
        return write_json_atomic(self._path(kind, key), entry)

    def store_chunk(
        self,
        kind: str,
        params_list: Sequence[Dict[str, Any]],
        results: Sequence[Dict[str, Any]],
        elapsed_s: float,
        backend: str = DEFAULT_BACKEND,
        *,
        identity: Optional[str] = None,
        entry: Optional[str] = None,
    ) -> Path:
        """Persist one chunk's results atomically; returns the entry path.

        ``entry`` is the chunk's :func:`entry_text` when it arrived as text
        (the second line of a work-queue result, whose key the executor
        checked against this chunk's); it is written verbatim.  Without
        it, the entry is encoded here from ``results``.
        """
        if len(results) != len(params_list):
            raise ValueError(
                f"chunk for kind {kind!r} has {len(params_list)} points but "
                f"{len(results)} results"
            )
        key = self.chunk_key(kind, params_list, backend, identity=identity)
        if entry is None:
            entry = entry_text(kind, backend, key, results, elapsed_s)
        return write_json_atomic(self._path(kind, key), entry)

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
        identity: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """Return the cached chunk entry, its ``results`` a
        :class:`~repro.analysis.table.ColumnTable`, or ``None`` on a miss.

        A hit requires the file to hold a JSON object whose recorded
        ``key`` is the chunk's full key, whose kind, backend and code
        version are the requested ones, and whose results are a
        well-formed column table with one row per point -- a missing,
        corrupted, partial, or foreign entry (a key-prefix collision, a
        manual edit) is a plain miss.  The full key stands in for the
        parameters, which the entry does not hold; the returned entry
        carries the requested ones as ``params``, as given.  Entries of
        older code versions hash to other paths, so there is no migration.
        """
        from ..analysis.table import from_wire  # NumPy: imported where used

        key = self.chunk_key(kind, params_list, backend, identity=identity)
        try:
            payload = decode_json_object(self._path(kind, key).read_text())
        except (OSError, ValueError):
            return None
        if (
            payload.get("key") != key
            or payload.get("kind") != kind
            or payload.get("backend") != backend
            or payload.get("code_version") != code_version()
        ):
            return None
        try:
            payload["results"] = from_wire(payload.get("results"), len(params_list))
        except ValueError:
            return None
        payload["params"] = params_list
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
