"""Parallel sweep-runner subsystem: declarative scenarios, caching, fan-out.

The runner turns the benchmark suite's ad-hoc scripts into data:

* :mod:`repro.runner.scenarios` -- the :class:`Scenario` dataclass and the
  process-wide :data:`REGISTRY` of scenario kinds and named scenarios;
* :mod:`repro.runner.library` -- the catalogue: every benchmark table/figure
  point registered as a tagged scenario (imported here, so ``import
  repro.runner`` yields a fully populated registry);
* :mod:`repro.runner.cache` -- the on-disk :class:`ResultCache`, keyed by
  scenario identity plus a content hash of the package sources;
* :mod:`repro.runner.executors` -- the pluggable execution policies:
  :class:`SerialExecutor`, :class:`ProcessPoolExecutor` (local
  ``multiprocessing`` pool), and :class:`WorkQueueExecutor` (distributed
  fan-out over a spool transport: a shared :class:`Spool` directory, or a
  ``tcp://`` job server -- :func:`open_spool` picks the transport);
* :mod:`repro.runner.netqueue` -- the network transport: the ``spoold``
  TCP job server (:class:`SpoolServer`) and its client (:class:`NetSpool`),
  so submitters and workers need no shared filesystem;
* :mod:`repro.runner.worker` -- the detached work-queue worker loop behind
  ``python -m repro.runner worker``;
* :mod:`repro.runner.sweep` -- :func:`run_sweep`, which plans scenarios
  as **chunk jobs** (sharded slices of a batch-capable kind, one scenario
  per job otherwise), and :func:`evaluate_chunked`, the bulk-evaluation
  front door of the exploration layer; both serve each chunk from the
  cache or hand it to an executor through one core;
* :mod:`repro.runner.cli` -- ``python -m repro.runner`` (list / run / sweep /
  explore / worker / spoold / spool / cache subcommands).

Typical library use::

    from repro.runner import (REGISTRY, ProcessPoolExecutor, ResultCache,
                              run_sweep)

    outcomes = run_sweep([s.name for s in REGISTRY.select(tags=["table9"])],
                         executor=ProcessPoolExecutor(4), cache=ResultCache())
"""

from .scenarios import (
    BACKENDS,
    DEFAULT_BACKEND,
    REGISTRY,
    Scenario,
    ScenarioRegistry,
    canonical_json,
)
from .cache import DEFAULT_CACHE_DIR, ResultCache, code_version
from .executors import (
    EXECUTOR_NAMES,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    Spool,
    WorkQueueExecutor,
    format_job_id,
    open_spool,
)
from .sweep import (
    SweepOutcome,
    auto_chunk_size,
    evaluate_chunked,
    partition_chunks,
    run_sweep,
)
from .worker import run_worker
from . import library  # noqa: F401 -- registers the scenario catalogue

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_DIR",
    "EXECUTOR_NAMES",
    "Executor",
    "ProcessPoolExecutor",
    "REGISTRY",
    "ResultCache",
    "Scenario",
    "ScenarioRegistry",
    "SerialExecutor",
    "Spool",
    "SweepOutcome",
    "WorkQueueExecutor",
    "auto_chunk_size",
    "canonical_json",
    "code_version",
    "evaluate_chunked",
    "format_job_id",
    "open_spool",
    "partition_chunks",
    "run_sweep",
    "run_worker",
]
