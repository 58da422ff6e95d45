"""Sharded batched evaluation across the distributed executor.

Two measurements of the chunk-job machinery
(:meth:`~repro.runner.executors.Executor.submit_chunks`):

* **Chunk speedup** -- the same ~1000-point slice of the ``chiplet-encoder``
  space swept through one warmed work-queue executor twice: once sharded
  into chunk jobs (one contiguous slice of the generation per job, executed
  worker-side through the registered batch runner) and once as
  per-scenario jobs (``chunk_size=1``: a chunk of one per scenario, the
  per-job cost the pre-chunk distributed path paid).  The per-scenario pass
  runs *second*, so the workers' memoized tallies are already warm for it
  -- the measured speedup is a conservative floor.
  Results must be byte-identical before the speed counts.
* **Bigsweep** -- the end-to-end scale demo: a grid exploration of every
  feasible point of the fidelity-expanded chiplet space (>= 10^5 points)
  through ``--executor workqueue``, generator-enumerated
  (the space is never materialised as a list inside the explorer's sizing
  path) and auto-sharded into alignment-sized chunk jobs.

``record.py`` folds both into ``BENCH_pr10.json``; the acceptance floor is
``SPEEDUP_FLOOR`` on the chunk speedup and >= ``BIGSWEEP_MIN_POINTS``
evaluated points on the bigsweep.
"""

from __future__ import annotations

import tempfile
import time

from _helpers import run_once
from repro.analysis.reporting import Table
from repro.explore import get_space, run_exploration
from repro.explore.space import Axis, DesignSpace
from repro.explore.spaces import _KIB
from repro.explore.strategies import GridSearch
from repro.runner import run_sweep
from repro.runner.executors import WorkQueueExecutor

#: every STRIDE-th feasible point of the standard chiplet-encoder space
#: (~1000 points) -- large enough that per-job overhead dominates the
#: per-scenario path, small enough that the whole comparison runs in seconds.
STRIDE = 8

#: local worker processes behind the work-queue executor.  Two is the CI
#: runner's core budget; the chunk pass shards into one chunk per worker.
WORKERS = 2

#: acceptance floor on chunked-vs-per-scenario distributed evaluation.
SPEEDUP_FLOOR = 5.0

#: the bigsweep must evaluate at least this many design points end-to-end.
BIGSWEEP_MIN_POINTS = 100_000


def bigsweep_space() -> DesignSpace:
    """The fidelity-expanded ``chiplet-encoder`` space (120,960 feasible).

    Same axes, kind, and constraints (the catalogue's own objects, with
    their declared axes) as the shipped space, with the workload/bandwidth/
    link axes widened to intermediate values (batch 2, seq_len 192,
    bandwidth 1.5x/3x, five link bandwidths, four hop latencies) -- a 15x
    denser sampling of the identical design manifold,
    built here rather than in :mod:`repro.explore.spaces` because only the
    scale benchmark wants to pay for it.
    """
    return DesignSpace(
        name="chiplet-encoder-big",
        kind="dse_chiplet",
        description="Fidelity-expanded multi-chip RSN-XNN encoder space",
        base_params={"model": "bert_large"},
        axes=(
            Axis("batch", (1, 2, 4), "workload batch size"),
            Axis("seq_len", (128, 192, 256), "workload sequence length"),
            Axis(
                "pipeline_attention",
                (False, True),
                "attention mapping: Fig. 3 type B vs type D",
            ),
            Axis("tile_m", (384, 768), "LHS/output row-tile extent"),
            Axis("tile_k", (64, 128), "accumulation tile extent"),
            Axis("super_n", (512, 1024), "output super-column extent"),
            Axis(
                "bandwidth_scale",
                (1.0, 1.5, 2.0, 3.0),
                "DDR+LPDDR bandwidth scaling",
            ),
            Axis(
                "mem_b_bytes",
                (256 * _KIB, 1024 * _KIB),
                "per-chip MemB weight-scratchpad depth",
            ),
            Axis("num_mme", (3, 6), "per-chip MME FU count (AIE groups)"),
            Axis("num_chips", (1, 2, 3), "chips in the segment pipeline"),
            Axis(
                "link_gbs",
                (16.0, 32.0, 64.0, 128.0, 256.0),
                "inter-chip link bandwidth (GB/s)",
            ),
            Axis(
                "link_hop_us",
                (0.5, 1.0, 2.0, 4.0),
                "per-hop link latency (us)",
            ),
        ),
        constraints=get_space("chiplet-encoder").constraints,
    )


def _measure():
    """Chunked vs per-scenario distributed sweep on one warmed executor."""
    space = get_space("chiplet-encoder")
    assignments = space.points()[::STRIDE]
    scenarios = [space.materialize(a).scenario for a in assignments]
    chunk_size = max(1, len(scenarios) // WORKERS)

    with tempfile.TemporaryDirectory() as spool_dir:
        with WorkQueueExecutor(spool_dir, local_workers=WORKERS) as executor:
            # Warm-up: spawn the workers and fault in their imports, so
            # neither measured pass pays Python start-up.
            run_sweep(
                scenarios[:2],
                executor=executor,
                cache=None,
                backend="analytic",
                chunk_size=1,
            )

            start = time.perf_counter()
            chunked = run_sweep(
                scenarios,
                executor=executor,
                cache=None,
                backend="analytic",
                chunk_size=chunk_size,
            )
            chunked_s = time.perf_counter() - start

            # The per-scenario baseline runs second: the chunk pass above has
            # already warmed the workers' memoized tallies, so any memo
            # advantage favours the *baseline* and the measured speedup is
            # a floor.
            start = time.perf_counter()
            single = run_sweep(
                scenarios,
                executor=executor,
                cache=None,
                backend="analytic",
                chunk_size=1,
            )
            single_s = time.perf_counter() - start

    chunked_results = [outcome.result for outcome in chunked]
    single_results = [outcome.result for outcome in single]
    return chunked_results, single_results, chunked_s, single_s


def _bigsweep():
    """>= 10^5-point exploration through the chunked work-queue path."""
    space = bigsweep_space()
    feasible = space.feasible_count()
    with tempfile.TemporaryDirectory() as spool_dir:
        with WorkQueueExecutor(spool_dir, local_workers=WORKERS) as executor:
            start = time.perf_counter()
            report = run_exploration(
                space,
                GridSearch(),
                budget=feasible,
                verify_top=0,
                executor=executor,
                cache=None,
            )
            wall_s = time.perf_counter() - start
    return report, wall_s


def test_sharded_chunk_speedup(benchmark):
    (chunked, single, chunked_s, single_s) = run_once(benchmark, _measure)
    points = len(chunked)

    table = Table(
        f"Distributed sweep of {points} chiplet points "
        f"(workqueue, {WORKERS} workers)",
        ["path", "wall (s)", "ms/point"],
    )
    table.add_row("per-scenario jobs", single_s, single_s / points * 1e3)
    table.add_row("chunk jobs", chunked_s, chunked_s / points * 1e3)
    table.add_note(
        f"chunk-job speedup: {single_s / chunked_s:.1f}x "
        f"(floor {SPEEDUP_FLOOR:g}x)"
    )
    table.print()

    # The contract before the speed: splice order and payloads must be
    # byte-identical to the per-scenario path.
    assert chunked == single
    assert points >= 1000
    assert single_s > SPEEDUP_FLOOR * chunked_s, (
        f"chunk jobs only {single_s / chunked_s:.1f}x faster than "
        f"per-scenario jobs over {points} points"
    )


def test_bigsweep_end_to_end(benchmark):
    report, wall_s = run_once(benchmark, _bigsweep)

    table = Table(
        f"Bigsweep: {report.evaluations} points of "
        f"'{report.space}' (workqueue, {WORKERS} workers)",
        ["metric", "value"],
    )
    table.add_row("feasible points", report.feasible_points)
    table.add_row("evaluations", report.evaluations)
    table.add_row("frontier points", len(report.frontier))
    table.add_row("wall (s)", wall_s)
    table.add_row("points/s", report.evaluations / wall_s)
    table.print()

    assert report.proxy == "batched"
    assert report.evaluations >= BIGSWEEP_MIN_POINTS
    assert report.evaluations == report.feasible_points
    assert report.frontier, "bigsweep produced an empty frontier"
    # The dense space genuinely trades off: the frontier must span several
    # workload shapes, not collapse onto one corner of the grid.
    shapes = {
        (point.assignment["batch"], point.assignment["seq_len"])
        for point in report.frontier
    }
    assert len(shapes) > 1, f"frontier collapsed onto one workload: {shapes}"
