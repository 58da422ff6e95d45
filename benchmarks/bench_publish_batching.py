"""Work-queue job publication over ``tcp://``: batched against one job each.

``WorkQueueExecutor._publish`` publishes the first job of a submission the
moment it is built, then holds later jobs until ``_PUBLISH_BYTES`` of job
text is waiting (or the input runs dry) and sends them in one
``enqueue_many``.  On the ``tcp://`` transport every ``enqueue`` is a
round-trip, so the batching pays off on sweeps of many small jobs.  This
benchmark measures exactly that workload: ``JOBS`` one-point analytic
``engine_chain`` jobs through a ``spoold`` server process with two local
workers, run alternately under the shipped policy and with
``_PUBLISH_BYTES = 0`` (every job published alone, the same
``enqueue_many`` call with one job).

It asserts only that both policies return the same results: the gap it
measures (about a tenth of the wall time on a 2-core host) is smaller
than the run-to-run spread of a shared machine, so a speed floor would
fail at random.  DESIGN-PERF.md ("Per-chunk caching") records the numbers.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _helpers import run_once
from repro.analysis.reporting import Table
from repro.runner import executors
from repro.runner.executors import WorkQueueExecutor
from repro.runner.scenarios import Scenario
from repro.runner.sweep import run_sweep

JOBS = 1000
ROUNDS = 3
WORKERS = 2


def _scenarios():
    return [
        Scenario(f"bench/{i}", "engine_chain", {"n_msgs": 20 + i, "stages": 2})
        for i in range(JOBS)
    ]


def _spoold(spool_dir: Path) -> subprocess.Popen:
    import repro

    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.runner", "spoold", "--spool", str(spool_dir)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )


def _sweep(executor, publish_bytes):
    saved = executors._PUBLISH_BYTES
    executors._PUBLISH_BYTES = publish_bytes
    try:
        start = time.perf_counter()
        outcomes = run_sweep(
            _scenarios(), backend="analytic", executor=executor, chunk_size=1
        )
        return time.perf_counter() - start, [o.result for o in outcomes]
    finally:
        executors._PUBLISH_BYTES = saved


def _measure(tmp_root):
    server = _spoold(tmp_root / "bench-spool")
    try:
        url = server.stdout.readline().split(" on ")[-1].strip()
        walls = {"batched": [], "one each": []}
        results = {}
        with WorkQueueExecutor(url, local_workers=WORKERS) as executor:
            # Warm up: workers attached and imports done before timing.
            run_sweep(_scenarios()[:WORKERS], backend="analytic", executor=executor)
            for round_ in range(ROUNDS):
                policies = [
                    ("batched", executors._PUBLISH_BYTES),
                    ("one each", 0),
                ]
                if round_ % 2:
                    policies.reverse()
                for name, publish_bytes in policies:
                    wall_s, results[name] = _sweep(executor, publish_bytes)
                    walls[name].append(wall_s)
        return walls, results
    finally:
        server.terminate()
        server.wait(timeout=10.0)


def test_publish_batching_over_tcp(benchmark, tmp_path):
    walls, results = run_once(benchmark, lambda: _measure(tmp_path))

    table = Table(
        f"Work-queue publication: {JOBS} one-point jobs over spoold, "
        f"{WORKERS} local workers",
        ["policy", "median wall (s)", "runs (s)"],
    )
    for name, runs in walls.items():
        table.add_row(
            name, statistics.median(runs), " ".join(f"{w:.2f}" for w in runs)
        )
    table.add_note(f"batched = first job alone, then {executors._PUBLISH_BYTES} B")
    table.print()

    assert len(results["batched"]) == JOBS
    assert results["batched"] == results["one each"]
