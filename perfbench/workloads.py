"""The four benchmark workloads: inputs, the timed call, and its checks.

Each workload is one user-visible call made by a single client, one call at
a time (closed loop), in a fresh interpreter -- the runner starts a new
process per repetition, so every in-process memo starts empty, as it does
for a CLI user.  ``setup`` does everything a user pays before the call
(imports, registry load, space construction, worker start-up);
``call`` is what the throughput measures; ``check`` verifies the outputs
after the clock has stopped.

Simulated statistics (latencies, DRAM bytes, frontiers, serve tails) are
outputs, not metrics: :meth:`Workload.outputs` returns them for a digest
that must repeat exactly for a given seed.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import resource
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: relative slack on the analytic-lower-bound comparison (float noise only).
BOUND_RTOL = 1e-9

#: how many design points the DSE checks re-run through the scalar runner.
SPOT_CHECK_POINTS = 8

#: Table 9 totals published in the paper (ms), B=6, L=512.
TABLE9_PAPER_MS = {
    "table9/no-optimize": 44.8,
    "table9/all-optimizations": 17.98,
}

#: The DSE workloads' design space: the axis values of the fidelity-expanded
#: chiplet-encoder manifold (five link bandwidths, four hop latencies, four
#: DRAM bandwidth scales), restricted to one workload shape so that one
#: repetition takes seconds, not minutes (13,440 of the 120,960 points).
#: Every design axis keeps its full density, so the per-point cost mix and
#: the auto chunk size (one 3,840-point alignment block) match the full sweep.
DSE_AXIS_VALUES = {
    "batch": (4,),
    "seq_len": (256,),
    "bandwidth_scale": (1.0, 1.5, 2.0, 3.0),
    "link_gbs": (16.0, 32.0, 64.0, 128.0, 256.0),
    "link_hop_us": (0.5, 1.0, 2.0, 4.0),
}

#: local worker processes behind the work queue (the container has 2 cores).
QUEUE_WORKERS = 2

#: serve-1m: open-loop exponential arrivals through dynamic batching.
SERVE_ARGS = {
    "workload": "encoder-mix",
    "arrival": "exponential",
    "policy": "dynamic",
    "rate": 1000.0,
    "batch_max": 8,
    "window_s": 0.02,
    "queue_depth": 4096,
    "timeout_s": 1.0,
}


class Check:
    """Outcome of a workload's correctness check."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.notes.append(note)


class _Hook:
    """Wraps one module attribute for the duration of a call, to observe
    what the program computed without changing it."""

    def __init__(self, module: Any, attribute: str, observe: Callable) -> None:
        self.module = module
        self.attribute = attribute
        self.observe = observe
        self.original = None

    def __enter__(self) -> "_Hook":
        self.original = original = getattr(self.module, self.attribute)
        observe = self.observe

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            observe(args, kwargs, result)
            return result

        setattr(self.module, self.attribute, hooked)
        return self

    def __exit__(self, *exc_info: object) -> None:
        setattr(self.module, self.attribute, self.original)


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Workload:
    """Base class: one named workload at one seed."""

    name = ""
    #: what ``throughput`` counts, per second.
    unit = ""
    why = ""

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        self.items = 0

    def setup(self) -> None:
        raise NotImplementedError

    def observe(self):
        """Context manager active around the timed call (capture hooks)."""
        return nullcontext()

    def call(self) -> Any:
        raise NotImplementedError

    def finish(self) -> None:
        """Release what setup acquired; runs after the clock stops."""

    def check(self, output: Any) -> Check:
        raise NotImplementedError

    def outputs(self, output: Any) -> Any:
        raise NotImplementedError

    def extras(self) -> Dict[str, float]:
        """Metrics measured outside the traced process (per-layer)."""
        return {}

    def report(self, output: Any) -> List[str]:
        """Human-readable lines printed beside the metrics."""
        return []


# --------------------------------------------------------------- engine-cold


class EngineCold(Workload):
    name = "engine-cold"
    unit = "scenarios/s"
    why = (
        "every sim-tagged scenario on the cycle-level engine with a cold "
        "cache: core.engine and xnn.codegen do the work"
    )

    def setup(self) -> None:
        import repro.runner.library  # noqa: F401  (loads the catalogue)
        from repro.runner import REGISTRY
        from repro.runner.cache import ResultCache
        from repro.runner.executors import SerialExecutor

        # The catalogue is the input; the seed does not change it.  (Shuffling
        # the order would move which segments hit the memo, and with them
        # the peak memory, without changing the work.)
        if self.tiny:
            self.scenarios = [REGISTRY.get("chiplet/2chip-64gbs")]
        else:
            self.scenarios = REGISTRY.select(tags=["sim"], backend="engine")
        self.items = len(self.scenarios)
        self.cache = ResultCache(self.scratch / "cache")
        self.executor = SerialExecutor()

    def call(self) -> Any:
        import repro.runner

        return repro.runner.run_sweep(
            self.scenarios, executor=self.executor, cache=self.cache, backend="engine"
        )

    def _analytic(self) -> Dict[str, Dict[str, Any]]:
        from repro.runner import run_sweep

        outcomes = run_sweep(self.scenarios, cache=None, backend="analytic")
        return {outcome.scenario: outcome.result for outcome in outcomes}

    def check(self, output: Any) -> Check:
        check = Check(self.items)
        analytic = self._analytic()
        for outcome in output:
            engine = outcome.result
            bound = analytic[outcome.scenario]
            if bound["latency_s"] > engine["latency_s"] * (1.0 + BOUND_RTOL):
                check.fail(
                    1,
                    f"{outcome.scenario}: analytic latency {bound['latency_s']!r} "
                    f"exceeds engine latency {engine['latency_s']!r}",
                )
            elif (bound["ddr_bytes"], bound["lpddr_bytes"]) != (
                engine["ddr_bytes"],
                engine["lpddr_bytes"],
            ):
                check.fail(1, f"{outcome.scenario}: DDR/LPDDR bytes differ")
        if len(output) != self.items:
            check.fail(self.items, f"{len(output)} outcomes for {self.items} scenarios")
        return check

    def outputs(self, output: Any) -> Any:
        return sorted((outcome.scenario, outcome.result) for outcome in output)

    def report(self, output: Any) -> List[str]:
        results = {outcome.scenario: outcome.result for outcome in output}
        lines = []
        for scenario, paper_ms in TABLE9_PAPER_MS.items():
            if scenario not in results:
                continue
            simulated_ms = results[scenario]["latency_s"] * 1e3
            error = (simulated_ms - paper_ms) / paper_ms
            lines.append(
                f"{scenario}: simulated {simulated_ms:.2f} ms, paper "
                f"{paper_ms:g} ms, error {error:+.1%}"
            )
        return lines


# ---------------------------------------------------------------------- DSE


def dse_space(tiny: bool):
    """The DSE workloads' space (see :data:`DSE_AXIS_VALUES`)."""
    from repro.explore import get_space
    from repro.explore.space import Axis, DesignSpace

    if tiny:
        return get_space("chiplet-smoke")
    base = get_space("chiplet-encoder")
    axes = tuple(
        Axis(axis.name, DSE_AXIS_VALUES.get(axis.name, axis.values), axis.description)
        for axis in base.axes
    )
    return DesignSpace(
        name="chiplet-encoder-bench",
        kind=base.kind,
        axes=axes,
        base_params=base.base_params,
        constraints=base.constraints,
        description="chiplet-encoder manifold at bigsweep density, one shape",
    )


class _DseBase(Workload):
    unit = "points/s"

    def _build_space(self) -> None:
        self.space = dse_space(self.tiny)
        self.sampled: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        self.evaluated = 0

    def observe(self):
        import repro.explore.explore as explore

        rng = random.Random(self.seed)

        def sample(args, kwargs, result) -> None:
            payloads, _ = result
            params_list = args[1]
            self.evaluated += len(payloads)
            count = min(SPOT_CHECK_POINTS, len(payloads))
            picked = sorted(rng.sample(range(len(payloads)), count))
            self.sampled.extend((dict(params_list[i]), payloads[i]) for i in picked)

        return _Hook(explore, "evaluate_chunked", sample)

    def _explore(self, executor, cache, chunk_size):
        import repro.explore
        from repro.explore.strategies import GridSearch

        # The cardinality bounds the feasible count, so the grid covers
        # every feasible point without the caller counting them first.
        return repro.explore.run_exploration(
            self.space,
            GridSearch(),
            budget=self.space.cardinality,
            verify_top=0,
            seed=0,
            proxy="batched",
            executor=executor,
            cache=cache,
            chunk_size=chunk_size,
        )

    def check(self, report: Any) -> Check:
        from repro.runner import REGISTRY

        self.items = report.evaluations
        check = Check(max(report.feasible_points, report.evaluations, 1))
        if report.evaluations != report.feasible_points or self.evaluated != (
            report.evaluations
        ):
            check.fail(
                abs(report.feasible_points - report.evaluations) or 1,
                f"{report.evaluations} evaluations for "
                f"{report.feasible_points} feasible points",
            )
        if not report.frontier:
            check.fail(check.attempted, "empty frontier")
        scalar = REGISTRY.runner(self.space.kind, "analytic")
        for params, payload in self.sampled:
            if canonical(scalar(**params)) != canonical(payload):
                check.fail(1, f"scalar payload differs at {canonical(params)}")
        return check

    def outputs(self, report: Any) -> Any:
        record = report.to_dict()
        record.pop("proxy_wall_s")
        record.pop("verify_wall_s")
        return record

    def report(self, report: Any) -> List[str]:
        return [
            f"{report.evaluations} points of {report.space!r}, "
            f"{len(report.frontier)} on the frontier, "
            f"{len(self.sampled)} spot-checked against the scalar runner"
        ]


class DseSerial(_DseBase):
    name = "dse-serial"
    why = (
        "batched grid exploration in one process: explore.space, "
        "xnn.analytic/partition and analysis.pareto do all the work"
    )

    def setup(self) -> None:
        import repro.runner.library  # noqa: F401
        from repro.runner.executors import SerialExecutor

        self._build_space()
        self.executor = SerialExecutor()

    def call(self) -> Any:
        return self._explore(self.executor, None, None)


def _proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields 14 and 15 of stat(5) (utime, stime), after the ``(comm)``.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class DseWorkqueue(_DseBase):
    name = "dse-workqueue"
    why = (
        "the same exploration through 2 local work-queue workers with a "
        "chunk cache: runner.executors, runner.worker and cache writes"
    )

    def setup(self) -> None:
        import repro.runner.library  # noqa: F401
        from repro.runner.cache import ResultCache
        from repro.runner.executors import WorkQueueExecutor

        self._build_space()
        self.executor = WorkQueueExecutor(
            str(self.scratch / "spool"), local_workers=QUEUE_WORKERS
        )
        self.cache = ResultCache(self.scratch / "cache")
        self._start_workers()
        self.worker_cpu_start = {pid: _proc_cpu_s(pid) for pid in self.worker_pids}
        self.worker_cpu_s = 0.0
        self.wall_s = 0.0
        self.worker_rss_mb = 0.0

    def _start_workers(self) -> None:
        """Spawn the workers and wait until each one heartbeats.

        The executor spawns workers on its first submission, so set-up
        submits one point from outside the benchmark's space (a shape no
        timed point shares, so no memoised tally carries over).
        """
        executor = self.executor
        executor.configure(backend="analytic", segment_memo_dir=None)
        probe = {"model": "bert_large", "batch": 1, "seq_len": 64, "num_chips": 2}
        executor.submit_chunks([(self.space.kind, [probe])], None)
        deadline = time.monotonic() + 60.0
        while True:
            workers = executor.spool.status()["workers"]
            if len(workers) >= QUEUE_WORKERS:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"only {len(workers)} workers heartbeat")
            time.sleep(0.01)
        self.worker_pids = [w["pid"] for w in workers if w.get("pid")]

    def call(self) -> Any:
        start = time.perf_counter()
        report = self._explore(self.executor, self.cache, "auto")
        self.wall_s = time.perf_counter() - start
        return report

    def finish(self) -> None:
        if not hasattr(self, "executor"):
            return  # set-up failed before the workers existed
        self.worker_cpu_s = sum(
            _proc_cpu_s(pid) - self.worker_cpu_start[pid] for pid in self.worker_pids
        )
        self.executor.close()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.worker_rss_mb = children.ru_maxrss / 1024.0

    def extras(self) -> Dict[str, float]:
        capacity = QUEUE_WORKERS * self.wall_s
        busy_frac = self.worker_cpu_s / capacity if capacity else 0.0
        return {
            "runner.worker.cpu_s": self.worker_cpu_s,
            "runner.worker.busy_frac": busy_frac,
            "runner.worker.peak_rss_mb": self.worker_rss_mb,
        }

    def report(self, report: Any) -> List[str]:
        return super().report(report) + [
            f"workers: {self.worker_cpu_s:.2f} CPU s over {self.wall_s:.2f} s wall, "
            f"largest worker peak RSS {self.worker_rss_mb:.0f} MB"
        ]


# ------------------------------------------------------------------ serve-1m


def is_nearest_rank(ordered: List[float], per_mille: int, value: float) -> bool:
    """Whether ``value`` is the ``per_mille``/1000 nearest-rank percentile
    of the ascending sample ``ordered``.

    Defined by counting, not by indexing: the percentile is the smallest
    sample value with at least ``q * n`` values at or below it, i.e. a value
    ``v`` of the sample with ``#(x <= v) >= q*n > #(x < v)``.  Integer
    arithmetic throughout, so no rounding slack is needed.
    """
    count = len(ordered)
    at_or_below = bisect.bisect_right(ordered, value)
    below = bisect.bisect_left(ordered, value)
    return (
        below < at_or_below
        and at_or_below * 1000 >= per_mille * count
        and below * 1000 < per_mille * count
    )


class Serve1M(Workload):
    name = "serve-1m"
    unit = "requests/s"
    why = (
        "one million simulated requests through dynamic batching: the "
        "serve trace generator and event loop"
    )

    def setup(self) -> None:
        import repro.serve.simulate  # noqa: F401

        self.items = 1000 if self.tiny else 1_000_000
        self.latencies: Optional[List[float]] = None

    def observe(self):
        import repro.serve.simulate as simulate

        def keep(args, kwargs, result) -> None:
            self.latencies = args[0]

        return _Hook(simulate, "latency_summary", keep)

    def call(self) -> Any:
        import repro.serve.simulate as simulate

        return simulate.run_serve_sim(requests=self.items, seed=self.seed, **SERVE_ARGS)

    def check(self, result: Any) -> Check:
        check = Check(self.items)
        accounted = result["completed"] + result["dropped"] + result["timed_out"]
        if result["requests"] != self.items or accounted != self.items:
            check.fail(
                abs(self.items - accounted) or self.items,
                f"{accounted} accounted of {result['requests']} requests "
                f"({self.items} issued)",
            )
        latency = result["latency"]
        ordered = sorted(self.latencies or [])
        if len(ordered) != result["completed"]:
            check.fail(
                self.items,
                f"{len(ordered)} completion records for {result['completed']} "
                f"completed requests",
            )
        for key, per_mille in (("p50", 500), ("p99", 990), ("p999", 999)):
            if not latency[f"{key}_exact"]:
                check.fail(self.items, f"{key} is not exact")
            elif not is_nearest_rank(ordered, per_mille, latency[f"{key}_s"]):
                check.fail(self.items, f"{key} is not the nearest-rank value")
        return check

    def outputs(self, result: Any) -> Any:
        return result

    def report(self, result: Any) -> List[str]:
        latency = result["latency"]
        return [
            f"{result['requests']} requests: {result['completed']} completed, "
            f"{result['dropped']} dropped, {result['timed_out']} timed out; "
            f"p50 {latency['p50_s'] * 1e3:.3f} ms, p99 {latency['p99_s'] * 1e3:.3f} "
            f"ms, p999 {latency['p999_s'] * 1e3:.3f} ms (simulated)"
        ]


WORKLOADS = {cls.name: cls for cls in (EngineCold, DseSerial, DseWorkqueue, Serve1M)}
