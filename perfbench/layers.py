"""Which public calls the traced run wraps, and the per-layer metrics.

Everything here patches from the outside: the wrappers are installed on
the classes and module attributes of the ``repro`` package at run time and
removed afterwards, so no file of the program changes.  A module-level
function is replaced on *every* ``repro`` module that holds a reference to
it (``from x import f`` copies the reference), which is what makes
``pareto_frontier`` inside ``explore.explore`` or ``design_cost`` inside
``xnn.analytic`` visible.

Calls that happen inside the work-queue worker processes cannot be wrapped
from the benchmark; those layers are measured from the outside instead
(``runner.worker.*``, from ``/proc`` and child rusage).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Tracer

__all__ = ["PER_LAYER", "Instrumentation", "per_layer_metrics", "preload"]

#: span name -> (owner, attribute).  Owners are resolved lazily from
#: dotted paths so importing this module imports nothing of ``repro``.
_METHODS: Tuple[Tuple[str, str, str], ...] = (
    ("core.engine.Simulator.run", "repro.core.engine:Simulator", "run"),
    ("xnn.codegen.ProgramBuilder.init", "repro.xnn.codegen:ProgramBuilder", "__init__"),
    (
        "xnn.codegen.ProgramBuilder.add_gemm_layer",
        "repro.xnn.codegen:ProgramBuilder",
        "add_gemm_layer",
    ),
    (
        "xnn.codegen.ProgramBuilder.add_attention",
        "repro.xnn.codegen:ProgramBuilder",
        "add_attention",
    ),
    (
        "xnn.codegen.ProgramBuilder.load_programs",
        "repro.xnn.codegen:ProgramBuilder",
        "load_programs",
    ),
    (
        "xnn.codegen.ProgramBuilder.fingerprint",
        "repro.xnn.codegen:ProgramBuilder",
        "fingerprint",
    ),
    (
        "xnn.codegen.ProgramBuilder.uop_count",
        "repro.xnn.codegen:ProgramBuilder",
        "uop_count",
    ),
    ("runner.cache.SegmentMemo.load", "repro.runner.cache:SegmentMemo", "load"),
    ("runner.cache.SegmentMemo.store", "repro.runner.cache:SegmentMemo", "store"),
    ("runner.cache.ResultCache.store", "repro.runner.cache:ResultCache", "store"),
    (
        "runner.cache.ResultCache.store_chunk",
        "repro.runner.cache:ResultCache",
        "store_chunk",
    ),
    (
        "runner.executors.Executor.submit_chunks",
        "repro.runner.executors:Executor",
        "submit_chunks",
    ),
    (
        "runner.executors.WorkQueueExecutor.submit_chunks",
        "repro.runner.executors:WorkQueueExecutor",
        "submit_chunks",
    ),
    (
        "runner.executors.Spool.enqueue_many",
        "repro.runner.executors:Spool",
        "enqueue_many",
    ),
    ("runner.executors.Spool.enqueue", "repro.runner.executors:Spool", "enqueue"),
    (
        "runner.executors.Spool.take_results",
        "repro.runner.executors:Spool",
        "take_results",
    ),
    (
        "runner.executors.Spool.requeue_orphans",
        "repro.runner.executors:Spool",
        "requeue_orphans",
    ),
    (
        "explore.space.DesignSpace.feasible_count",
        "repro.explore.space:DesignSpace",
        "feasible_count",
    ),
    (
        "explore.space.DesignSpace.iter_points",
        "repro.explore.space:DesignSpace",
        "iter_points",
    ),
    (
        "explore.space.DesignSpace.point_params",
        "repro.explore.space:DesignSpace",
        "point_params",
    ),
    (
        "explore.space.Constraint.satisfied",
        "repro.explore.space:Constraint",
        "satisfied",
    ),
    (
        "xnn.datapath.XNNConfig.for_design",
        "repro.xnn.datapath:XNNConfig",
        "for_design",
    ),
    (
        "xnn.analytic.EncoderBatchEvaluator.evaluate_chiplet_batch",
        "repro.xnn.analytic:EncoderBatchEvaluator",
        "evaluate_chiplet_batch",
    ),
    # Spans without a metric of their own: they only keep the glue between
    # the measured layers out of the caller's self time.
    (
        "xnn.executor.XNNExecutor.run_encoder",
        "repro.xnn.executor:XNNExecutor",
        "run_encoder",
    ),
    (
        "xnn.executor.XNNExecutor.run_gemm",
        "repro.xnn.executor:XNNExecutor",
        "run_gemm",
    ),
    (
        "xnn.executor.XNNExecutor.run_feedforward_model",
        "repro.xnn.executor:XNNExecutor",
        "run_feedforward_model",
    ),
    (
        "explore.strategies.GridSearch.search",
        "repro.explore.strategies:GridSearch",
        "search",
    ),
    (
        "explore.space.DesignSpace.point_id",
        "repro.explore.space:DesignSpace",
        "point_id",
    ),
)

#: span name -> module-level function (patched on every module holding it).
_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("runner.sweep.run_sweep", "repro.runner.sweep:run_sweep"),
    ("runner.sweep.evaluate_chunked", "repro.runner.sweep:evaluate_chunked"),
    ("xnn.partition.chiplet_payload", "repro.xnn.partition:chiplet_payload"),
    ("xnn.partition.design_cost", "repro.xnn.partition:design_cost"),
    ("workloads.bert.bert_large_encoder", "repro.workloads.bert:bert_large_encoder"),
    ("analysis.pareto.pareto_frontier", "repro.analysis.pareto:pareto_frontier"),
    ("serve.simulate.run_serve_sim", "repro.serve.simulate:run_serve_sim"),
    ("serve.traffic.generate_trace", "repro.serve.traffic:generate_trace"),
    ("serve.cost.build_cost_table", "repro.serve.cost:build_cost_table"),
    ("serve.metrics.latency_summary", "repro.serve.metrics:latency_summary"),
    ("serve.metrics.downsample_timeline", "repro.serve.metrics:downsample_timeline"),
    ("explore.explore.run_exploration", "repro.explore.explore:run_exploration"),
)


def preload() -> None:
    """Import every module the instrumentation touches.

    Runs during set-up of both the untraced and the traced repetitions of a
    ``--trace 1`` run, so the lazy imports inside the program happen before
    the clock starts in both and the tracing overhead compares like with
    like.  ``--trace 0`` repetitions skip it: they import what a CLI user's
    process imports, when it imports it.
    """
    for _, path, _ in _METHODS:
        _resolve(path)
    for _, path in _FUNCTIONS:
        _resolve(path)


def _resolve(path: str) -> Tuple[Any, str]:
    module_name, _, attribute = path.partition(":")
    __import__(module_name)
    return sys.modules[module_name], attribute


def _after_hooks(tracer: Tracer) -> Dict[str, Callable[..., None]]:
    """Counters recorded from a call's arguments and result."""
    count = tracer.count

    def engine_run(args, kwargs, stats) -> None:
        count("core.engine.events", stats.events)

    def uop_count(args, kwargs, total) -> None:
        if len(args) < 2 and kwargs.get("fu_name") is None:
            count("xnn.codegen.uops", total)

    def memo_load(args, kwargs, payload) -> None:
        if payload is not None:
            count("runner.cache.memo_hits")

    def submit_chunks(args, kwargs, results) -> None:
        chunks = args[1]
        count("runner.sweep.chunks", len(chunks))

    def queue_submit_chunks(args, kwargs, results) -> None:
        chunks = args[1]
        count("runner.sweep.chunks", len(chunks))
        count("runner.executors.jobs", len(chunks))
        count("runner.executors.points", sum(len(params) for _, params in chunks))

    def take_results(args, kwargs, results) -> None:
        count(
            "runner.executors.result_bytes",
            sum(len(raw) for raw in results.values()),
        )

    def requeue_orphans(args, kwargs, requeued) -> None:
        count("runner.executors.requeued", len(requeued))

    def enqueue_many(args, kwargs, published) -> None:
        count("runner.executors.enqueued_many", published)

    def feasible_count(args, kwargs, feasible) -> None:
        count("explore.space.feasible", feasible)
        count("explore.space.cardinality", args[0].cardinality)

    def evaluate_chiplet_batch(args, kwargs, payloads) -> None:
        count("xnn.analytic.points", len(payloads))

    def pareto_frontier(args, kwargs, frontier) -> None:
        count("analysis.pareto.candidates", len(args[0]))
        count("analysis.pareto.frontier_points", len(frontier))

    def run_serve_sim(args, kwargs, result) -> None:
        count("serve.requests", result["requests"])
        count("serve.batches", result["batches"]["count"])
        count("serve.dropped", result["dropped"])
        count("serve.timed_out", result["timed_out"])

    return {
        "core.engine.Simulator.run": engine_run,
        "xnn.codegen.ProgramBuilder.uop_count": uop_count,
        "runner.cache.SegmentMemo.load": memo_load,
        "runner.executors.Executor.submit_chunks": submit_chunks,
        "runner.executors.WorkQueueExecutor.submit_chunks": queue_submit_chunks,
        "runner.executors.Spool.take_results": take_results,
        "runner.executors.Spool.requeue_orphans": requeue_orphans,
        "runner.executors.Spool.enqueue_many": enqueue_many,
        "explore.space.DesignSpace.feasible_count": feasible_count,
        "xnn.analytic.EncoderBatchEvaluator.evaluate_chiplet_batch": (
            evaluate_chiplet_batch
        ),
        "analysis.pareto.pareto_frontier": pareto_frontier,
        "serve.simulate.run_serve_sim": run_serve_sim,
    }


#: span name -> counter that also receives the caller's CPU time in the call.
_CPU_COUNTERS = {
    "runner.executors.WorkQueueExecutor.submit_chunks": (
        "runner.executors.submitter_cpu_s"
    ),
}


def _wrap(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable]):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            # Time each step of the generator, not its lifetime: between
            # steps the consumer runs, and that time belongs to the caller.
            inner = fn(*args, **kwargs)
            while True:
                if not tracer.owns_thread():
                    yield from inner
                    return
                tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end()
                yield item

        return generator_wrapper

    cpu_counter = _CPU_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.owns_thread():
            return fn(*args, **kwargs)
        cpu_start = time.process_time()
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
            if cpu_counter is not None:
                tracer.count(cpu_counter, time.process_time() - cpu_start)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Installs the wrappers for one traced run; :meth:`remove` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Instrumentation":
        hooks = _after_hooks(self.tracer)
        for name, owner_path, attribute in _METHODS:
            owner, class_name = _resolve(owner_path)
            cls = getattr(owner, class_name)
            raw = cls.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _wrap(self.tracer, name, raw.__func__, hooks.get(name))
                )
            else:
                wrapped = _wrap(self.tracer, name, raw, hooks.get(name))
            self._set(cls, attribute, wrapped)
        for name, path in _FUNCTIONS:
            module, attribute = _resolve(path)
            original = getattr(module, attribute)
            wrapped = _wrap(self.tracer, name, original, hooks.get(name))
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapped)
        return self

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the tracer can see (worker-side metrics are
    added by the workload, which measures them from outside)."""
    inc = tracer.inclusive_s
    calls = tracer.calls
    counters = tracer.counters
    run_s = inc["core.engine.Simulator.run"]
    events = counters["core.engine.events"]
    build_s = sum(
        inc[f"xnn.codegen.ProgramBuilder.{call}"]
        for call in ("init", "add_gemm_layer", "add_attention", "load_programs")
    )
    memo_loads = calls["runner.cache.SegmentMemo.load"]
    memo_hits = counters["runner.cache.memo_hits"]
    submit_s = inc["runner.executors.WorkQueueExecutor.submit_chunks"]
    submitter_cpu_s = counters["runner.executors.submitter_cpu_s"]
    batch_s = inc["xnn.analytic.EncoderBatchEvaluator.evaluate_chiplet_batch"]
    serve_s = inc["serve.simulate.run_serve_sim"]
    serve_children_s = (
        inc["serve.traffic.generate_trace"]
        + inc["serve.cost.build_cost_table"]
        + inc["serve.metrics.latency_summary"]
        + inc["serve.metrics.downsample_timeline"]
    )
    return {
        "core.engine.run_s": run_s,
        "core.engine.runs": calls["core.engine.Simulator.run"],
        "core.engine.events": events,
        "core.engine.events_per_s": _ratio(events, run_s),
        "xnn.codegen.build_s": build_s,
        "xnn.codegen.builders": calls["xnn.codegen.ProgramBuilder.init"],
        "xnn.codegen.uops": counters["xnn.codegen.uops"],
        "xnn.codegen.fingerprint_s": inc["xnn.codegen.ProgramBuilder.fingerprint"],
        "runner.cache.memo_loads": memo_loads,
        "runner.cache.memo_hits": memo_hits,
        "runner.cache.memo_hit_ratio": _ratio(memo_hits, memo_loads),
        "runner.cache.memo_s": inc["runner.cache.SegmentMemo.load"]
        + inc["runner.cache.SegmentMemo.store"],
        "runner.cache.result_store_s": inc["runner.cache.ResultCache.store"],
        "runner.cache.chunk_stores": calls["runner.cache.ResultCache.store_chunk"],
        "runner.cache.chunk_store_s": inc["runner.cache.ResultCache.store_chunk"],
        "runner.sweep.run_sweep_s": inc["runner.sweep.run_sweep"],
        "runner.sweep.evaluate_chunked_s": inc["runner.sweep.evaluate_chunked"],
        "runner.sweep.chunks": counters["runner.sweep.chunks"],
        "explore.space.feasible_count_s": inc[
            "explore.space.DesignSpace.feasible_count"
        ],
        "explore.space.enumerate_s": inc["explore.space.DesignSpace.iter_points"],
        "explore.space.constraint_checks": calls["explore.space.Constraint.satisfied"],
        "explore.space.feasible_ratio": _ratio(
            counters["explore.space.feasible"], counters["explore.space.cardinality"]
        ),
        "explore.space.point_params_s": inc["explore.space.DesignSpace.point_params"],
        "xnn.datapath.for_design_calls": calls["xnn.datapath.XNNConfig.for_design"],
        "xnn.analytic.batch_s": batch_s,
        "xnn.analytic.us_per_point": _ratio(batch_s, counters["xnn.analytic.points"])
        * 1e6,
        "xnn.partition.chiplet_payload_s": inc["xnn.partition.chiplet_payload"],
        "xnn.partition.design_cost_s": inc["xnn.partition.design_cost"],
        "workloads.bert.encoder_builds": calls["workloads.bert.bert_large_encoder"],
        "analysis.pareto.frontier_s": inc["analysis.pareto.pareto_frontier"],
        "analysis.pareto.candidates": counters["analysis.pareto.candidates"],
        "analysis.pareto.frontier_points": counters["analysis.pareto.frontier_points"],
        "runner.executors.submit_chunks_s": submit_s,
        "runner.executors.submitter_cpu_s": submitter_cpu_s,
        "runner.executors.wait_s": max(submit_s - submitter_cpu_s, 0.0),
        "runner.executors.jobs": counters["runner.executors.jobs"],
        # On the directory transport ``enqueue_many`` loops over
        # ``enqueue``; any further single enqueue re-publishes a job after a
        # corrupt job or result.
        "runner.executors.requeued": counters["runner.executors.requeued"]
        + max(
            calls["runner.executors.Spool.enqueue"]
            - counters["runner.executors.enqueued_many"],
            0,
        ),
        "runner.executors.result_bytes_per_point": _ratio(
            counters["runner.executors.result_bytes"],
            counters["runner.executors.points"],
        ),
        "serve.traffic.generate_s": inc["serve.traffic.generate_trace"],
        "serve.cost.table_s": inc["serve.cost.build_cost_table"],
        "serve.simulate.loop_s": max(serve_s - serve_children_s, 0.0),
        "serve.metrics.summary_s": inc["serve.metrics.latency_summary"]
        + inc["serve.metrics.downsample_timeline"],
        "serve.requests": counters["serve.requests"],
        "serve.batches": counters["serve.batches"],
        "serve.dropped": counters["serve.dropped"],
        "serve.timed_out": counters["serve.timed_out"],
    }


#: per-layer metric name -> (unit, better).  The workload adds the
#: ``runner.worker.*`` metrics and the runner adds ``trace.*``.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "core.engine.run_s": ("s", "lower"),
    "core.engine.runs": ("count", "lower"),
    "core.engine.events": ("count", "lower"),
    "core.engine.events_per_s": ("1/s", "higher"),
    "xnn.codegen.build_s": ("s", "lower"),
    "xnn.codegen.builders": ("count", "lower"),
    "xnn.codegen.uops": ("count", "lower"),
    "xnn.codegen.fingerprint_s": ("s", "lower"),
    "runner.cache.memo_loads": ("count", "lower"),
    "runner.cache.memo_hits": ("count", "higher"),
    "runner.cache.memo_hit_ratio": ("ratio", "higher"),
    "runner.cache.memo_s": ("s", "lower"),
    "runner.cache.result_store_s": ("s", "lower"),
    "runner.cache.chunk_stores": ("count", "lower"),
    "runner.cache.chunk_store_s": ("s", "lower"),
    "runner.sweep.run_sweep_s": ("s", "lower"),
    "runner.sweep.evaluate_chunked_s": ("s", "lower"),
    "runner.sweep.chunks": ("count", "lower"),
    "explore.space.feasible_count_s": ("s", "lower"),
    "explore.space.enumerate_s": ("s", "lower"),
    "explore.space.constraint_checks": ("count", "lower"),
    "explore.space.feasible_ratio": ("ratio", "higher"),
    "explore.space.point_params_s": ("s", "lower"),
    "xnn.datapath.for_design_calls": ("count", "lower"),
    "xnn.analytic.batch_s": ("s", "lower"),
    "xnn.analytic.us_per_point": ("us", "lower"),
    "xnn.partition.chiplet_payload_s": ("s", "lower"),
    "xnn.partition.design_cost_s": ("s", "lower"),
    "workloads.bert.encoder_builds": ("count", "lower"),
    "analysis.pareto.frontier_s": ("s", "lower"),
    "analysis.pareto.candidates": ("count", "lower"),
    "analysis.pareto.frontier_points": ("count", "higher"),
    "runner.executors.submit_chunks_s": ("s", "lower"),
    "runner.executors.submitter_cpu_s": ("s", "lower"),
    "runner.executors.wait_s": ("s", "lower"),
    "runner.executors.jobs": ("count", "lower"),
    "runner.executors.requeued": ("count", "lower"),
    "runner.executors.result_bytes_per_point": ("B", "lower"),
    "runner.worker.cpu_s": ("s", "lower"),
    "runner.worker.busy_frac": ("ratio", "higher"),
    "runner.worker.peak_rss_mb": ("MB", "lower"),
    "serve.traffic.generate_s": ("s", "lower"),
    "serve.cost.table_s": ("s", "lower"),
    "serve.simulate.loop_s": ("s", "lower"),
    "serve.metrics.summary_s": ("s", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.batches": ("count", "lower"),
    "serve.dropped": ("count", "lower"),
    "serve.timed_out": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
