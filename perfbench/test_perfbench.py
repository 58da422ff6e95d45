"""Tests of the benchmark's own logic (collected by the repository's pytest
run; the traced-vs-untraced cases start small subprocesses)."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import PER_LAYER, Instrumentation  # noqa: E402
from spans import Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS, is_nearest_rank  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _Clock:
    """A clock that returns scripted instants, one per reading."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_self_time_of_nested_and_sibling_spans():
    # origin, then begin/end readings in call order:
    # root [0, 10] holds siblings a [1, 4] and b [5, 9]; b holds c [6, 8].
    tracer = Tracer("t", clock=_Clock(0, 0, 1, 4, 5, 6, 8, 9, 10))
    with tracer.span("root"):
        with tracer.span("x.a.call"):
            pass
        with tracer.span("x.b.call"):
            with tracer.span("x.c.call"):
                pass
    assert tracer.self_s == {"root": 3, "x.a.call": 3, "x.b.call": 2, "x.c.call": 2}
    assert tracer.inclusive_s["x.b.call"] == 4
    assert sum(tracer.self_s.values()) == 10
    assert tracer.layer_self_s() == {"root": 3, "x.a": 3, "x.b": 2, "x.c": 2}
    names = [record[0] for record in tracer.records]
    parents = [record[3] for record in tracer.records]
    assert names == ["root", "x.a.call", "x.b.call", "x.c.call"]
    assert parents == [-1, 0, 0, 2]


def test_recursive_span_counts_inclusive_time_once():
    tracer = Tracer("t", clock=_Clock(0, 0, 2, 5, 6))
    with tracer.span("m.f"):
        with tracer.span("m.f"):
            pass
    assert tracer.inclusive_s["m.f"] == 6
    assert tracer.self_s["m.f"] == 6
    assert tracer.calls["m.f"] == 2


def test_span_cap_keeps_aggregates_exact():
    tracer = Tracer("t", span_cap=2)
    for _ in range(5):
        with tracer.span("m.f"):
            pass
    assert tracer.calls["m.f"] == 5
    assert len(tracer.records) == 2
    assert json.loads(json.dumps(tracer.chrome_trace()))["traceEvents"]


def test_layer_of_strips_the_call():
    assert layer_of("core.engine.Simulator.run") == "core.engine"
    assert layer_of("runner.sweep.run_sweep") == "runner.sweep"
    assert layer_of("benchmark") == "benchmark"


def test_nearest_rank_check_accepts_only_the_nearest_rank_value():
    rng = random.Random(3)
    for count in (1, 2, 10, 999, 1000, 1001, 4321):
        # Few distinct values, so ties straddle the ranks.
        ordered = sorted(rng.randrange(50) / 7 for _ in range(count))
        for per_mille in (500, 990, 999):
            rank = -(-per_mille * count // 1000)  # ceil(q * n), 1-based
            expected = ordered[rank - 1]
            assert is_nearest_rank(ordered, per_mille, expected)
            for wrong in {ordered[0], ordered[-1], expected + 1e-3} - {expected}:
                assert not is_nearest_rank(ordered, per_mille, wrong)
    assert not is_nearest_rank([], 500, 0.0)


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = (
        list(PER_LAYER)
        + list(run.END_TO_END)
        + [metric["name"] for metric in manifest["end_to_end"]]
        + [metric["name"] for metric in manifest["per_layer"]]
        + [workload["name"] for workload in manifest["workloads"]]
    )
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [m["name"] for m in manifest["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END)
    for workload in manifest["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    for metric in manifest["per_layer"]:
        assert (metric["unit"], metric["better"]) == PER_LAYER[metric["name"]]


def test_instrumentation_restores_every_patched_attribute():
    import repro.explore.explore as explore
    import repro.runner as runner
    from repro.core.engine import Simulator

    originals = (runner.run_sweep, explore.pareto_frontier, Simulator.__dict__["run"])
    instrumentation = Instrumentation(Tracer("t")).install()
    assert runner.run_sweep is not originals[0]
    assert explore.pareto_frontier is not originals[1]
    instrumentation.remove()
    restored = (runner.run_sweep, explore.pareto_frontier, Simulator.__dict__["run"])
    assert restored == originals


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_runs_produce_identical_outputs(workload, tmp_path):
    untraced = run._spawn(workload, 5, 0, tmp_path, 0, tiny=True)
    traced = run._spawn(workload, 5, 1, tmp_path, 1, tiny=True)
    for record in (untraced, traced):
        assert record["failed"] == 0, record["notes"]
        assert record["attempted"] >= 1
    assert untraced["digest"] == traced["digest"]
    assert "layers" in traced and "layers" not in untraced
    # The per-layer self times account for the traced call's wall time.
    assert sum(traced["layer_self_s"].values()) == pytest.approx(
        traced["wall_s"], rel=0.05, abs=0.002
    )
