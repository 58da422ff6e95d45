"""Batched analytic evaluation vs one scenario at a time.

The per-point path runs the ``dse_encoder`` analytic runner once per
materialised scenario: a batch of one on a fresh evaluator, so every point
re-validates its MME plan, re-builds its workload and re-tallies it --
what a caller evaluating scenarios one by one pays (``run_sweep`` routes
batch-capable kinds through their batch runner, so the baseline is
constructed explicitly here).  The batched path hands the same generation
to one evaluator (shared memoized tallies + vectorized NumPy rooflines),
with every payload exactly equal to the per-point result; in practice the
speedup is several times cold and another order of magnitude warm.
"""

from __future__ import annotations

import time

from _helpers import run_once
from repro.analysis.reporting import Table
from repro.explore import get_space
from repro.runner import REGISTRY
from repro.runner.library import _encoder_config
from repro.xnn.analytic import EncoderBatchEvaluator

#: every STRIDE-th feasible point of the full encoder space (~750 points).
STRIDE = 2

#: PR 4 measured ~15x cold against a per-point path whose resolution scan
#: was quadratic in the sweep size; PR 5's seen-keys dedup fix made the
#: per-point baseline itself ~5x faster on this generation, so the honest
#: remaining batched advantage is ~3x cold (and still >20x warm).  The
#: floor guards that advantage without re-penalising the sweep speedup.
SPEEDUP_FLOOR = 2.0


def _measure():
    space = get_space("encoder")
    assignments = space.points()[::STRIDE]

    start = time.perf_counter()
    scenarios = [space.materialize(a).scenario for a in assignments]
    per_point = [REGISTRY.run(s, backend="analytic") for s in scenarios]
    per_point_s = time.perf_counter() - start

    params_list = [space.point_params(a) for a in assignments]
    evaluator = EncoderBatchEvaluator()  # cold: no memoized tallies yet
    start = time.perf_counter()
    batched = evaluator.evaluate_batch(params_list, _encoder_config)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = evaluator.evaluate_batch(params_list, _encoder_config)
    warm_s = time.perf_counter() - start
    return per_point, batched, warm, per_point_s, batched_s, warm_s


def test_batched_generation_speedup(benchmark):
    (per_point, batched, warm, per_point_s, batched_s, warm_s) = run_once(
        benchmark, _measure
    )
    points = len(per_point)

    table = Table(
        f"Analytic proxy: {points}-point generation of the " "'encoder' space",
        ["path", "wall (s)", "ms/point"],
    )
    table.add_row("per-point (batch of one)", per_point_s, per_point_s / points * 1e3)
    table.add_row("batched (cold evaluator)", batched_s, batched_s / points * 1e3)
    table.add_row("batched (warm evaluator)", warm_s, warm_s / points * 1e3)
    table.add_note(
        f"cold speedup: {per_point_s / batched_s:.1f}x "
        f"(floor {SPEEDUP_FLOOR:g}x); warm: "
        f"{per_point_s / warm_s:.0f}x"
    )
    table.print()

    # The contract before the speed: payloads must be exactly equal.
    assert batched == per_point
    assert warm == per_point
    assert points >= 200
    assert per_point_s > SPEEDUP_FLOOR * batched_s, (
        f"batched path only {per_point_s / batched_s:.1f}x faster"
    )
