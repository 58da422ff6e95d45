"""Batched chiplet evaluation vs one scenario at a time.

Same shape as ``bench_analytic_batch.py``, over the multi-chip
``chiplet-encoder`` space: the per-point path materialises each design
point into an ad-hoc ``dse_chiplet`` scenario and runs its analytic runner
-- a batch of one on a fresh evaluator -- once per scenario; the batched
path hands the same generation to one evaluator.  The chiplet axes
(``num_chips``, link bandwidth/latency) change no instruction tally, so
many points share one memoized tally -- which is why the acceptance floor
here is *higher* than the single-chip bench's: >=5x cold, with every
payload exactly equal to the per-point result.
"""

from __future__ import annotations

import time

from _helpers import run_once
from repro.analysis.reporting import Table
from repro.explore import get_space
from repro.runner import REGISTRY
from repro.runner.library import _encoder_config
from repro.xnn.analytic import EncoderBatchEvaluator

#: every STRIDE-th feasible point of the chiplet-encoder space (~4000
#: points).  The chiplet axes iterate innermost, so stride 2 keeps 9 of the
#: 18 link variants of every base design in the slice -- the tally-sharing
#: regime the batched evaluator is built for (a coarse stride would instead
#: pick ~1 variant per base and measure only the vectorization win).
STRIDE = 2

#: the chiplet-only axes multiply each base design into 18 link variants, so
#: even a cold batched evaluator simulates only a fraction of the generation
#: and the honest advantage is far above the single-chip bench's 2x.
SPEEDUP_FLOOR = 5.0


def _measure():
    space = get_space("chiplet-encoder")
    assignments = space.points()[::STRIDE]

    start = time.perf_counter()
    scenarios = [space.materialize(a).scenario for a in assignments]
    per_point = [REGISTRY.run(s, backend="analytic") for s in scenarios]
    per_point_s = time.perf_counter() - start

    params_list = [space.point_params(a) for a in assignments]
    evaluator = EncoderBatchEvaluator()  # cold: no memoized tallies yet
    start = time.perf_counter()
    batched = evaluator.evaluate_chiplet_batch(params_list, _encoder_config)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = evaluator.evaluate_chiplet_batch(params_list, _encoder_config)
    warm_s = time.perf_counter() - start
    return per_point, batched, warm, per_point_s, batched_s, warm_s


def test_batched_chiplet_speedup(benchmark):
    (per_point, batched, warm, per_point_s, batched_s, warm_s) = run_once(
        benchmark, _measure
    )
    points = len(per_point)

    table = Table(
        f"Chiplet proxy: {points}-point generation of the " "'chiplet-encoder' space",
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

    # The contract before the speed: payloads must be exactly equal, and the
    # generation must actually exercise the multi-chip path.
    assert batched == per_point
    assert warm == per_point
    assert points >= 200
    # (single-chip payloads deliberately omit the chiplet keys -- they are
    # byte-identical to dse_encoder's -- so presence marks a multi-chip run).
    assert any(payload.get("num_chips", 1) > 1 for payload in batched)
    assert per_point_s > SPEEDUP_FLOOR * batched_s, (
        f"batched chiplet path only {per_point_s / batched_s:.1f}x faster"
    )
