"""Record the headline performance numbers into a ``BENCH_*.json`` artifact.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/record.py [--output BENCH_pr10.json]
                                               [--check]

Measures the headline numbers of the performance roadmap -- raw engine
events/second, warm-vs-cold segment-memoized sweep time,
batched-vs-per-point analytic generation evaluation on the single-chip and
chiplet spaces, chunked-vs-per-scenario *distributed* evaluation, and the
>= 10^5-point bigsweep through the work queue -- and writes them as one
JSON document.  CI runs this with ``--check`` (loose floors, tolerant of
noisy shared runners) and uploads the file as the perf-trajectory artifact;
future PRs append their own ``BENCH_prN.json`` next to it so regressions are
visible as a series, not an anecdote.

Sections are measured independently: a section that raises records its
error in the artifact instead of aborting the run, so one broken benchmark
never masks the others' numbers -- and ``--check`` therefore reports *every*
floor violation of a run in one pass, not just the first.

The numbers are wall-clock and therefore machine-dependent: compare ratios
(speedups) across recordings, not absolute seconds.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # _helpers
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def measure_engine() -> dict:
    """Events/second of the raw engine on the chain microbenchmark."""
    from repro.runner import REGISTRY

    runner = REGISTRY.runner("engine_chain")
    n_msgs = 20_000
    runner(n_msgs=n_msgs, stages=2)  # warm-up
    best = float("inf")
    result = None
    for _ in range(3):
        start = time.perf_counter()
        result = runner(n_msgs=n_msgs, stages=2)
        best = min(best, time.perf_counter() - start)
    return {
        "scenario": f"engine_chain n_msgs={n_msgs} stages=2",
        "events": result["events"],
        "best_wall_s": best,
        "events_per_s": result["events"] / best,
        #: the PR 3 engine measured 286,652 events/s on the PR 4 development
        #: container (same scenario, byte-identical results) -- the reference
        #: for the >=1.5x acceptance ratio; absolute numbers differ per host.
        "pr3_reference_events_per_s": 286_652.0,
    }


def measure_segment_memo() -> dict:
    """Warm-vs-cold wall time of the repeated-segment encoder set."""
    from bench_segment_memo import WORKLOADS, _measure

    cold, warm, cold_s, warm_s, _, _, _ = _measure()
    assert warm == cold, "memoized results drifted from the cold pass"
    return {
        "workloads": [list(w) for w in WORKLOADS],
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
    }


def measure_analytic_batch() -> dict:
    """Per-point vs batched analytic evaluation on the encoder space."""
    from bench_analytic_batch import _measure

    per_point, batched, warm, per_point_s, batched_s, warm_s = _measure()
    assert batched == per_point, "batched payloads drifted from per-point"
    return {
        "points": len(per_point),
        "per_point_s": per_point_s,
        "batched_cold_s": batched_s,
        "batched_warm_s": warm_s,
        "speedup_cold": per_point_s / batched_s,
        "speedup_warm": per_point_s / warm_s,
    }


def measure_chiplet_batch() -> dict:
    """Per-point vs batched chiplet evaluation on the chiplet-encoder space."""
    from bench_chiplet_batch import _measure

    per_point, batched, warm, per_point_s, batched_s, warm_s = _measure()
    assert batched == per_point, "batched chiplet payloads drifted"
    return {
        "points": len(per_point),
        "per_point_s": per_point_s,
        "batched_cold_s": batched_s,
        "batched_warm_s": warm_s,
        "speedup_cold": per_point_s / batched_s,
        "speedup_warm": per_point_s / warm_s,
    }


def measure_sharded_batch() -> dict:
    """Chunk jobs vs per-scenario jobs through one work-queue executor."""
    from bench_sharded_batch import WORKERS, _measure

    chunked, scalar, chunked_s, scalar_s = _measure()
    assert chunked == scalar, "chunked results drifted from per-scenario"
    return {
        "points": len(chunked),
        "workers": WORKERS,
        "chunked_s": chunked_s,
        "per_scenario_s": scalar_s,
        "speedup": scalar_s / chunked_s,
    }


def measure_bigsweep() -> dict:
    """The >= 10^5-point chunked work-queue exploration, end to end."""
    from bench_sharded_batch import WORKERS, _bigsweep

    report, wall_s = _bigsweep()
    assert report.evaluations == report.feasible_points
    assert report.frontier, "bigsweep produced an empty frontier"
    return {
        "space": report.space,
        "executor": "workqueue",
        "workers": WORKERS,
        "proxy": report.proxy,
        "points": report.evaluations,
        "frontier_points": len(report.frontier),
        "wall_s": wall_s,
        "proxy_wall_s": report.proxy_wall_s,
        "points_per_s": report.evaluations / wall_s,
    }


#: measurement sections, recorded in order under their payload key.  Each is
#: fault-isolated: a raising section records ``{"error": ...}`` and the
#: remaining sections still run.
SECTIONS = (
    ("engine_throughput", measure_engine),
    ("segment_memo", measure_segment_memo),
    ("analytic_batch", measure_analytic_batch),
    ("chiplet_batch", measure_chiplet_batch),
    ("sharded_batch", measure_sharded_batch),
    ("bigsweep", measure_bigsweep),
)

#: loose acceptance floors for ``--check``: name -> (section, key, floor),
#: deliberately below the locally measured numbers (engine ~2.3x PR 3, memo
#: ~4.5x, batch ~3x cold, chiplet ~7.7x, sharded ~8x) so only a real
#: regression trips them on a noisy CI runner.  ``bigsweep_points`` is the
#: one deterministic floor: the end-to-end demo must actually evaluate
#: >= 10^5 design points.  ``--check`` reports every violated floor, not
#: just the first.
FLOORS = {
    "engine_events_per_s": ("engine_throughput", "events_per_s", 100_000.0),
    "segment_memo_speedup": ("segment_memo", "speedup", 2.5),
    "analytic_batch_speedup": ("analytic_batch", "speedup_cold", 2.0),
    # The chiplet generation shares one tally across 9 link variants of each
    # base design, so its batched floor sits above the single-chip bench's
    # (measured ~7.7x cold on the PR 8 development container).  Loosened
    # 5.0 -> 3.5 in PR 10: the same unchanged code measured 4.0x on a
    # 1-core container (6.5x/5.9x on the 2-core PR 8/9 recordings) -- the
    # ratio compresses when the vectorized pass cannot overlap anything.
    "chiplet_batch_speedup": ("chiplet_batch", "speedup_cold", 3.5),
    # Chunk jobs vs per-scenario jobs on the same warmed workqueue executor
    # (measured ~8x on the PR 10 development container, with the memo warmth
    # biased toward the per-scenario baseline).
    "sharded_batch_speedup": ("sharded_batch", "speedup", 5.0),
    "bigsweep_points": ("bigsweep", "points", 100_000.0),
}


def record() -> dict:
    from repro.runner.cache import code_version

    payload = {
        "bench": "pr10-sharded-batch",
        "code_version": code_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or "unknown",
        },
    }
    for section, measure in SECTIONS:
        try:
            payload[section] = measure()
        except Exception as error:  # fault isolation between sections
            payload[section] = {"error": f"{type(error).__name__}: {error}"}
            print(
                f"SECTION FAILED: {section}: {payload[section]['error']}",
                file=sys.stderr,
            )
    return payload


def check(payload: dict) -> list:
    """Every violated floor of ``payload``, as human-readable strings.

    A section that failed to measure (or lost its floor key) violates each
    of its floors -- silence would read as a pass.
    """
    failures = []
    for name, (section, key, floor) in FLOORS.items():
        data = payload.get(section)
        if not isinstance(data, dict) or "error" in data:
            error = (data or {}).get("error", "section missing")
            failures.append(f"{name}: section {section!r} failed: {error}")
            continue
        value = data.get(key)
        if not isinstance(value, (int, float)):
            failures.append(f"{name}: {section}.{key} missing from recording")
        elif value < floor:
            failures.append(f"{name}: {value:.1f} < floor {floor:g}")
    return failures


def summarize(payload: dict) -> None:
    """One line per healthy section (failed sections were reported live)."""
    lines = {
        "engine_throughput": lambda d: (
            f"engine: {d['events_per_s']:,.0f} events/s "
            f"({d['events']} events in {d['best_wall_s']:.3f}s)"
        ),
        "segment_memo": lambda d: (
            f"segment memo: warm {d['speedup']:.1f}x faster than cold "
            f"({d['cold_s']:.2f}s -> {d['warm_s']:.2f}s)"
        ),
        "analytic_batch": lambda d: (
            f"analytic batch: cold {d['speedup_cold']:.1f}x / warm "
            f"{d['speedup_warm']:.0f}x faster than per-point over "
            f"{d['points']} points"
        ),
        "chiplet_batch": lambda d: (
            f"chiplet batch: cold {d['speedup_cold']:.1f}x / warm "
            f"{d['speedup_warm']:.0f}x faster than per-point over "
            f"{d['points']} points"
        ),
        "sharded_batch": lambda d: (
            f"sharded batch: chunk jobs {d['speedup']:.1f}x faster than "
            f"per-scenario jobs over {d['points']} points "
            f"({d['workers']} workers)"
        ),
        "bigsweep": lambda d: (
            f"bigsweep: {d['points']} points through the chunked workqueue "
            f"in {d['wall_s']:.0f}s ({d['points_per_s']:,.0f} points/s, "
            f"{d['frontier_points']} frontier points)"
        ),
    }
    for section, _measure in SECTIONS:
        data = payload.get(section)
        if isinstance(data, dict) and "error" not in data:
            print(lines[section](data))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_pr10.json",
        help="output path (default: BENCH_pr10.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when any measurement is below "
        "its loose floor; every violation is reported",
    )
    args = parser.parse_args(argv)

    payload = record()
    Path(args.output).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    summarize(payload)
    print(f"wrote {args.output}")

    if args.check:
        failures = check(payload)
        for failure in failures:
            print(f"FLOOR VIOLATION: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
