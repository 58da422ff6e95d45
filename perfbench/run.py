"""Benchmark of the RSN-XNN reproduction: four workloads, end to end and
per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse-serial --seed 1 --seconds 33 --trace 0

Every repetition runs in a fresh interpreter (``rep.py``), one call at a
time.  Repetitions continue while at least half of one still fits into
``--seconds`` (at least ``MIN_REPS``); the end-to-end metrics are medians
over them.  ``setup_s`` is also sampled by ``SETUP_ONLY`` set-up-only
processes, which start first and count against ``--seconds``.

``--workload all`` runs the four workloads in turn and ends with one object
holding every metric as ``<workload>.<metric>``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones, the per-layer self-time table, and the tracing overhead
(traced minus untraced wall time); the Chrome trace of the last traced
repetition is written under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every output passed its check, 1 when one did not, and 2 when the
benchmark could not run at all (bad arguments, no program sources).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from spans import self_time_rows  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: end-to-end metrics, in manifest order.  ``throughput`` counts each
#: workload's own work item (see ``Workload.unit``) per second of wall time.
END_TO_END = ("throughput", "setup_s", "peak_rss_mb")

#: set-up-only processes an untraced run starts before its repetitions;
#: ``setup_s`` is the median over these and the repetitions' own set-ups.
SETUP_ONLY = 4

#: untraced repetitions per run even when they overrun ``--seconds`` (a
#: median of fewer than three cannot reject one disturbed repetition); a
#: traced run makes at least two (untraced, traced) pairs.
MIN_REPS = 3
MIN_TRACED_PAIRS = 2

#: per-repetition fields kept in the printed record.
REPETITION_FIELDS = ("setup_s", "wall_s", "items", "peak_rss_mb", "digest")

#: a repetition that takes longer than this is killed and the run fails.
REP_TIMEOUT_S = 150.0


def _spawn(
    workload: str,
    seed: int,
    rep: int,
    scratch: Path,
    trace: int,
    *,
    setup_only: bool = False,
    preload: bool = False,
    tiny: bool = False,
    trace_out: Optional[Path] = None,
) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    out = scratch / f"rep-{rep}.json"
    work = scratch / f"rep-{rep}"
    work.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload]
    command += ["--seed", str(seed), "--rep", str(rep), "--trace", str(trace)]
    command += ["--scratch", str(work), "--out", str(out)]
    if setup_only:
        command.append("--setup-only")
    if preload:
        command.append("--preload")
    if tiny:
        command.append("--tiny")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["--spawned-at", repr(time.monotonic())]
    # A session of its own, so the work-queue workers a repetition starts
    # can be stopped with it whatever state it ends in.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        raise RuntimeError(f"{workload} repetition {rep} timed out")
    if code != 0 or not out.exists():
        raise RuntimeError(f"{workload} repetition {rep} exited with status {code}")
    return json.loads(out.read_text())


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a repetition's process group and wait until
    every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(
    workload: str, seed: int, seconds: float, trace: int, scratch: Path
) -> dict:
    """Run repetitions until ``seconds`` is used up; returns the raw records."""
    untraced: List[dict] = []
    traced: List[dict] = []
    setups: List[float] = []
    out_dir = ROOT / ".perfbench_out"
    start = time.monotonic()
    rep = 0
    # A traced run reports no set-up time, so it takes no extra samples.
    for _ in range(0 if trace else SETUP_ONLY):
        record = _spawn(workload, seed, rep, scratch, 0, setup_only=True)
        setups.append(record["setup_s"])
        rep += 1
    durations: List[float] = []
    while True:
        began = time.monotonic()
        record = _spawn(workload, seed, rep, scratch, 0, preload=bool(trace))
        untraced.append(record)
        setups.append(record["setup_s"])
        rep += 1
        if trace:
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"trace-{workload}-seed{seed}.json"
            record = _spawn(
                workload, seed, rep, scratch, 1, preload=True, trace_out=trace_out
            )
            traced.append(record)
            rep += 1
        durations.append(time.monotonic() - began)
        minimum = MIN_TRACED_PAIRS if trace else MIN_REPS
        # Start another repetition while at least half of a typical one
        # fits, so that a run measures ``seconds`` on average instead of
        # stopping up to a whole repetition short (engine-cold's take ~8 s).
        halfway = time.monotonic() - start + _median(durations) / 2
        if len(untraced) >= minimum and halfway > seconds:
            break
    return {"untraced": untraced, "traced": traced, "setups": setups}


def summarize(workload: str, raw: dict, trace: int) -> dict:
    """Medians, the correctness verdict and the printed result object."""
    untraced = raw["untraced"]
    records = untraced + raw["traced"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    digests = {r["digest"] for r in records}
    notes = [note for r in records for note in r["notes"]]
    if len(digests) != 1:
        # The seed fixes every simulated output: repetitions must agree.
        failed = attempted
        notes.append(f"outputs differ between repetitions: {sorted(map(str, digests))}")
    throughputs = [r["items"] / r["wall_s"] for r in untraced if r["wall_s"] > 0]
    end_to_end = {
        "throughput": {"value": _median(throughputs), "unit": "items/s"},
        "setup_s": {"value": _median(raw["setups"]), "unit": "s"},
        "peak_rss_mb": {
            "value": _median([r["peak_rss_mb"] for r in untraced]),
            "unit": "MB",
        },
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "end_to_end": end_to_end,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if trace:
        traced = raw["traced"]
        layers: Dict[str, dict] = {}
        for name, (metric_unit, _) in PER_LAYER.items():
            values = [
                r["layers"].get(name, r["extras"].get(name, 0.0)) for r in traced
            ]
            layers[name] = {"value": _median(values), "unit": metric_unit}
        overhead_s = _median([r["wall_s"] for r in traced]) - _median(
            [r["wall_s"] for r in untraced]
        )
        untraced_wall = _median([r["wall_s"] for r in untraced])
        layers["trace.overhead_s"]["value"] = overhead_s
        layers["trace.overhead_frac"]["value"] = (
            overhead_s / untraced_wall if untraced_wall else 0.0
        )
        result["per_layer"] = layers
    return result


def _print_report(
    workload: str, seed: int, raw: dict, result: dict, stamp: dict
) -> None:
    print(f"== {workload} (seed {seed}) ==")
    for key, value in stamp.items():
        print(f"  {key}: {value}")
    untraced = raw["untraced"]
    print(
        f"  repetitions: {len(untraced)} untraced, {len(raw['traced'])} traced; "
        f"setup samples: {len(raw['setups'])}"
    )
    for line in untraced[-1]["report"]:
        print(f"  {line}")
    unit = WORKLOADS[workload].unit
    for name, metric in result["end_to_end"].items():
        shown = unit if name == "throughput" else metric["unit"]
        print(f"  {name:<12} {metric['value']:>14.4f} {shown}")
    failed_frac = result["failed_frac"]
    print(f"  {'failed_frac':<12} {failed_frac:>14.4f} (of {result['attempted']})")
    for note in result["notes"][:20]:
        print(f"  FAILED: {note}")
    if "per_layer" in result:
        last = raw["traced"][-1]
        wall = last["wall_s"]
        print(f"  per-layer self time, last traced repetition ({wall:.3f} s wall):")
        total = 0.0
        for layer, seconds, share in self_time_rows(last["layer_self_s"], wall):
            total += seconds
            print(f"    {layer:<20} {seconds:>10.4f} s {share:>7.1%}")
        print(f"    {'(sum)':<20} {total:>10.4f} s")
        for name, metric in result["per_layer"].items():
            print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    """Measure one workload, print its report and record, and return its
    result object (the shape of the last output line)."""
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            raw = measure(workload, args.seed, args.seconds, args.trace, Path(scratch))
    finally:
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    stamp["code_version"] = raw["untraced"][0]["code_version"]
    result = summarize(workload, raw, args.trace)
    _print_report(workload, args.seed, raw, result, stamp)
    record = {
        "workload": workload,
        "seed": args.seed,
        **stamp,
        "failed_frac": result["failed_frac"],
        "end_to_end": result["end_to_end"],
        "repetitions": [
            {key: r[key] for key in REPETITION_FIELDS} for r in raw["untraced"]
        ],
    }
    print("record: " + json.dumps(record, sort_keys=True))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if args.trace else result["end_to_end"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload",
        required=True,
        choices=list(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (final,) = results.values()
    else:
        # Every workload's metrics in one object, named <workload>.<metric>.
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
