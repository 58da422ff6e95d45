"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``, not by hand: sets the workload up, makes the timed
call -- traced or not -- checks the outputs, and writes one JSON record to
``--out``.  ``--spawned-at`` is the parent's ``time.monotonic()`` just
before it started this process; the monotonic clock is system-wide on
Linux, so ``setup_s`` includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Optional, Tuple

from layers import Instrumentation, per_layer_metrics, preload
from spans import Tracer
from workloads import WORKLOADS, Workload, canonical


def _timed_call(
    workload: Workload, tracer: Optional[Tracer]
) -> Tuple[Any, Optional[str], float, float]:
    """``(output, error, started, wall_s)`` of the workload's call."""
    instrumentation = Instrumentation(tracer).install() if tracer else None
    try:
        with workload.observe():
            started = time.monotonic()
            wall_start = time.perf_counter()
            output = error = None
            try:
                with tracer.span("benchmark") if tracer else nullcontext():
                    output = workload.call()
            except Exception:
                error = traceback.format_exc()
            wall_s = time.perf_counter() - wall_start
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    return output, error, started, wall_s


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.tiny, Path(args.scratch))
    record = {"workload": args.workload, "seed": args.seed, "traced": args.trace}
    tracer = Tracer(f"{args.workload}/{args.seed}/{args.rep}") if args.trace else None
    try:
        workload.setup()
        if args.preload:
            preload()
        if args.setup_only:
            record["setup_s"] = time.monotonic() - args.spawned_at
            return record
        output, error, started, wall_s = _timed_call(workload, tracer)
    finally:
        workload.finish()

    from repro.runner.cache import code_version

    record.update(
        setup_s=started - args.spawned_at,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        code_version=code_version(),
        extras=workload.extras(),
    )
    if error is not None:
        attempted = max(workload.items, 1)
        record.update(
            attempted=attempted,
            failed=attempted,
            items=0,
            notes=[error],
            digest=None,
            report=[],
        )
    else:
        check = workload.check(output)
        digest = hashlib.sha256(canonical(workload.outputs(output)).encode())
        record.update(
            attempted=check.attempted,
            failed=check.failed,
            items=workload.items,
            notes=check.notes,
            digest=digest.hexdigest(),
            report=workload.report(output),
        )
    if tracer is not None:
        record["layers"] = per_layer_metrics(tracer)
        record["layer_self_s"] = tracer.layer_self_s()
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    # Both halves of a traced run's (untraced, traced) pair preload, so the
    # overhead compares like with like; a plain run imports as a user does.
    parser.add_argument("--preload", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
