"""Load sweeps and engine re-certification for serving runs.

This is the coordination layer the ``serve`` CLI subcommand drives.  A
throughput-latency curve is a sweep of ``serve_sim`` scenarios over
offered load -- ordinary :func:`~repro.runner.sweep.run_sweep` data, so it
fans out over any executor and caches like everything else.

Re-certification mirrors the DSE verify-top contract: the analytic cost
the simulator charged for a (class, batch size) dispatch must be a true
lower bound on the cycle-level engine's latency for the identical
``dse_encoder`` scenario (relative tolerance ``CONTRACT_RTOL``), with
byte-identical DDR and LPDDR traffic.  The *sampled subset* is the most
frequent (class, batch) pairs across the run's batch mix -- the dispatches
that dominate the tail.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..runner.cache import ResultCache
from ..runner.executors import Executor
from ..runner.scenarios import CONTRACT_RTOL, Scenario, check_contract
from ..runner.sweep import SweepOutcome, run_sweep
from .cost import engine_params
from .traffic import get_workload

__all__ = [
    "CONTRACT_RTOL",
    "recertify_batch_mix",
    "run_load_sweep",
    "throughput_latency_curve",
]


def serve_scenarios(params: Dict[str, Any], loads: Sequence[float]) -> List[Scenario]:
    """Ad-hoc ``serve_sim`` scenarios, one per offered load.

    ``params`` is a full ``serve_sim`` parameter set; each scenario
    overrides ``rate``.  For closed-loop traffic pass a single-element
    ``loads`` (the rate is ignored by the runner but still names the
    scenario).
    """
    workload = params.get("workload", "encoder-mix")
    policy = params.get("policy", "dynamic")
    return [
        Scenario(
            name=f"serve/{workload}-{policy}-load{load:g}",
            kind="serve_sim",
            params={**params, "rate": load},
        )
        for load in loads
    ]


def run_load_sweep(
    params: Dict[str, Any],
    loads: Sequence[float],
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
) -> List[SweepOutcome]:
    """Run one ``serve_sim`` configuration across ``loads`` offered loads."""
    if not loads:
        raise ValueError("at least one offered load is required")
    return run_sweep(
        serve_scenarios(params, loads),
        backend="analytic",
        executor=executor,
        cache=cache,
        force=force,
    )


def throughput_latency_curve(outcomes: Sequence[SweepOutcome]) -> List[Dict[str, Any]]:
    """The curve rows: offered load vs goodput and tail latency."""
    rows = []
    for outcome in outcomes:
        result = outcome.result
        latency = result["latency"]
        rows.append(
            {
                "offered_load_rps": result["offered_load_rps"],
                "goodput_rps": result["goodput_rps"],
                "completed": result["completed"],
                "dropped": result["dropped"],
                "timed_out": result["timed_out"],
                "p50_s": latency["p50_s"],
                "p99_s": latency["p99_s"],
                "p999_s": latency["p999_s"],
                "p999_exact": latency["p999_exact"],
                "utilization": result["utilization"],
            }
        )
    return rows


def _merge_batch_mixes(results: Sequence[dict]) -> List[dict]:
    """Sum batch-mix counts across runs (payloads per key are identical)."""
    merged: Dict[tuple, dict] = {}
    for result in results:
        for entry in result["batch_mix"]:
            key = (entry["class"], entry["batch"])
            if key in merged:
                merged[key]["count"] += entry["count"]
            else:
                merged[key] = dict(entry)
    return sorted(merged.values(), key=lambda e: (-e["count"], e["class"], e["batch"]))


def recertify_batch_mix(
    results: Sequence[dict],
    top: int = 2,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
) -> List[Dict[str, Any]]:
    """Engine-verify the ``top`` most frequent (class, batch) dispatches.

    ``results`` are ``serve_sim`` result dicts (typically one load sweep).
    Returns one record per verified pair with the two contract checks:
    ``bound_ok`` (analytic <= engine, rtol ``CONTRACT_RTOL``) and
    ``traffic_ok`` (byte-identical DDR + LPDDR traffic).
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    merged = _merge_batch_mixes(results)[:top]
    if not merged:
        return []
    workload = get_workload(results[0]["workload"])
    class_index = {cls.name: i for i, cls in enumerate(workload.classes)}
    scenarios = [
        Scenario(
            name=f"serve-cert/{entry['class']}-b{entry['batch']}",
            kind="dse_encoder",
            params=engine_params(workload, class_index[entry["class"]], entry["batch"]),
        )
        for entry in merged
    ]
    outcomes = run_sweep(
        scenarios,
        backend="engine",
        executor=executor,
        cache=cache,
        force=force,
    )
    records = []
    for entry, outcome in zip(merged, outcomes):
        engine = outcome.result
        bound_ok, traffic_ok = check_contract(entry, engine)
        records.append(
            {
                "class": entry["class"],
                "batch": entry["batch"],
                "count": entry["count"],
                "proxy_latency_s": entry["latency_s"],
                "engine_latency_s": engine["latency_s"],
                "bound_ok": bound_ok,
                "traffic_ok": traffic_ok,
            }
        )
    return records
