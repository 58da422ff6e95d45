"""Two-phase design-space exploration: analytic search, engine verification.

:func:`run_exploration` is the subsystem's engine room.  Phase one hands the
strategy an evaluation callback that runs each candidate generation on the
**analytic** backend through :func:`~repro.runner.sweep.evaluate_chunked`
-- chunk jobs across the executor (serial, local pool, or the distributed
work queue of :mod:`repro.runner.executors`), cached per chunk, so a
repeated exploration is served from cache byte-identically and a single
exploration can fan its evaluations out beyond one host.  Phase two takes
the Pareto frontier of the full-fidelity candidates (latency down, off-chip
traffic down, utilisation up), re-evaluates the top ``verify_top`` frontier
points on the cycle-level **engine** backend, and checks the certified
contract on every verified point: the analytic latency must lower-bound the
engine latency, and the DDR/LPDDR traffic must match byte for byte.  The
report additionally quantifies proxy trustworthiness as the Kendall tau-b
rank agreement between proxy and verified latency orderings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.pareto import kendall_tau, pareto_frontier, weighted_scalarization
from ..runner.cache import ResultCache
from ..runner.executors import Executor, SerialExecutor
from ..runner.sweep import _validate_chunk_size, evaluate_chunked, run_sweep
from .space import DesignSpace
from .strategies import DEFAULT_HALVING_OBJECTIVES, Candidate, SearchStrategy

__all__ = [
    "COST_OBJECTIVES",
    "DEFAULT_OBJECTIVES",
    "ExplorationReport",
    "FrontierPoint",
    "Objective",
    "PIPELINE_THROUGHPUT_OBJECTIVE",
    "VerifiedPoint",
    "objectives_for",
    "run_exploration",
    "validate_weights",
]

#: relative slack on the lower-bound comparison -- pure float-noise headroom,
#: the analytic model itself is a true bound.
_CONTRACT_RTOL = 1e-9


@dataclass(frozen=True)
class Objective:
    """One Pareto axis: a payload key and an optimisation sense."""

    name: str
    key: str
    sense: str  # "min" or "max"

    def value(self, payload: Mapping[str, Any]) -> float:
        if self.key not in payload:
            raise KeyError(
                f"objective {self.name!r}: key {self.key!r} missing from "
                f"payload {sorted(payload)}"
            )
        return payload[self.key]


#: display names for the canonical (payload key, sense) axes defined in
#: :data:`repro.explore.strategies.DEFAULT_HALVING_OBJECTIVES` -- deriving
#: from that single source keeps halving's selection axes and the frontier
#: extraction axes from ever drifting apart.
_OBJECTIVE_NAMES = {
    "latency_s": "latency",
    "offchip_bytes": "offchip_traffic",
    "utilization": "utilization",
}

DEFAULT_OBJECTIVES: Tuple[Objective, ...] = tuple(
    Objective(_OBJECTIVE_NAMES[key], key, sense)
    for key, sense in DEFAULT_HALVING_OBJECTIVES
)

#: implementation-cost axes every DSE payload carries (``dse_encoder`` and
#: ``dse_chiplet`` alike): total design area and energy per task.  Scorable
#: through ``--weights`` so a weighted exploration can trade chips and link
#: bandwidth against silicon and joules.
COST_OBJECTIVES: Tuple[Objective, ...] = (
    Objective("area", "area_luts", "min"),
    Objective("energy", "energy_j", "min"),
)

#: steady-state pipeline throughput (tasks/s).  For a single chip this is
#: simply ``batch / latency_s``; for a multi-chip pipeline it is set by the
#: busiest stage (chip or link), which is what makes adding chips worth
#: anything on the frontier even though per-task latency only grows.
PIPELINE_THROUGHPUT_OBJECTIVE = Objective(
    "pipeline_throughput", "pipeline_tasks_per_s", "max"
)


def objectives_for(
    space: DesignSpace, weights: Optional[Mapping[str, float]] = None
) -> Tuple[Objective, ...]:
    """The objective axes one exploration of ``space`` should use.

    Chiplet spaces always carry the throughput and cost axes -- without
    them every multi-chip point would be Pareto-dominated by its
    single-chip sibling (same traffic, strictly higher per-task latency).
    Single-chip spaces keep the classic three axes unless the caller's
    ``weights`` explicitly name a throughput/cost key, which keeps the
    historical frontiers (and their cached CI baselines) byte-identical.
    """
    extras = (PIPELINE_THROUGHPUT_OBJECTIVE,) + COST_OBJECTIVES
    if space.kind == "dse_chiplet":
        return DEFAULT_OBJECTIVES + extras
    if weights:
        requested = set(weights)
        opted_in = tuple(o for o in extras if o.key in requested)
        if opted_in:
            return DEFAULT_OBJECTIVES + opted_in
    return DEFAULT_OBJECTIVES


@dataclass
class FrontierPoint:
    """One non-dominated design, as found by the analytic proxy."""

    point_id: str
    assignment: Dict[str, Any]
    objectives: Dict[str, float]
    #: pool-relative weighted-scalarisation score (lower = better), present
    #: only when the exploration ran with ``weights``.
    weighted_score: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "point_id": self.point_id,
            "assignment": self.assignment,
            "objectives": self.objectives,
        }
        if self.weighted_score is not None:
            payload["weighted_score"] = self.weighted_score
        return payload


@dataclass
class VerifiedPoint:
    """A frontier point after cycle-level re-evaluation on the engine."""

    point_id: str
    assignment: Dict[str, Any]
    proxy_latency_s: float
    engine_latency_s: float
    lower_bound_ok: bool
    traffic_match: bool
    engine_objectives: Dict[str, float] = field(default_factory=dict)

    @property
    def contract_ok(self) -> bool:
        return self.lower_bound_ok and self.traffic_match

    @property
    def latency_ratio(self) -> float:
        """Proxy tightness: analytic/engine latency (1.0 = exact)."""
        if not self.engine_latency_s:
            return 0.0
        return self.proxy_latency_s / self.engine_latency_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point_id": self.point_id,
            "assignment": self.assignment,
            "proxy_latency_s": self.proxy_latency_s,
            "engine_latency_s": self.engine_latency_s,
            "latency_ratio": self.latency_ratio,
            "lower_bound_ok": self.lower_bound_ok,
            "traffic_match": self.traffic_match,
            "engine_objectives": self.engine_objectives,
        }


@dataclass
class ExplorationReport:
    """Everything one exploration produced, JSON-able for CI artifacts."""

    space: str
    strategy: str
    budget: int
    seed: int
    objectives: Tuple[Objective, ...]
    feasible_points: int
    evaluations: int
    proxy_cache_hits: int
    candidates: int
    frontier: List[FrontierPoint]
    verified: List[VerifiedPoint]
    rank_agreement: Optional[float]
    proxy_wall_s: float
    verify_wall_s: float
    #: the proxy evaluation path -- always "batched" since the sweep proxy
    #: was removed; kept so reports keep their "proxy" key.
    proxy: str = "batched"
    #: the payload-key -> weight mapping of a weighted exploration (None for
    #: pure non-domination ordering).
    weights: Optional[Dict[str, float]] = None

    @property
    def contract_ok(self) -> bool:
        """True iff every verified point satisfied the lower-bound contract."""
        return all(point.contract_ok for point in self.verified)

    def to_dict(self) -> Dict[str, Any]:
        objectives = [
            {"name": o.name, "key": o.key, "sense": o.sense} for o in self.objectives
        ]
        return {
            "space": self.space,
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "proxy": self.proxy,
            "weights": self.weights,
            "objectives": objectives,
            "feasible_points": self.feasible_points,
            "evaluations": self.evaluations,
            "proxy_cache_hits": self.proxy_cache_hits,
            "candidates": self.candidates,
            "frontier": [point.to_dict() for point in self.frontier],
            "verified": [point.to_dict() for point in self.verified],
            "contract_ok": self.contract_ok,
            "rank_agreement": self.rank_agreement,
            "proxy_wall_s": self.proxy_wall_s,
            "verify_wall_s": self.verify_wall_s,
        }


def _objective_vector(
    payload: Mapping[str, Any], objectives: Sequence[Objective]
) -> List[float]:
    return [objective.value(payload) for objective in objectives]


def validate_weights(
    weights: Optional[Mapping[str, float]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> None:
    """Reject weight keys that name no objective (``KeyError``).

    Shared by :func:`run_exploration` and the CLI, so the CLI can classify
    the failure as a user error (exit 2) *before* the exploration runs
    instead of catching exceptions around the whole run.
    """
    if weights is None:
        return
    known = {objective.key for objective in objectives}
    unknown = sorted(set(weights) - known)
    if unknown:
        raise KeyError(f"unknown objective weight key(s) {unknown}; "
                       f"known: {sorted(known)}")


def _verify_frontier(
    space: DesignSpace,
    targets: Sequence[FrontierPoint],
    proxies: Mapping[str, Candidate],
    objectives: Sequence[Objective],
    executor: Executor,
    cache: Optional[ResultCache],
    force: bool,
) -> List[VerifiedPoint]:
    """Re-evaluate ``targets`` on the engine and check the proxy contract."""
    points = [space.materialize(point.assignment) for point in targets]
    outcomes = run_sweep(
        [point.scenario for point in points],
        executor=executor,
        cache=cache,
        force=force,
        backend="engine",
    )
    verified = []
    for target, outcome in zip(targets, outcomes):
        proxy = proxies[target.point_id].payload
        engine = outcome.result
        engine_latency = engine["latency_s"] * (1.0 + _CONTRACT_RTOL)
        bound_ok = proxy["latency_s"] <= engine_latency
        traffic_ok = (
            proxy["ddr_bytes"] == engine["ddr_bytes"]
            and proxy["lpddr_bytes"] == engine["lpddr_bytes"]
        )
        engine_objectives = {}
        for objective in objectives:
            engine_objectives[objective.name] = objective.value(engine)
        verified.append(
            VerifiedPoint(
                point_id=target.point_id,
                assignment=dict(target.assignment),
                proxy_latency_s=proxy["latency_s"],
                engine_latency_s=engine["latency_s"],
                lower_bound_ok=bound_ok,
                traffic_match=traffic_ok,
                engine_objectives=engine_objectives,
            )
        )
    return verified


def run_exploration(
    space: DesignSpace,
    strategy: SearchStrategy,
    budget: int = 200,
    verify_top: int = 8,
    seed: Optional[int] = 0,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    proxy: str = "batched",
    weights: Optional[Mapping[str, float]] = None,
    executor: Optional[Executor] = None,
    chunk_size: Optional[Any] = None,
) -> ExplorationReport:
    """Search ``space`` with ``strategy`` and verify the frontier.

    Parameters mirror the sweep front-end where they overlap (``executor``,
    ``cache``, ``force``); ``budget`` bounds the strategy's total analytic
    evaluations and ``verify_top`` bounds the engine re-evaluations (0 skips
    verification entirely -- e.g. for pure proxy benchmarks).

    ``executor`` is the :class:`~repro.runner.executors.Executor` every
    evaluation batch -- the strategy's proxy generations and the engine
    verification pass alike -- fans out through; its lifecycle belongs to
    the caller; ``SerialExecutor()`` when omitted.

    Every strategy generation is evaluated by
    :func:`~repro.runner.sweep.evaluate_chunked` on the analytic backend: the
    kind's registered batch runner shares tallies across points and
    vectorizes the rooflines, and a kind without one runs its scalar runner
    point by point.  Generations shard into **chunk jobs** across
    ``executor`` and are cached per chunk in ``cache``, so a warm rerun
    skips whole chunks -- reported through ``proxy_cache_hits``.
    ``chunk_size`` is one of :data:`~repro.runner.sweep.CHUNK_SIZE_POLICIES`
    (``None`` keeps a serial executor on one whole-generation batch call and
    auto-shards on distributed executors; ``"auto"`` always shards) or an
    explicit ``int`` points-per-chunk.

    ``proxy`` accepts only ``"batched"``: the per-point sweep proxy was
    removed, and any other value raises ``KeyError``.

    ``weights`` (payload key -> non-negative weight, e.g. ``{"latency_s": 2,
    "offchip_bytes": 1}``) turns the report's ordering from pure
    non-domination into the weighted scalarisation of
    :func:`~repro.analysis.pareto.weighted_scalarization`: every frontier
    point carries its pool-relative score, the frontier is sorted best-score
    first, and ``verify_top`` certifies the best-scoring points instead of
    the lowest-latency ones.  (To also *select* halving survivors by weight,
    construct the strategy with the same weights -- the CLI does both.)
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if verify_top < 0:
        raise ValueError(f"verify_top must be >= 0, got {verify_top}")
    validate_weights(weights, objectives)
    _validate_chunk_size(chunk_size)  # fail before any evaluation runs
    if proxy != "batched":
        raise KeyError(
            f"unknown proxy mode {proxy!r}; the sweep proxy was removed, "
            "every generation is evaluated batched"
        )
    if executor is None:
        executor = SerialExecutor()
    if seed is None:
        # Draw an explicit seed and record it in the report: a run seeded
        # from OS entropy must still be replayable by passing the reported
        # seed back in.  (random.Random(None) would seed identically but
        # leave no trace of the effective seed.)
        seed = random.SystemRandom().randrange(2**32)
    rng = random.Random(seed)
    # Streaming count: a 10^6-point space is never materialised just to be
    # sized (strategies that need the indexed list still build it).
    feasible_points = space.feasible_count()
    chunk_align = space.chunk_alignment()
    stats = {"evaluations": 0, "cache_hits": 0}

    def evaluate(
        assignments: Sequence[Mapping[str, Any]], fidelity: float
    ) -> List[Dict[str, Any]]:
        payloads, chunk_hits = evaluate_chunked(
            space.kind,
            [space.point_params(a, fidelity) for a in assignments],
            backend="analytic",
            executor=executor,
            cache=cache,
            force=force,
            chunk_size=chunk_size,
            align=chunk_align,
        )
        stats["evaluations"] += len(payloads)
        stats["cache_hits"] += chunk_hits
        return payloads

    proxy_start = time.perf_counter()
    candidates = strategy.search(space, budget, evaluate, rng)
    proxy_wall_s = time.perf_counter() - proxy_start

    # Dedup by design identity (a strategy may legitimately revisit points).
    unique: Dict[str, Candidate] = {}
    for candidate in candidates:
        unique.setdefault(candidate.point_id, candidate)
    pool = list(unique.values())

    senses = [objective.sense for objective in objectives]
    vectors = [_objective_vector(c.payload, objectives) for c in pool]
    # Pool-relative weighted scores (the normalisation cohort is the whole
    # candidate pool, not just the frontier, so scores reflect the search).
    scores: Optional[List[float]] = None
    if weights is not None and pool:
        weight_vector = [weights.get(objective.key, 0.0)
                         for objective in objectives]
        scores = weighted_scalarization(vectors, senses, weight_vector)
    frontier_indices = pareto_frontier(vectors, senses) if pool else []
    frontier = []
    for index in frontier_indices:
        named_values = {}
        for objective, value in zip(objectives, vectors[index]):
            named_values[objective.name] = value
        frontier.append(
            FrontierPoint(
                point_id=pool[index].point_id,
                assignment=dict(pool[index].assignment),
                objectives=named_values,
                weighted_score=scores[index] if scores is not None else None,
            )
        )
    # Best-first: by weighted score when the user gave weights, by latency
    # otherwise -- the verification set and the report read top-down.
    if scores is not None:
        frontier.sort(key=lambda p: (p.weighted_score, p.point_id))
    else:
        frontier.sort(key=lambda p: (p.objectives.get("latency", 0.0),
                                     p.point_id))

    verified: List[VerifiedPoint] = []
    verify_wall_s = 0.0
    if verify_top and frontier:
        verify_start = time.perf_counter()
        verified = _verify_frontier(
            space,
            frontier[:verify_top],
            unique,
            objectives,
            executor,
            cache,
            force,
        )
        verify_wall_s = time.perf_counter() - verify_start

    agreement = None
    if len(verified) >= 2:
        agreement = kendall_tau(
            [point.proxy_latency_s for point in verified],
            [point.engine_latency_s for point in verified],
        )

    return ExplorationReport(
        space=space.name,
        strategy=strategy.name,
        budget=budget,
        seed=seed,
        objectives=tuple(objectives),
        feasible_points=feasible_points,
        evaluations=stats["evaluations"],
        proxy_cache_hits=stats["cache_hits"],
        candidates=len(pool),
        frontier=frontier,
        verified=verified,
        rank_agreement=agreement,
        proxy_wall_s=proxy_wall_s,
        verify_wall_s=verify_wall_s,
        weights=dict(weights) if weights is not None else None,
    )
