"""Search strategies over a :class:`~repro.explore.space.DesignSpace`.

A strategy decides *which* points to evaluate and at *what* fidelity; the
explorer (:mod:`repro.explore.explore`) decides *how* -- batching every
request through the sweep front-end's pluggable execution executor (serial,
local process pool, or the distributed work queue of
:mod:`repro.runner.executors`) and result cache -- and owns the objectives,
the weights and the ranking.  The contract is the
:meth:`SearchStrategy.search` method: given the space, an evaluation
budget, a batch-evaluation callback and the explorer's cohort ranking,
return the points that were evaluated at **full fidelity** (only those are
comparable on the Pareto axes; reduced-fidelity rung results are selection
scaffolding) and the payload table ``evaluate`` returned for them.

All strategies are deterministic under a fixed seed: they draw randomness
only from the ``random.Random`` instance the explorer hands them, and they
pick *positions* in the space's canonical enumeration order, handing
``evaluate`` the :class:`~repro.explore.space.Assignments` at them -- so no
assignment dict is built per point on the way to the batch evaluator.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .space import DesignSpace

__all__ = [
    "EvaluateFn",
    "GridSearch",
    "RandomSearch",
    "RankFn",
    "STRATEGIES",
    "SearchStrategy",
    "SuccessiveHalving",
    "get_strategy",
    "strategy_names",
]


#: ``evaluate(assignments, fidelity) -> payloads`` -- provided by the
#: explorer; a :class:`~repro.analysis.table.ColumnTable` with one payload
#: row per assignment, in order (any sequence of payload dicts will do).
#: ``assignments`` is any sequence of assignment mappings; the space's own
#: :class:`~repro.explore.space.Assignments` is the one resolved without a
#: dict per point.
EvaluateFn = Callable[[Sequence[Mapping[str, Any]], float], Sequence[Dict[str, Any]]]

#: ``rank(payloads) -> scores`` -- provided by the explorer from its own
#: objectives and weights; one score per payload, lower is better.
RankFn = Callable[[Sequence[Mapping[str, Any]]], Sequence[float]]

#: what :meth:`SearchStrategy.search` returns: the full-fidelity points and
#: the payloads ``evaluate`` returned for them (row ``i`` is point ``i``'s).
SearchResult = Tuple[Sequence[Mapping[str, Any]], Sequence[Dict[str, Any]]]


class SearchStrategy:
    """Base class; concrete strategies implement :meth:`search`."""

    name = "abstract"

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
        rank: RankFn,
    ) -> SearchResult:
        """Evaluate points of ``space`` through ``evaluate``, within
        ``budget`` evaluations; return the full-fidelity points and the
        payload table ``evaluate`` returned for them, row ``i`` for point
        ``i``.  ``rank`` scores any cohort of payloads (lower is better)."""
        raise NotImplementedError


class GridSearch(SearchStrategy):
    """Deterministic coverage of the feasible grid.

    When the budget is smaller than the feasible set, points are taken at an
    even stride across the canonical enumeration order, so every axis region
    still contributes candidates (a plain prefix would exhaust the budget
    inside the first corner of the space).

    Selection is stride arithmetic on positions --
    ``int(i * feasible / budget)`` for ``i`` in ``range(budget)`` -- over
    the feasible count, so nothing is enumerated to pick the points.
    """

    name = "grid"

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
        rank: RankFn,
    ) -> SearchResult:
        total = space.feasible_count()
        if budget < total:
            # ``i * stride`` in float64 and truncated: exactly the Python
            # ``int(i * stride)``; strictly increasing since stride > 1.
            positions = (np.arange(budget) * (total / budget)).astype(np.intp)
        else:
            positions = np.arange(total)
        points = space.assignments(positions)
        return points, evaluate(points, 1.0)


class RandomSearch(SearchStrategy):
    """Uniform sampling without replacement from the feasible set.

    ``rng.sample(range(n), k)`` draws the positions of exactly the points
    ``rng.sample(points, k)`` draws from the list of all ``n``: the sample
    depends only on ``n``, ``k`` and the generator's state.
    """

    name = "random"

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
        rank: RankFn,
    ) -> SearchResult:
        total = space.feasible_count()
        if budget < total:
            positions = rng.sample(range(total), budget)
        else:
            positions = np.arange(total)
        points = space.assignments(positions)
        return points, evaluate(points, 1.0)


class SuccessiveHalving(SearchStrategy):
    """Multi-fidelity successive halving on the explorer's ranking.

    Rung 0 evaluates a large random cohort at a cheap reduced fidelity (the
    space's fidelity hook, e.g. a shortened sequence); each subsequent rung
    keeps the best ``1/eta`` of the cohort -- ordered by the ``rank``
    callback (non-domination rank over the exploration's objectives, or
    their weighted scalarisation), ties broken deterministically by point
    id -- and re-evaluates the survivors at ``eta`` times the fidelity,
    until the final rung runs at full fidelity.  The returned points are
    exactly the final rung's survivors.

    ``budget`` bounds the *total* number of evaluations across all rungs
    (cache hits included), which is the fair comparison against grid/random
    search: with the same budget, halving spends most of it cheaply and
    funnels full-fidelity effort onto promising designs.
    """

    name = "halving"

    def __init__(
        self,
        eta: int = 2,
        min_fidelity: float = 0.25,
        min_final: int = 4,
    ):
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        if not 0.0 < min_fidelity <= 1.0:
            raise ValueError(f"min_fidelity must be in (0, 1], got {min_fidelity}")
        if min_final < 1:
            raise ValueError(f"min_final must be >= 1, got {min_final}")
        self.eta = eta
        self.min_fidelity = min_fidelity
        #: halving stops once the cohort reaches this size: a classic SHA
        #: would converge to a single winner, but the explorer wants a small
        #: *frontier-comparable* pool at full fidelity, not one point.
        self.min_final = min_final

    # ------------------------------------------------------------- planning

    def plan(self, feasible: int, budget: int) -> List[int]:
        """Cohort size per rung: geometric decay, total <= budget.

        The initial cohort is the largest ``n0 <= feasible`` whose halving
        series fits the budget; the series ends once the cohort reaches
        ``min_final`` (the full-fidelity survivor pool).
        """
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        n0 = min(feasible, budget)
        while n0 > 1:
            sizes = self._series(n0)
            if sum(sizes) <= budget:
                return sizes
            n0 -= 1
        return [1]

    def _series(self, n0: int) -> List[int]:
        sizes = [n0]
        while sizes[-1] > self.min_final:
            sizes.append(max(self.min_final, sizes[-1] // self.eta))
        return sizes

    def _fidelity(self, rung: int, rungs: int) -> float:
        """Fidelity ladder: final rung 1.0, each earlier rung /eta, floored."""
        fidelity = 1.0 / (self.eta ** (rungs - 1 - rung))
        return max(self.min_fidelity, fidelity)

    # -------------------------------------------------------------- search

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
        rank: RankFn,
    ) -> SearchResult:
        total = space.feasible_count()
        sizes = self.plan(total, budget)
        if sizes[0] < total:
            cohort = rng.sample(range(total), sizes[0])
        else:
            cohort = list(range(total))
        rungs = len(sizes)
        point_ids: Dict[int, str] = {}  # position -> point id, across rungs
        payloads: Sequence[Dict[str, Any]] = []
        for rung, size in enumerate(sizes):
            cohort = cohort[:size]
            points = space.assignments(cohort)
            fidelity = self._fidelity(rung, rungs)
            payloads = evaluate(points, fidelity)
            if rung == rungs - 1:
                break
            ranks = rank(payloads)
            unnamed = [position for position in cohort if position not in point_ids]
            for position, assignment in zip(unnamed, space.assignments(unnamed)):
                point_ids[position] = space.point_id(assignment)
            order = sorted(
                range(len(cohort)),
                key=lambda i: (ranks[i], point_ids[cohort[i]]),
            )
            cohort = [cohort[i] for i in order]
        return points, payloads


#: registry of CLI-selectable strategies (name -> factory).
STRATEGIES = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    SuccessiveHalving.name: SuccessiveHalving,
}


def strategy_names() -> List[str]:
    return sorted(STRATEGIES)


def get_strategy(name: str) -> SearchStrategy:
    """Construct a strategy by name, with its default settings.

    A strategy carries no objectives or weights: the explorer ranks cohorts
    for it (see :meth:`SearchStrategy.search`), so one strategy object
    serves a plain, a weighted and a chiplet exploration alike.
    """
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown search strategy {name!r}; known: {strategy_names()}"
        ) from None
    return factory()
