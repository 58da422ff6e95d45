"""Search strategies over a :class:`~repro.explore.space.DesignSpace`.

A strategy decides *which* points to evaluate and at *what* fidelity; the
explorer (:mod:`repro.explore.explore`) decides *how* -- batching every
request through the sweep front-end's pluggable execution executor (serial,
local process pool, or the distributed work queue of
:mod:`repro.runner.executors`) and result cache.  The contract is the
:meth:`SearchStrategy.search` method: given the space, an
evaluation budget, and a batch-evaluation callback, return the candidates
that were evaluated at **full fidelity** (only those are comparable on the
Pareto axes; reduced-fidelity rung results are selection scaffolding).

All strategies are deterministic under a fixed seed: they draw randomness
only from the ``random.Random`` instance the explorer hands them, and they
iterate the space in its canonical enumeration order.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.pareto import pareto_ranks, weighted_scalarization
from ..analysis.table import ColumnTable
from .space import DesignSpace

__all__ = [
    "Candidate",
    "EvaluateFn",
    "GridSearch",
    "RandomSearch",
    "STRATEGIES",
    "SearchStrategy",
    "SuccessiveHalving",
    "get_strategy",
    "objective_columns",
    "strategy_names",
]


class Candidate:
    """One full-fidelity evaluated design point.

    ``Candidate(assignment, payload, space)`` holds a ready payload
    mapping; :meth:`row` points at row ``index`` of a generation's
    :class:`~repro.analysis.table.ColumnTable` instead, and the payload is
    built each time it is read -- a generation evaluates many points but a
    report reads only its frontier's payloads.
    """

    __slots__ = ("assignment", "space", "rows", "index", "_point_id")

    def __init__(
        self,
        assignment: Mapping[str, Any],
        payload: Mapping[str, Any],
        space: DesignSpace,
    ):
        self.assignment = assignment
        self.space = space
        #: the payloads this candidate's is one of, and its position there.
        self.rows: Sequence[Mapping[str, Any]] = (payload,)
        self.index = 0
        self._point_id: Optional[str] = None

    @classmethod
    def row(
        cls,
        assignment: Mapping[str, Any],
        table: ColumnTable,
        index: int,
        space: DesignSpace,
    ) -> "Candidate":
        """The candidate whose payload is row ``index`` of ``table``."""
        candidate = cls.__new__(cls)
        candidate.assignment = assignment
        candidate.space = space
        candidate.rows = table
        candidate.index = index
        candidate._point_id = None
        return candidate

    @property
    def payload(self) -> Mapping[str, Any]:
        return self.rows[self.index]

    @property
    def point_id(self) -> str:
        """The point's stable id, hashed on first access: a generation
        evaluates many points but a report shows only its frontier's ids."""
        if self._point_id is None:
            self._point_id = self.space.point_id(self.assignment)
        return self._point_id

    def __repr__(self) -> str:
        return f"Candidate(assignment={self.assignment!r})"


#: ``evaluate(assignments, fidelity) -> payloads`` -- provided by the
#: explorer; a :class:`~repro.analysis.table.ColumnTable` with one payload
#: row per assignment, in order (any sequence of payload dicts will do).
EvaluateFn = Callable[[Sequence[Mapping[str, Any]], float], Sequence[Dict[str, Any]]]


def objective_columns(
    payloads: Sequence[Mapping[str, Any]], keys: Sequence[str], owner: str
) -> List[np.ndarray]:
    """The ``keys`` columns of ``payloads`` (a table or any sequence of
    payload dicts); a missing key raises ``KeyError`` naming ``owner``,
    the key and the first payload without it."""
    table = ColumnTable.of(payloads)
    columns = []
    for key in keys:
        try:
            columns.append(table.column(key))
        except KeyError as error:
            raise KeyError(f"{owner}: {error.args[0]}") from None
    return columns


class SearchStrategy:
    """Base class; concrete strategies implement :meth:`search`."""

    name = "abstract"

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
    ) -> List[Candidate]:
        raise NotImplementedError

    @staticmethod
    def _candidates(
        space: DesignSpace,
        assignments: Sequence[Mapping[str, Any]],
        payloads: Sequence[Dict[str, Any]],
    ) -> List[Candidate]:
        table = ColumnTable.of(payloads)
        return [
            Candidate.row(dict(assignment), table, index, space)
            for index, assignment in zip(range(len(table)), assignments)
        ]


class GridSearch(SearchStrategy):
    """Deterministic coverage of the feasible grid.

    When the budget is smaller than the feasible set, points are taken at an
    even stride across the canonical enumeration order, so every axis region
    still contributes candidates (a plain prefix would exhaust the budget
    inside the first corner of the space).

    Selection is fully deterministic, so the feasible set is consumed as a
    *stream* (:meth:`~repro.explore.space.DesignSpace.iter_points`): the
    strided indices are computed from the feasible count and picked off the
    generator, and a 10^6-point space never materialises as a list.  The
    seeded-sampling strategies (random, halving) still need the indexed
    list -- ``rng.sample`` over a stream would change their draws.
    """

    name = "grid"

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
    ) -> List[Candidate]:
        total = space.feasible_count()
        if budget < total:
            # Identical selection to the old list-index path:
            # ``points[int(i * stride)]`` for i in range(budget), with the
            # wanted indices strictly increasing (stride > 1), picked off
            # the stream in one pass.
            stride = total / budget
            wanted = {int(i * stride) for i in range(budget)}
            points = [
                point
                for index, point in enumerate(space.iter_points())
                if index in wanted
            ]
        else:
            points = list(space.iter_points())
        payloads = evaluate(points, 1.0)
        return self._candidates(space, points, payloads)


class RandomSearch(SearchStrategy):
    """Uniform sampling without replacement from the feasible set."""

    name = "random"

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
    ) -> List[Candidate]:
        points = space.points()
        if budget < len(points):
            points = rng.sample(points, budget)
        payloads = evaluate(points, 1.0)
        return self._candidates(space, points, payloads)


#: the canonical DSE objective axes, as (payload key, sense) pairs.  This is
#: the single source of truth: halving selects survivors on these, and
#: :data:`repro.explore.explore.DEFAULT_OBJECTIVES` derives its frontier
#: axes from the same tuple.
DEFAULT_HALVING_OBJECTIVES: Tuple[Tuple[str, str], ...] = (
    ("latency_s", "min"),
    ("offchip_bytes", "min"),
    ("utilization", "max"),
)


class SuccessiveHalving(SearchStrategy):
    """Multi-fidelity successive halving on Pareto rank.

    Rung 0 evaluates a large random cohort at a cheap reduced fidelity (the
    space's fidelity hook, e.g. a shortened sequence); each subsequent rung
    keeps the best ``1/eta`` of the cohort -- ordered by non-domination rank
    over the DSE objectives, ties broken deterministically by point id --
    and re-evaluates the survivors at ``eta`` times the fidelity, until the
    final rung runs at full fidelity.  The returned candidates are exactly
    the final rung's survivors.

    ``budget`` bounds the *total* number of evaluations across all rungs
    (cache hits included), which is the fair comparison against grid/random
    search: with the same budget, halving spends most of it cheaply and
    funnels full-fidelity effort onto promising designs.
    """

    name = "halving"

    def __init__(
        self,
        eta: int = 2,
        objectives: Sequence[Tuple[str, str]] = DEFAULT_HALVING_OBJECTIVES,
        min_fidelity: float = 0.25,
        min_final: int = 4,
        weights: Optional[Mapping[str, float]] = None,
    ):
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        if not 0.0 < min_fidelity <= 1.0:
            raise ValueError(f"min_fidelity must be in (0, 1], got {min_fidelity}")
        if min_final < 1:
            raise ValueError(f"min_final must be >= 1, got {min_final}")
        self.eta = eta
        self.objectives = tuple(objectives)
        self.min_fidelity = min_fidelity
        #: halving stops once the cohort reaches this size: a classic SHA
        #: would converge to a single winner, but the explorer wants a small
        #: *frontier-comparable* pool at full fidelity, not one point.
        self.min_final = min_final
        #: optional payload-key -> weight mapping; when set, survivor
        #: selection uses the weighted scalarisation of
        #: :func:`repro.analysis.pareto.weighted_scalarization` instead of
        #: non-domination rank.  Keys must be objective payload keys; unknown
        #: keys fail loudly (a typo'd weight must not silently become rank
        #: selection).
        if weights:
            known = {key for key, _sense in self.objectives}
            unknown = sorted(set(weights) - known)
            if unknown:
                raise ValueError(f"unknown objective weight key(s) {unknown}; "
                                 f"known: {sorted(known)}")
        self.weights = dict(weights) if weights else None

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

    def _rank(self, payloads: Sequence[Mapping[str, Any]]) -> Sequence[float]:
        """Selection score per payload; lower is better.

        Non-domination rank by default; the weighted scalarisation when
        :attr:`weights` is set (both orders are consumed identically by the
        deterministic ``(score, point_id)`` survivor sort).  Both read the
        payloads' objective columns.
        """
        keys = [key for key, _sense in self.objectives]
        columns = objective_columns(payloads, keys, "successive halving objective")
        cohort = ColumnTable(dict(enumerate(columns)))
        senses = [sense for _key, sense in self.objectives]
        if self.weights is not None:
            weight_vector = [self.weights.get(key, 0.0) for key in keys]
            return weighted_scalarization(cohort, senses, weight_vector)
        return pareto_ranks(cohort, senses)

    # -------------------------------------------------------------- search

    def search(
        self,
        space: DesignSpace,
        budget: int,
        evaluate: EvaluateFn,
        rng: random.Random,
    ) -> List[Candidate]:
        points = space.points()
        sizes = self.plan(len(points), budget)
        if sizes[0] < len(points):
            cohort = rng.sample(points, sizes[0])
        else:
            cohort = list(points)
        rungs = len(sizes)
        payloads: Sequence[Dict[str, Any]] = []
        for rung, size in enumerate(sizes):
            cohort = cohort[:size]
            fidelity = self._fidelity(rung, rungs)
            payloads = evaluate(cohort, fidelity)
            if rung == rungs - 1:
                break
            ranks = self._rank(payloads)
            order = sorted(
                range(len(cohort)),
                key=lambda i: (ranks[i], space.point_id(cohort[i])),
            )
            cohort = [cohort[i] for i in order]
        return self._candidates(space, cohort, payloads)


#: registry of CLI-selectable strategies (name -> factory).
STRATEGIES = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    SuccessiveHalving.name: SuccessiveHalving,
}


def strategy_names() -> List[str]:
    return sorted(STRATEGIES)


def get_strategy(
    name: str,
    weights: Optional[Mapping[str, float]] = None,
    objectives: Optional[Sequence[Tuple[str, str]]] = None,
) -> SearchStrategy:
    """Construct a strategy by name.

    ``weights`` (payload key -> weight) configures weighted-scalarisation
    survivor selection on strategies that rank cohorts -- currently only
    successive halving; grid and random evaluate every candidate regardless
    of score, so weights are ignored for them (the explorer still applies
    them to the frontier ordering).  ``objectives`` overrides halving's
    ``(payload key, sense)`` selection axes -- the explorer passes the
    space's axes here so e.g. a chiplet exploration ranks cohorts on the
    same throughput/cost axes its frontier uses (and so weights naming
    those axes validate instead of being rejected).
    """
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown search strategy {name!r}; known: {strategy_names()}"
        ) from None
    if factory is SuccessiveHalving and (weights or objectives is not None):
        kwargs: Dict[str, Any] = {}
        if objectives is not None:
            kwargs["objectives"] = tuple(objectives)
        if weights:
            kwargs["weights"] = weights
        return SuccessiveHalving(**kwargs)
    return factory()
