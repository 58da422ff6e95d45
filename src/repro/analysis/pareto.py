"""Multi-objective dominance, Pareto frontiers, and rank agreement.

The design-space explorer (:mod:`repro.explore`) searches with the cheap
analytic proxy and then re-evaluates its frontier on the cycle-level engine;
this module holds the objective-space mathematics both phases share:

* :func:`pareto_frontier` -- the set of non-dominated points under mixed
  minimise/maximise senses (latency and off-chip traffic down, utilisation
  up);
* :func:`pareto_ranks` -- successive-frontier ranks ("peel" depth), the
  unit-free cohort score successive halving selects on;
* :func:`kendall_tau` -- the tau-b rank-correlation between the proxy's
  ordering and the engine's verified ordering, which quantifies how much the
  certified-lower-bound proxy can be trusted to *rank* designs even where its
  absolute latencies are optimistic.

The pairwise helpers (:func:`dominates`, :func:`kendall_tau`) keep their
pure-Python O(n^2) formulations -- they only ever see small cohorts
(verified frontiers of tens of points).  :func:`pareto_frontier` and
:func:`pareto_ranks`, however, sit on the DSE hot path: an exploration
extracts the frontier of its *entire candidate pool* (10^4--10^6 points).
They read the objectives column by column -- from a sequence of points, or
straight from a :class:`~repro.analysis.table.ColumnTable` of objective
columns without building a row -- and work on per-objective integer ranks
in NumPy, returning exactly the indices of the all-pairs scan over
:func:`dominates`.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional, Sequence, Union

import numpy as np

from .table import ColumnTable, exact_column

__all__ = [
    "MAXIMIZE",
    "MINIMIZE",
    "check_weights",
    "dominates",
    "kendall_tau",
    "pareto_frontier",
    "pareto_ranks",
    "weighted_scalarization",
]

MINIMIZE = "min"
MAXIMIZE = "max"

#: points as rows, or a table whose keys ``0 .. k-1`` are the objectives.
Points = Union[Sequence[Sequence[float]], ColumnTable]


def _check(points: Sequence[Sequence[float]], senses: Sequence[str]) -> None:
    for sense in senses:
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError(
                f"unknown sense {sense!r}; use {MINIMIZE!r} or {MAXIMIZE!r}"
            )
    for point in points:
        if len(point) != len(senses):
            raise ValueError(
                f"point {tuple(point)} has {len(point)} "
                f"objectives but {len(senses)} senses given"
            )


def dominates(a: Sequence[float], b: Sequence[float], senses: Sequence[str]) -> bool:
    """True iff ``a`` is at least as good as ``b`` everywhere and better
    somewhere (the standard strict Pareto dominance, sense-aware)."""
    _check((a, b), senses)
    strictly_better = False
    for value_a, value_b, sense in zip(a, b, senses):
        if sense == MINIMIZE:
            if value_a > value_b:
                return False
            strictly_better = strictly_better or value_a < value_b
        else:
            if value_a < value_b:
                return False
            strictly_better = strictly_better or value_a > value_b
    return strictly_better


def _columns(points: Points, senses: Sequence[str]) -> List[np.ndarray]:
    """One exact column per sense (:func:`~repro.analysis.table.exact_column`).

    A :class:`~repro.analysis.table.ColumnTable` is read by key ``0`` to
    ``len(senses) - 1`` -- its rows index like points -- and any other
    sequence of points is transposed.
    """
    if isinstance(points, ColumnTable):
        _check((), senses)
        return [points.column(index) for index in range(len(senses))]
    _check(points, senses)
    return [exact_column(values) for values in zip(*points)]


def _goodness(
    columns: Sequence[np.ndarray], senses: Sequence[str], count: int
) -> np.ndarray:
    """Per-objective dense ranks, larger = better, as an int64 matrix with
    one row per point.

    Ranks keep every comparison of the values (equal values share a rank,
    ``0.0`` and ``-0.0`` included), so dominance on ranks is dominance on
    the objectives, whatever their type.
    """
    ranks = np.empty((count, len(senses)), dtype=np.int64)
    for index, (column, sense) in enumerate(zip(columns, senses)):
        _, inverse = np.unique(column, return_inverse=True)
        inverse = inverse.reshape(-1)
        ranks[:, index] = -inverse if sense == MINIMIZE else inverse
    return ranks


def _frontier(ranks: np.ndarray) -> np.ndarray:
    """Positions of the non-dominated rows of a goodness-rank matrix,
    ascending.

    Rows are visited in lexicographically descending order, so a row can
    only be dominated by an earlier one (a dominator is elementwise >= with
    one coordinate strictly greater, hence lexicographically greater).  The
    first remaining row is therefore on the frontier: it is admitted, and
    every remaining row it dominates is dropped in one array operation.
    Equal rows never dominate each other, so duplicates are all kept.
    """
    count, width = ranks.shape
    if not width:
        return np.arange(count)
    order = np.lexsort(-ranks[:, ::-1].T)
    remaining = ranks[order]
    frontier = []
    while len(order):
        head = remaining[0]
        frontier.append(order[0])
        rest = remaining[1:]
        dominated = (rest <= head).all(axis=1) & (rest < head).any(axis=1)
        keep = ~dominated
        order = order[1:][keep]
        remaining = rest[keep]
    return np.sort(np.array(frontier, dtype=np.intp))


def pareto_frontier(points: Points, senses: Sequence[str]) -> List[int]:
    """Indices of the non-dominated points, in their original order.

    ``points`` is a sequence of points, or a table of objective columns
    keyed ``0 .. k-1``.  Duplicate points are all kept (none
    dominates the other), so callers that dedup by design identity keep
    exactly one representative per design.  The result equals the
    all-pairs scan over :func:`dominates`; the work is one array operation
    per frontier point.
    """
    columns = _columns(points, senses)
    if not len(points):
        return []
    return _frontier(_goodness(columns, senses, len(points))).tolist()


def pareto_ranks(points: Points, senses: Sequence[str]) -> List[int]:
    """Non-domination rank of every point (0 = on the frontier).

    Rank r is the frontier of what remains after peeling ranks ``< r`` --
    the NSGA-style successive-frontier depth.  Unlike raw objective values
    this is unit-free, which is what makes it usable as the selection score
    for successive halving across wildly different objective scales.
    """
    columns = _columns(points, senses)
    if not len(points):
        return []
    ranks = np.zeros(len(points), dtype=np.int64)
    goodness = _goodness(columns, senses, len(points))
    remaining = np.arange(len(points))
    rank = 0
    while len(remaining):
        peel = _frontier(goodness[remaining])
        ranks[remaining[peel]] = rank
        keep = np.ones(len(remaining), dtype=bool)
        keep[peel] = False
        remaining = remaining[keep]
        rank += 1
    return ranks.tolist()


def check_weights(weights: Mapping[Any, float]) -> None:
    """Raise ``ValueError`` unless every weight is finite and non-negative
    and at least one is positive: the one statement of the weight rules,
    for the CLI, the explorer and :func:`weighted_scalarization` alike."""
    for name, weight in weights.items():
        if not math.isfinite(weight):
            raise ValueError(f"weights must be finite, got {name}={weight:g}")
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {name}={weight:g}")
    if not any(weight > 0 for weight in weights.values()):
        raise ValueError("at least one weight must be positive")


def weighted_scalarization(
    points: Points,
    senses: Sequence[str],
    weights: Sequence[float],
) -> List[float]:
    """Weighted-sum scalarisation of a multi-objective cohort; lower is better.

    Each objective column is min-max normalised over the cohort to [0, 1]
    with 0 at the cohort's *best* value for that sense (smallest under
    ``min``, largest under ``max``) and 1 at its worst; a constant column
    normalises to 0 everywhere (it cannot discriminate).  The score of a
    point is the weight-weighted sum of its normalised objectives -- the
    user-tunable alternative to pure non-domination rank: weights express
    how many units of normalised regret in one objective the user trades
    for one unit in another.

    ``weights`` must align with ``senses`` and pass :func:`check_weights`.
    Scores are comparable only within one call (the normalisation is
    cohort-relative, exactly like Pareto ranks).  ``points`` may be a table
    of objective columns, as for :func:`pareto_frontier`.
    """
    columns = _columns(points, senses)
    if len(weights) != len(senses):
        raise ValueError(
            f"{len(weights)} weight(s) given for {len(senses)} objective(s)"
        )
    check_weights({f"#{index}": weight for index, weight in enumerate(weights)})
    if not len(points):
        return []
    scores = [0.0] * len(points)
    for column, sense, weight in zip(columns, senses, weights):
        if not weight:
            continue
        values = column.tolist()
        lo, hi = min(values), max(values)
        span = hi - lo
        if not span:
            continue
        for index, value in enumerate(values):
            if sense == MINIMIZE:
                normalised = (value - lo) / span
            else:
                normalised = (hi - value) / span
            scores[index] += weight * normalised
    return scores


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Kendall's tau-b between two paired samples (ties corrected).

    Returns ``None`` when either sample is constant (tau is undefined -- no
    pair is discordant or concordant), and for fewer than two pairs.
    """
    if len(x) != len(y):
        raise ValueError(f"paired samples differ in length: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        return None
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    pairs = n * (n - 1) // 2
    denom_x = pairs - ties_x
    denom_y = pairs - ties_y
    if denom_x == 0 or denom_y == 0:
        return None
    return (concordant - discordant) / (denom_x * denom_y) ** 0.5
