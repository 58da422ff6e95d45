"""Property-based tests: the Pareto frontier and ranks equal the all-pairs
scan (requires hypothesis).

:func:`~repro.analysis.pareto.pareto_frontier` and
:func:`~repro.analysis.pareto.pareto_ranks` work on per-objective integer
ranks in NumPy.  Their contract is the quadratic definition: a point is on
the frontier iff no other point :func:`~repro.analysis.pareto.dominates`
it, and rank r is the frontier of what remains after peeling ranks < r.
The drawn sets mix senses, repeat points, tie single objectives, hold
``0.0`` and ``-0.0`` side by side and ints above 2**53 (which must compare
exactly, never rounded through float64), and include sets where every
point is on the frontier.  Both input forms are checked: points as rows,
and a column table of their objectives.

If ``hypothesis`` is not installed the module is skipped as a whole (the
hand-computed cases in ``tests/explore/test_pareto.py`` still run).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based tests need the hypothesis package")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.pareto import (dominates, pareto_frontier,  # noqa: E402
                                   pareto_ranks)
from repro.analysis.table import ColumnTable, exact_column  # noqa: E402

_BIG = 2**53

#: per-column value pools: few distinct values, so ties and duplicates are
#: common.  Big ints differ by 1 above 2**53, where float64 cannot tell
#: them apart.
_POOLS = (
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, -1.0]),
    st.sampled_from([0, 1, 2, _BIG, _BIG + 1, _BIG + 2, 2**63 + 5]),
    st.sampled_from([0, -0.0, 0.0, 1, 1.5, _BIG + 1, float(_BIG)]),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def objective_sets(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    pools = [draw(st.sampled_from(_POOLS)) for _ in range(width)]
    senses = draw(st.lists(st.sampled_from(["min", "max"]),
                           min_size=width, max_size=width))
    distinct = draw(st.lists(st.tuples(*pools), min_size=0, max_size=12))
    points = draw(st.lists(st.sampled_from(distinct), max_size=30)
                  if distinct else st.just([]))
    return points, senses


@st.composite
def all_on_frontier(draw):
    """Points on a trade-off line (better in one objective, worse in the
    other) plus copies: nothing dominates anything."""
    count = draw(st.integers(min_value=1, max_value=25))
    big = draw(st.booleans())
    offset = _BIG if big else 0
    points = [(offset + index, offset - index) for index in range(count)]
    points += draw(st.lists(st.sampled_from(points), max_size=10))
    return draw(st.permutations(points)), ["min", "min"]


def _scan(points, senses):
    return [index for index, point in enumerate(points)
            if not any(dominates(other, point, senses) for other in points)]


def _peel(points, senses):
    ranks = [None] * len(points)
    remaining = list(range(len(points)))
    rank = 0
    while remaining:
        front = _scan([points[index] for index in remaining], senses)
        for position in front:
            ranks[remaining[position]] = rank
        remaining = [index for position, index in enumerate(remaining)
                     if position not in set(front)]
        rank += 1
    return ranks


def _table(points, width):
    return ColumnTable({column: exact_column([point[column] for point in points])
                        for column in range(width)})


@settings(max_examples=300, deadline=None)
@given(objective_sets())
def test_frontier_equals_the_all_pairs_scan(case):
    points, senses = case
    expected = _scan(points, senses)
    assert pareto_frontier(points, senses) == expected
    if points:
        assert pareto_frontier(_table(points, len(senses)), senses) == expected


@settings(max_examples=100, deadline=None)
@given(all_on_frontier())
def test_a_pure_trade_off_keeps_every_point(case):
    points, senses = case
    assert pareto_frontier(points, senses) == list(range(len(points)))
    assert pareto_ranks(points, senses) == [0] * len(points)


@settings(max_examples=200, deadline=None)
@given(objective_sets())
def test_ranks_equal_peeling_by_the_scan(case):
    points, senses = case
    expected = _peel(points, senses)
    assert pareto_ranks(points, senses) == expected
    if points:
        assert pareto_ranks(_table(points, len(senses)), senses) == expected


def test_ints_above_2_53_are_never_rounded():
    # As float64 both points would be equal, so neither would dominate.
    points = [(_BIG, 1.0), (_BIG + 1, 1.0)]
    assert pareto_frontier(points, ["min", "min"]) == [0]
    assert pareto_frontier(points, ["max", "min"]) == [1]
    assert pareto_frontier(_table(points, 2), ["min", "min"]) == [0]
    assert pareto_frontier(_table(points, 2), ["max", "min"]) == [1]
