"""Differential pin: projected, memoised constraints == raw predicates.

A :class:`~repro.explore.space.DesignSpace` evaluates each constraint once
per distinct value tuple of the axes it declares and hands the predicate
only that projection.  This suite pins that the memoisation changes *how
often* a predicate runs, never *which* points are feasible: for every
catalogue space and for the benchmark bigsweep space, the memoised
enumeration equals a plain walk of the cartesian product that calls every
raw predicate on the full assignment -- same points, same order -- and
``point_params`` rejects exactly the points that walk rejects, naming the
same constraints.  A constraint that omits ``axes`` keys on every axis and
still sees the full assignment, as before axes could be declared.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

from repro.explore.space import Constraint, DesignSpace
from repro.explore.spaces import SPACES

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _bigsweep_space() -> DesignSpace:
    if str(_BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(_BENCHMARKS))
    import bench_sharded_batch

    return bench_sharded_batch.bigsweep_space()


_FACTORIES = dict(SPACES, bigsweep=_bigsweep_space)


def _raw_walk(space: DesignSpace):
    """Every assignment with the names of the raw predicates it fails."""
    names = [axis.name for axis in space.axes]
    for combo in itertools.product(*(axis.values for axis in space.axes)):
        assignment = dict(zip(names, combo))
        failed = [c.name for c in space.constraints if not c.predicate(assignment)]
        yield assignment, failed


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_memoised_enumeration_equals_raw_predicate_walk(name):
    space = _FACTORIES[name]()
    walk = list(_raw_walk(space))
    expected = [assignment for assignment, failed in walk if not failed]
    assert expected, "every space must have feasible points"

    assert list(space.iter_points()) == expected
    assert space.feasible_count() == len(expected)
    assert space.points() == expected

    for assignment, failed in walk:
        if not failed:
            space.point_params(assignment)
            continue
        with pytest.raises(ValueError) as error:
            space.point_params(assignment)
        assert f"violates constraint(s) {failed}" in str(error.value)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_omitted_axes_behave_like_full_assignment_predicates(name):
    declared = SPACES[name]()
    seen = []

    def recording(constraint):  # the same predicate, with axes omitted
        def predicate(assignment):
            seen.append(sorted(assignment))
            return constraint.predicate(assignment)

        return Constraint(constraint.name, predicate, constraint.description)

    undeclared = DesignSpace(
        name=declared.name,
        kind=declared.kind,
        axes=declared.axes,
        base_params=declared.base_params,
        constraints=[recording(c) for c in declared.constraints],
    )
    assert list(undeclared.iter_points()) == list(declared.iter_points())
    every_axis = sorted(axis.name for axis in declared.axes)
    assert all(keys == every_axis for keys in seen)
