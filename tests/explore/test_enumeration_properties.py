"""Property-based enumeration contract of :class:`DesignSpace` (hypothesis).

Random spaces of 2-4 axes (one of them list-valued) under 0-3 random
constraints, whose declared axes may be a random subset, ``None`` (every
axis) or overlap each other, must enumerate exactly what a brute-force
filter over ``itertools.product`` keeps, in the same order; count it
without enumerating; run each predicate at most once per distinct
projection; and give a strategy that returns duplicates one frontier entry
per design.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based tests need the hypothesis package")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.explore import (Axis, Constraint, DesignSpace,  # noqa: E402
                           SearchStrategy, run_exploration)
from repro.runner import canonical_json  # noqa: E402

scalar_values = st.lists(st.integers(-3, 12), min_size=1, max_size=4,
                         unique=True)
list_values = st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1,
                       max_size=4, unique_by=canonical_json)


@st.composite
def spaces(draw):
    """``(axes, constraint specs)``; a spec is ``(declared axes, salt)``."""
    count = draw(st.integers(2, 4))
    list_axis = draw(st.integers(0, count - 1))
    axes = [
        (f"a{i}", tuple(draw(list_values if i == list_axis else scalar_values)))
        for i in range(count)
    ]
    names = [name for name, _ in axes]
    declared = st.one_of(
        st.none(),
        st.lists(st.sampled_from(names), min_size=1, unique=True).map(tuple),
    )
    specs = draw(st.lists(st.tuples(declared, st.integers(0, 2**16)),
                          max_size=3))
    return axes, specs


def _verdict(salt, projection) -> bool:
    """A deterministic pseudo-random verdict for one projection."""
    digest = hashlib.sha256(f"{salt}:{canonical_json(projection)}".encode())
    return digest.digest()[0] % 3 != 0


def _build(axes, specs, calls=None):
    """The space, with each predicate logging its projections in ``calls``."""

    def predicate(index, salt):
        def check(projection):
            if calls is not None:
                calls[index].append(canonical_json(dict(projection)))
            return _verdict(salt, dict(projection))
        return check

    constraints = [
        Constraint(f"c{index}", predicate(index, salt), axes=declared)
        for index, (declared, salt) in enumerate(specs)
    ]
    return DesignSpace(
        name="prop",
        kind="prop",
        axes=[Axis(name, values) for name, values in axes],
        constraints=constraints,
    )


def _brute_force(axes, specs):
    names = [name for name, _ in axes]
    kept = []
    for combo in itertools.product(*(values for _, values in axes)):
        assignment = dict(zip(names, combo))
        if all(
            _verdict(salt, {n: assignment[n] for n in (declared or names)})
            for declared, salt in specs
        ):
            kept.append(assignment)
    return kept


@settings(max_examples=150, deadline=None)
@given(space=spaces())
def test_enumeration_equals_a_brute_force_filter(space):
    axes, specs = space
    expected = _brute_force(axes, specs)
    calls = [[] for _ in specs]
    built = _build(axes, specs, calls)
    assert built.points() == expected
    assert list(built.iter_points()) == expected
    for logged in calls:
        assert len(logged) == len(set(logged)), "predicate re-ran a projection"

    counted_first = _build(axes, specs)
    assert counted_first.feasible_count() == len(expected)
    assert counted_first.points() == expected
    assert list(_build(axes, specs).iter_points()) == expected
    enumerated_first = _build(axes, specs)
    assert enumerated_first.points() == expected
    assert enumerated_first.feasible_count() == len(expected)


class _Duplicating(SearchStrategy):
    """Returns every feasible point three times: the same dict twice, then
    an equal dict built separately with its keys in reverse order."""

    name = "duplicating"

    def search(self, space, budget, evaluate, rng, rank):
        candidates = []
        for index, point in enumerate(space.points()):
            # Mutually non-dominated objectives: every design is on the
            # frontier, so the frontier shows each kept candidate.
            payload = {"latency_s": float(index), "offchip_bytes": 0,
                       "utilization": float(index)}
            rebuilt = {name: point[name] for name in reversed(list(point))}
            candidates.append((point, payload))
            candidates.append((point, payload))
            candidates.append((rebuilt, dict(payload)))
        random.Random(0).shuffle(candidates)
        return ([point for point, _ in candidates],
                [payload for _, payload in candidates])


@settings(max_examples=50, deadline=None)
@given(space=spaces())
def test_duplicate_candidates_get_one_frontier_entry(space):
    axes, specs = space
    expected = _brute_force(axes, specs)
    report = run_exploration(_build(axes, specs), _Duplicating(), budget=1,
                             verify_top=0, seed=0)
    assert report.candidates == len(expected)
    ids = [point.point_id for point in report.frontier]
    assert len(ids) == len(set(ids)) == len(expected)
    assert sorted(canonical_json(point.assignment) for point in report.frontier) \
        == sorted(canonical_json(point) for point in expected)
