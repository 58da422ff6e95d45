"""Property-based contract of a space's position tables (hypothesis).

A generation of a :class:`DesignSpace` is a set of positions in its
enumeration order; :meth:`DesignSpace.params_table` resolves them into a
column table of runner parameters without a dict per point.  Over random
spaces -- list-valued, bool and mixed int/float axes, a ``seq_len`` axis
or base parameter for the fidelity hook, declared and undeclared
constraints -- and fidelities in (0, 1], every row of that table must be
exactly :meth:`DesignSpace.point_params` of the assignment at its
position, value for value and type for type; positions must map back to
:meth:`DesignSpace.points` in order; and a hand-built infeasible or
unknown-axis assignment must still raise the ``ValueError`` that names
the problem.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based tests need the hypothesis package")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.table import ColumnTable, from_wire  # noqa: E402
from repro.explore import (Axis, Constraint, DesignSpace,  # noqa: E402
                           SearchStrategy, get_space, run_exploration)
from repro.explore.space import Assignments, scale_seq_len  # noqa: E402
from repro.runner import REGISTRY, canonical_json  # noqa: E402
from repro.runner.cache import chunk_identity  # noqa: E402
from repro.runner.sweep import partition_chunks  # noqa: E402

scalar_values = st.lists(st.integers(-3, 12), min_size=1, max_size=4,
                         unique=True)
list_values = st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1,
                       max_size=4, unique_by=canonical_json)
bool_values = st.sampled_from([(False,), (True,), (False, True), (True, False)])
#: ints and floats in one axis (distinct by equality, as an Axis demands).
mixed_values = st.lists(st.one_of(st.integers(0, 5), st.sampled_from([0.5, 2.5])),
                        min_size=1, max_size=4, unique=True)
seq_len_values = st.lists(st.integers(16, 512), min_size=1, max_size=3,
                          unique=True)


@st.composite
def spaces(draw):
    """``(axes, constraint specs, base params)``; a spec is ``(declared
    axes, salt)``."""
    kinds = draw(st.lists(st.sampled_from(["int", "list", "bool", "mixed"]),
                          min_size=1, max_size=4))
    drawn = {"int": scalar_values, "list": list_values, "bool": bool_values,
             "mixed": mixed_values}
    axes = [(f"a{i}", tuple(draw(drawn[kind]))) for i, kind in enumerate(kinds)]
    base = {"model": "bert_large"}
    seq_lens = tuple(draw(seq_len_values))
    if draw(st.booleans()):
        axes.insert(draw(st.integers(0, len(axes))), ("seq_len", seq_lens))
    else:
        base["seq_len"] = seq_lens[0]
    names = [name for name, _ in axes]
    declared = st.one_of(
        st.none(),
        st.lists(st.sampled_from(names), min_size=1, unique=True).map(tuple),
    )
    specs = draw(st.lists(st.tuples(declared, st.integers(0, 2**16)),
                          max_size=3))
    return axes, specs, base


def _verdict(salt, projection) -> bool:
    """A deterministic pseudo-random verdict for one projection."""
    digest = hashlib.sha256(f"{salt}:{canonical_json(projection)}".encode())
    return digest.digest()[0] % 3 != 0


def _build(axes, specs, base, fidelity_hook=scale_seq_len):
    constraints = [
        Constraint(f"c{index}",
                   lambda projection, salt=salt: _verdict(salt, dict(projection)),
                   axes=declared)
        for index, (declared, salt) in enumerate(specs)
    ]
    return DesignSpace(
        name="prop",
        kind="prop",
        axes=[Axis(name, values) for name, values in axes],
        base_params=base,
        constraints=constraints,
        fidelity_hook=fidelity_hook,
    )


def _typed(value):
    """``value`` with the type of every scalar in it spelled out."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_typed(item) for item in value]]
    return [type(value).__name__, value]


def _tag_a0(params, fraction):
    """A fidelity hook other than the default, read and written per row."""
    params["a0"] = [params.get("a0"), fraction]
    return params


fidelities = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=150, deadline=None)
@given(space=spaces(), fidelity=fidelities, data=st.data())
def test_params_table_rows_are_point_params(space, fidelity, data):
    axes, specs, base = space
    built = _build(axes, specs, base)
    points = built.points()
    positions = data.draw(st.lists(st.integers(0, max(len(points) - 1, 0)),
                                   max_size=12)) if points else []
    table = built.params_table(positions, fidelity)
    assert len(table) == len(positions)
    for position, row in zip(positions, table):
        expected = built.point_params(points[position], fidelity)
        assert _typed(row) == _typed(expected)
        assert list(row) == list(expected)  # key order too
    every = built.params_table(list(range(len(points))), fidelity)
    assert [_typed(row) for row in every] == [
        _typed(built.point_params(point, fidelity)) for point in points]


@settings(max_examples=60, deadline=None)
@given(space=spaces(), fidelity=fidelities)
def test_other_fidelity_hooks_run_per_row(space, fidelity):
    axes, specs, base = space
    built = _build(axes, specs, base, fidelity_hook=_tag_a0)
    points = built.points()
    table = built.params_table(list(range(len(points))), fidelity)
    assert [_typed(row) for row in table] == [
        _typed(built.point_params(point, fidelity)) for point in points]


@settings(max_examples=150, deadline=None)
@given(space=spaces(), data=st.data())
def test_positions_map_back_to_points_in_order(space, data):
    axes, specs, base = space
    built = _build(axes, specs, base)
    points = built.points()
    assert built.feasible_count() == len(points)
    every = built.assignments()
    assert isinstance(every, Assignments)
    assert list(every) == points
    assert every == points
    assert [_typed(point) for point in every] == [_typed(p) for p in points]
    if not points:
        return
    positions = data.draw(st.lists(st.integers(0, len(points) - 1),
                                   max_size=12))
    picked = built.assignments(positions)
    assert list(picked) == [points[position] for position in positions]
    assert [picked[index] for index in range(len(picked))] == list(picked)
    assert list(picked[1::2]) == list(picked)[1::2]


def _space_with_a_constraint():
    return DesignSpace(
        name="guarded",
        kind="prop",
        axes=(Axis("a", (1, 2, 3)), Axis("b", ([0], [1, 1]))),
        base_params={"seq_len": 128},
        constraints=(Constraint("a_is_small", lambda p: p["a"] < 3,
                                axes=("a",)),),
    )


@pytest.mark.parametrize("fidelity", [1.0, 0.5])
def test_hand_built_infeasible_assignment_names_the_constraint(fidelity):
    space = _space_with_a_constraint()
    assert space.feasible_count() == 4
    with pytest.raises(ValueError, match="a_is_small"):
        space.point_params({"a": 3, "b": [0]}, fidelity)


def test_hand_built_unknown_axis_names_the_axis():
    space = _space_with_a_constraint()
    with pytest.raises(ValueError, match="'bogus'"):
        space.point_params({"a": 1, "b": [0], "bogus": 2})


def test_params_table_rejects_a_fidelity_out_of_range():
    space = _space_with_a_constraint()
    for fidelity in (0.0, 1.5):
        with pytest.raises(ValueError, match="fidelity"):
            space.params_table([0], fidelity)


def test_explorer_rejects_a_hand_built_infeasible_assignment():
    # A sequence that is not the space's own positions enters the explorer
    # through point_params, which checks every assignment.
    class HandBuilt(SearchStrategy):
        name = "hand-built"

        def search(self, space, budget, evaluate, rng, rank):
            points = [{"a": 1, "b": [0]}, {"a": 3, "b": [0]}]
            return points, evaluate(points, 1.0)

    with pytest.raises(ValueError, match="a_is_small"):
        run_exploration(_space_with_a_constraint(), HandBuilt(), budget=2,
                        verify_top=0, seed=0)


@pytest.mark.parametrize("fidelity", [1.0, 0.25])
@pytest.mark.parametrize("name", ["encoder-smoke", "chiplet-smoke",
                                  "chiplet-encoder"])
def test_chunk_identity_texts_are_those_of_the_point_params(name, fidelity):
    # The text that keys a chunk, ships in its job and names its cache
    # entry is the same whether the chunk is a slice of a position table
    # or a table of point_params dicts, and the rows a worker decodes from
    # it are the point_params, value for value and type for type.
    space = get_space(name)
    table = space.params_table(np.arange(space.feasible_count()), fidelity)
    dicts = [space.point_params(point, fidelity) for point in space.points()]
    size = 1000 if len(dicts) > 100 else 5
    for start, stop in partition_chunks(len(dicts), size):
        chunk = table[start:stop]
        assert isinstance(chunk, ColumnTable)
        identity = chunk_identity(space.kind, chunk, "analytic")
        assert identity == chunk_identity(
            space.kind, ColumnTable.of(dicts[start:stop]), "analytic")
        decoded = list(from_wire(json.loads(identity)["params"]))
        assert canonical_json(_typed(decoded)) == canonical_json(
            _typed(dicts[start:stop]))


@pytest.mark.parametrize("name", REGISTRY.names())
def test_scenario_chunk_identities_decode_to_the_scenario_params(name):
    # A sweep ships each scenario as a row of a parameter table: a worker
    # decodes the chunk's identity to the scenario's params, value for
    # value and type for type, and a list of the same row is the same chunk.
    scenario = REGISTRY.get(name)
    params = dict(scenario.params)
    identity = chunk_identity(scenario.kind, ColumnTable.of([params]), "engine")
    decoded = from_wire(json.loads(identity)["params"])
    assert [_typed(row) for row in decoded] == [_typed(params)]
    assert chunk_identity(scenario.kind, [params], "engine") == identity


def test_table_slices_share_columns_and_read_defaults():
    rows = [{"a": 1, "b": [1]}, {"a": 2}, {"a": 3, "b": [3]}, {"a": 4.5}]
    table = ColumnTable.concat([ColumnTable.of(rows[:2]), ColumnTable.of(rows[2:])])
    for cut in (slice(None), slice(1, 3), slice(3, 1, -1), slice(None, None, 2),
                slice(5, 9)):
        assert isinstance(table[cut], ColumnTable)
        assert list(table[cut]) == rows[cut]
    assert table.keys() == ["a", "b"]
    assert table.column("b", [0]).tolist() == [[1], [0], [3], [0]]
    assert table.column("c", "x").tolist() == ["x"] * 4
    assert [type(value) for value in table.column("a", 0).tolist()] == [
        int, int, int, float]
    with pytest.raises(KeyError, match="'b' missing from row 1"):
        table.column("b")
