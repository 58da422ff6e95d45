"""Differential pin: a generation's column table == batch-of-one rows.

The DSE batch runners return a :class:`~repro.analysis.table.ColumnTable`
and :func:`~repro.runner.sweep.evaluate_chunked` splices one table per
generation from computed chunks and chunk-cache hits.  Whatever the
chunking, cold or warm, the table must read as exactly the scalar runner's
payloads (each a batch of one on a fresh evaluator), encode to the JSON of
the list of its rows, and hand out rows that share no container with the
table or with each other.  The error paths of the table route -- an
unknown parameter, an infeasible design, a missing objective key -- raise
what the scalar path raises.
"""

from __future__ import annotations

import json
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.table import ColumnTable, exact_column
from repro.explore import (GridSearch, Objective, SuccessiveHalving,
                           get_space, run_exploration)
from repro.explore.strategies import SearchStrategy
from repro.runner import REGISTRY, ResultCache
from repro.runner.sweep import evaluate_chunked

SPACES = ("encoder-smoke", "chiplet-smoke")


def _generation(space_name):
    space = get_space(space_name)
    params = [space.point_params(point) for point in space.points()]
    scalar = REGISTRY.runner(space.kind, "analytic")
    return space.kind, params, [scalar(**point) for point in params]


_GENERATIONS = {name: _generation(name) for name in SPACES}


def _mutate(row):
    """Change one row in place, nested containers included."""
    row["latency_s"] = -1.0
    row["extra"] = True
    if "cuts" in row:
        row["cuts"].append(99)
        row["stage_bounds_s"]["chip0"] = -1.0


@pytest.mark.parametrize("space_name", SPACES)
@settings(max_examples=8, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                      max_size=3))
def test_tables_equal_batch_of_one_rows_under_any_chunking(space_name, sizes):
    kind, params, expected = _GENERATIONS[space_name]
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        for chunk_size in sizes:
            for _ in ("cold", "warm"):
                table, _hits = evaluate_chunked(
                    kind, params, backend="analytic", cache=cache,
                    chunk_size=chunk_size)
                assert isinstance(table, ColumnTable)
                assert len(table) == len(expected)
                assert table == expected
                assert [table[i] for i in range(len(table))] == expected


@pytest.mark.parametrize("space_name", SPACES)
def test_rows_share_no_container(space_name):
    kind, params, expected = _GENERATIONS[space_name]
    for chunk_size in (None, 5):
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root)
            for _ in ("cold", "warm"):
                table, _ = evaluate_chunked(kind, params, backend="analytic",
                                            cache=cache, chunk_size=chunk_size)
                rows = list(table)
                multi = [i for i, row in enumerate(rows) if "cuts" in row]
                target = multi[0] if multi else 0
                _mutate(rows[target])
                _mutate(table[target])
                assert table == expected
                assert [row for i, row in enumerate(rows) if i != target] == [
                    row for i, row in enumerate(expected) if i != target]


def test_batch_table_keeps_the_scalar_key_order():
    # The unsorted JSON of the batch table is the scalar rows', key order
    # included, for single- and multi-chip points alike.
    kind, params, expected = _GENERATIONS["chiplet-smoke"]
    table = REGISTRY.batch_runner(kind, "analytic")(params)
    assert json.dumps(list(table)) == json.dumps(expected)
    assert json.dumps([table[i] for i in range(len(table))]) == json.dumps(expected)


@pytest.mark.parametrize("chunk_size", range(1, 13))
def test_chunked_table_keeps_the_scalar_key_order(chunk_size):
    # Chunks of 2-chip and 4-chip points carry nested stage_bounds_s tables
    # with different stage keys; joining them keeps every chunk's key order.
    kind, params, expected = _GENERATIONS["chiplet-smoke"]
    table, _ = evaluate_chunked(kind, params, backend="analytic",
                                chunk_size=chunk_size)
    assert json.dumps(list(table)) == json.dumps(expected)
    assert json.dumps([table[i] for i in range(len(table))]) == json.dumps(expected)


def test_cells_keep_their_python_types():
    # Ints beyond int64 and mixed-type cells live in object columns; a row
    # reads them back as the values they were, never as rounded floats.
    big = [2**70, 1]
    mixed = [1, 2.5]
    table = ColumnTable({"big": exact_column(big), "mixed": exact_column(mixed),
                         "cuts": [(1,), (1, 2)]})
    expected = [{"big": 2**70, "mixed": 1, "cuts": [1]},
                {"big": 1, "mixed": 2.5, "cuts": [1, 2]}]
    assert list(table) == expected
    assert [table[0], table[-1]] == expected
    assert [type(row["mixed"]) for row in table] == [int, float]
    assert table.column("big").tolist() == big


# ------------------------------------------------------------- error paths


@pytest.mark.parametrize("kind", ["dse_encoder", "dse_chiplet"])
def test_unknown_parameter_raises_type_error(kind):
    with pytest.raises(TypeError, match="bogus_knob"):
        evaluate_chunked(kind, [{"seq_len": 64}, {"bogus_knob": 1}],
                         backend="analytic")


@pytest.mark.parametrize("kind", ["dse_encoder", "dse_chiplet"])
def test_infeasible_point_raises(kind):
    with pytest.raises(ValueError):
        evaluate_chunked(kind, [{"seq_len": 64}, {"num_mme": 40}],
                         backend="analytic")


def _table_without(key, count=4):
    kind, params, _ = _GENERATIONS["encoder-smoke"]
    table = REGISTRY.batch_runner(kind, "analytic")(params[:count])
    rows = list(table)
    del rows[-1][key]
    return ColumnTable.concat([table, rows])


def test_objective_column_names_the_missing_key():
    table = _table_without("offchip_bytes")
    objective = Objective("offchip_traffic", "offchip_bytes", "min")
    with pytest.raises(KeyError, match="offchip_bytes") as excinfo:
        objective.column(table)
    assert "offchip_traffic" in str(excinfo.value)
    assert "row 7" in str(excinfo.value)
    with pytest.raises(KeyError, match="offchip_bytes"):
        objective.value(table[7])


def test_halving_rank_names_the_missing_key(monkeypatch):
    # The explorer's rank reads every objective of halving's first rung.
    import repro.explore.explore as explore

    def lossy(kind, params_list, **kwargs):
        return _table_without("utilization", len(params_list)), 0

    monkeypatch.setattr(explore, "evaluate_chunked", lossy)
    with pytest.raises(KeyError, match="utilization") as excinfo:
        run_exploration(get_space("encoder-smoke"), SuccessiveHalving(),
                        budget=12, verify_top=0, seed=0)
    assert "objective 'utilization'" in str(excinfo.value)


def test_exploration_names_the_missing_key():
    space = get_space("encoder-smoke")

    class Lossy(SearchStrategy):
        name = "lossy"

        def search(self, space, budget, evaluate, rng, rank):
            points = space.points()[:6]
            table = evaluate(points, 1.0)
            rows = list(table)
            del rows[random.Random(0).randrange(len(rows))]["latency_s"]
            return points, rows

    with pytest.raises(KeyError, match="latency_s"):
        run_exploration(space, Lossy(), budget=6, verify_top=0, seed=0)


def test_grid_payload_rows_are_built_on_access():
    space = get_space("encoder-smoke")
    found = []

    class Recording(GridSearch):
        def search(self, *args):
            points, payloads = super().search(*args)
            found.append(payloads)
            return points, payloads

    run_exploration(space, Recording(), budget=16, verify_top=0, seed=0)
    _, params, expected = _GENERATIONS["encoder-smoke"]
    (payloads,) = found
    assert list(payloads) == expected
    first = payloads[0]
    first["latency_s"] = -1.0
    assert payloads[0] == expected[0]
