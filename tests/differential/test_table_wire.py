"""Round trip of a table's column wire form (``repro.analysis.table``).

Work-queue chunk results and chunk-cache entries carry their results as
:func:`~repro.analysis.table.to_wire` text, which the submitter decodes
with :func:`~repro.analysis.table.from_wire`.  For any table -- float64,
int64 and bool columns, object columns holding ints beyond int64, mixed
ints and floats, ``None`` and sequences, ``-0.0``, random masks, nested
masked tables -- and for any list of row dicts, the decoded JSON text reads
as the same rows, encodes to the same canonical JSON, and gives every
key's column in the same dtype.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.table import ColumnTable, exact_column, from_wire, to_wire
from repro.runner import canonical_json

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KEYS = st.text(alphabet="abcxyz_", min_size=1, max_size=4)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
BEYOND_INT64 = st.integers(min_value=2**63, max_value=2**80) | st.integers(
    min_value=-(2**80), max_value=-(2**63) - 1
)
OBJECTS = (
    BEYOND_INT64
    | INT64
    | FLOATS
    | st.none()
    | st.tuples(INT64, FLOATS)
    | st.lists(st.integers(-9, 9), max_size=3)
)


def _cells(draw, strategy, length):
    return draw(st.lists(strategy, min_size=length, max_size=length))


@st.composite
def tables(draw, length=None, depth=0):
    """A one-block table of ``length`` rows (drawn when ``None``)."""
    if length is None:
        length = draw(st.integers(min_value=1, max_value=8))
    kinds = ["float64", "int64", "bool", "objects", "list"]
    if depth < 2:
        kinds.append("nested")
    columns = {}
    masks = {}
    for key in draw(st.lists(KEYS, min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(kinds))
        if kind == "float64":
            column = np.array(_cells(draw, FLOATS, length), dtype=np.float64)
        elif kind == "int64":
            column = np.array(_cells(draw, INT64, length), dtype=np.int64)
        elif kind == "bool":
            column = np.array(_cells(draw, st.booleans(), length), dtype=bool)
        elif kind == "objects":
            column = exact_column(_cells(draw, OBJECTS, length))
        elif kind == "list":
            column = _cells(draw, OBJECTS, length)
        else:
            column = draw(tables(length=length, depth=depth + 1))
        columns[key] = column
        if draw(st.booleans()):
            masks[key] = np.array(_cells(draw, st.booleans(), length))
    return ColumnTable(columns, masks)


ROWS = st.lists(
    st.dictionaries(KEYS, OBJECTS | st.dictionaries(KEYS, FLOATS, max_size=2),
                    max_size=4),
    min_size=1, max_size=6,
)


def _dtype(table, key):
    try:
        return table.column(key).dtype
    except KeyError:
        return "missing"


def _round_trip(table):
    text = json.dumps(to_wire(table), sort_keys=True)
    return text, from_wire(json.loads(text))


def _assert_same_table(back, table):
    rows = list(table)
    assert back == rows
    assert [back[i] for i in range(len(back))] == rows
    assert canonical_json(back) == canonical_json(table)
    keys = {key for row in rows for key in row}
    assert {key: _dtype(back, key) for key in keys} == {
        key: _dtype(table, key) for key in keys
    }


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_tables_round_trip(table):
    text, back = _round_trip(table)
    _assert_same_table(back, table)
    # A decoded table encodes to the text it came from, so a cache entry
    # reads the same whichever process encoded its results.
    assert json.dumps(to_wire(back), sort_keys=True) == text


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_row_dicts_go_through_the_same_writer(rows):
    assert to_wire(rows) == to_wire(ColumnTable.of(rows))
    _, back = _round_trip(rows)
    _assert_same_table(back, ColumnTable.of(rows))


def test_masked_cells_never_ship():
    junk = -123456.5
    table = ColumnTable(
        {
            "latency_s": np.array([1.0, 2.0, 3.0]),
            "link_s": np.array([junk, 0.5, junk]),
            "stage_bounds_s": ColumnTable(
                {"chip0": np.array([junk, 0.25, junk])},
                {"chip0": np.array([False, True, False])},
            ),
        },
        {
            "link_s": np.array([False, True, False]),
            "stage_bounds_s": np.array([False, True, False]),
        },
    )
    wire = to_wire(table)
    assert str(junk) not in json.dumps(wire)
    assert wire["masks"] == {"link_s": "010", "stage_bounds_s": "010"}
    assert wire["columns"]["stage_bounds_s"] == {
        "length": 1, "columns": {"chip0": [0.25]}}
    assert from_wire(wire) == [
        {"latency_s": 1.0},
        {"latency_s": 2.0, "link_s": 0.5, "stage_bounds_s": {"chip0": 0.25}},
        {"latency_s": 3.0},
    ]


def test_an_empty_table_round_trips():
    assert to_wire([]) == {"length": 0, "columns": {}}
    assert len(from_wire(to_wire(ColumnTable()))) == 0


@pytest.mark.parametrize("table", [
    ColumnTable({0: np.array([1.0])}),
    [{"latency_s": 1.0, 7: "x"}],
    ColumnTable({"bounds": ColumnTable({("chip", 0): [1.0]})}),
], ids=["int-key", "row-with-an-int-key", "nested-tuple-key"])
def test_keys_that_are_not_str_are_rejected(table):
    with pytest.raises(TypeError, match="str keys only"):
        to_wire(table)


@pytest.mark.parametrize("wire, problem", [
    ([{"events": 1}], "table object"),
    ({"columns": {}}, "table object"),
    ({"length": True, "columns": {}}, "table object"),
    ({"length": 1}, "columns object"),
    ({"length": 1, "columns": {"events": 1}}, "not a table object"),
    ({"length": 1, "columns": {"events": []}}, "0 cells for 1 rows"),
    ({"length": 1, "columns": {"e": [1]}, "masks": {"e": "10"}}, "not 1 bits"),
    ({"length": 2, "columns": {"e": [1]}, "masks": {"e": "1x"}}, "not 2 bits"),
    ({"length": 1, "columns": {"e": [1]}, "masks": {"f": "1"}}, "no column"),
    ({"length": 1, "columns": {"e": {"length": 2, "columns": {}}}},
     "length 2 for 1 rows"),
], ids=["rows", "no-length", "bool-length", "no-columns", "scalar-column",
        "short-column", "long-mask", "mask-not-bits", "stray-mask",
        "nested-of-wrong-length"])
def test_malformed_wire_objects_raise_value_error(wire, problem):
    with pytest.raises(ValueError, match=problem):
        from_wire(wire)


def test_a_length_other_than_the_expected_raises_before_decoding():
    # A corrupted length is refused before any row is allocated.
    with pytest.raises(ValueError, match="1000000000000 rows for 1 points"):
        from_wire({"length": 10**12, "columns": {}}, length=1)
    assert from_wire({"length": 1, "columns": {"e": [1]}}, length=1) == [{"e": 1}]


def test_a_table_of_several_blocks_is_rejected():
    table = ColumnTable({"e": np.array([1, 2])})
    with pytest.raises(ValueError, match="2 blocks"):
        to_wire(ColumnTable.concat([table, table]))
