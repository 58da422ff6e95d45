"""Round trip of a table's column wire form (``repro.analysis.table``).

Work-queue chunk results and chunk-cache entries carry their results as
:func:`~repro.analysis.table.to_wire` text, which the submitter decodes
with :func:`~repro.analysis.table.from_wire`.  For any table -- float64,
int64 and bool columns, object columns holding ints beyond int64, mixed
ints and floats, ``None`` and sequences, ``-0.0``, random masks, nested
masked tables -- and for any list of row dicts, the decoded JSON text reads
as the same rows, encodes to the same canonical JSON, and gives every
key's column in the same dtype.  A :meth:`~repro.analysis.table.ColumnTable.concat`
of drawn tables and row lists is one table of all their rows, which
round-trips the same way and reads each column in the dtype
:func:`~repro.analysis.table.exact_column` gives the rows' cells.

Float64, int64 and bool columns ship as base64 of their little-endian
bytes: the form follows the cells, not the container that held them, the
bytes round-trip bit for bit (``-0.0``, the int64 extremes, NaN and the
infinities of a result), and a binary column whose dtype, base64 text or
byte count is wrong is refused with the column's name.
"""

from __future__ import annotations

import base64
import json
import re

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
    """A table of ``length`` rows (drawn when ``None``)."""
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
    assert canonical_json(list(back)) == canonical_json(list(table))
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
    # The kept cells ship as their bytes alone: one float64 each.
    assert wire["masks"] == {"link_s": "010", "stage_bounds_s": "010"}
    assert wire["columns"]["link_s"] == _binary("<f8", [0.5])
    assert wire["columns"]["stage_bounds_s"] == {
        "length": 1, "columns": {"chip0": _binary("<f8", [0.25])}}
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


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(tables() | ROWS, min_size=1, max_size=4),
       default=st.none() | FLOATS | INT64)
def test_concat_joins_its_parts_into_one_table(parts, default):
    rows = [row for part in parts for row in ColumnTable.of(part)]
    table = ColumnTable.concat(parts)
    assert table == rows
    assert [table[i] for i in range(len(table))] == rows
    assert canonical_json(list(table)) == canonical_json(rows)
    text, back = _round_trip(table)
    assert canonical_json(list(back)) == canonical_json(rows)
    assert json.dumps(to_wire(back), sort_keys=True) == text
    for key in {key for row in rows for key in row}:
        cells = [row.get(key, default) for row in rows]
        assert table.column(key, default).dtype == exact_column(cells).dtype


def _binary(code, values):
    """The wire object of a binary column holding ``values`` as ``code``."""
    raw = np.array(values, dtype=code).tobytes()
    return {"dtype": code, "b64": base64.b64encode(raw).decode("ascii")}


@pytest.mark.parametrize("wire, problem", [
    ({"length": 2, "columns": {"e": _binary("<f8", [1.0])}},
     "'e' has 8 bytes of <f8 for 2 rows"),
    ({"length": 1, "columns": {"e": {"dtype": "<i8", "b64": "AQ=="}}},
     "'e' has 1 bytes of <i8 for 1 rows"),
    ({"length": 1, "columns": {"e": {"dtype": "<f4", "b64": "AACAPw=="}}},
     "'e' has unknown dtype '<f4'"),
    ({"length": 1, "columns": {"e": {"dtype": ["<f8"], "b64": ""}}},
     "'e' has unknown dtype"),
    ({"length": 1, "columns": {"e": {"dtype": "<f8", "b64": "AAAA*AAAAAA="}}},
     "'e' holds invalid base64"),
    ({"length": 1, "columns": {"e": {"dtype": "<f8", "b64": "AAAAAAAA8D8"}}},
     "'e' holds invalid base64"),
    ({"length": 1, "columns": {"e": {"dtype": "<f8", "b64": "éAAAAAAA8D8="}}},
     "'e' holds invalid base64"),
    ({"length": 1, "columns": {"e": {"dtype": "<f8", "b64": "AAAAAAAA8D9="}}},
     "'e' holds invalid base64: not the text of its bytes"),
    ({"length": 1, "columns": {"e": {"dtype": "<f8", "b64": "AAAA\nAAAAAAA="}}},
     "'e' holds invalid base64: not the text of its bytes"),
    ({"length": 1, "columns": {"e": {"dtype": "<f8", "b64": "AAAAAAAA8D8=AA"}}},
     "'e' holds invalid base64"),
    ({"length": 1, "columns": {"e": {"dtype": "<f8"}}}, "'e' holds no base64"),
    ({"length": 1, "columns": {"e": {"dtype": "|b1", "b64": "Ag=="}}},
     "'e' has |b1 bytes other than 0 and 1"),
    # A masked binary column carries the kept rows' bytes only.
    ({"length": 3, "columns": {"e": _binary("<f8", [1.0, 2.0, 3.0])},
      "masks": {"e": "010"}}, "'e' has 24 bytes of <f8 for 1 rows"),
    ({"length": 2, "columns": {"n": {"length": 2, "columns": {
        "e": _binary("<i8", [1, 2])}, "masks": {"e": "01"}}}},
     "'n' column 'e' has 16 bytes of <i8 for 1 rows"),
], ids=["short-bytes", "partial-item", "unknown-dtype", "unhashable-dtype",
        "bad-character", "bad-padding", "non-ascii", "stray-bits",
        "embedded-newline", "data-after-padding", "no-text", "bool-not-0-or-1",
        "bytes-of-every-row-under-a-mask", "nested-bytes-under-a-mask"])
def test_malformed_binary_columns_raise_value_error(wire, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        from_wire(wire)


def test_the_form_follows_the_cells_not_the_container():
    floats = [0.5, -0.0, 1e300]
    forms = [
        ColumnTable({"x": floats}),
        ColumnTable({"x": np.array(floats, dtype=object)}),
        ColumnTable({"x": np.array(floats)}),
        [{"x": value} for value in floats],
    ]
    texts = {json.dumps(to_wire(form), sort_keys=True) for form in forms}
    assert texts == {json.dumps({"columns": {"x": _binary("<f8", floats)},
                                 "length": 3}, sort_keys=True)}
    # Cells that exact_column keeps as objects stay a JSON list.
    for cells in ([1, 2.5], [2**63, 1], [None, 1.0], ["a", "b"], [[1], [2]]):
        assert to_wire(ColumnTable({"x": cells}))["columns"]["x"] == cells
        array = np.array(cells + [0], dtype=object)[:-1]
        assert to_wire(ColumnTable({"x": array}))["columns"]["x"] == cells


def test_the_list_and_binary_forms_of_a_table_decode_alike():
    values = {"f": [0.5, -0.0, 2.0], "i": [-(2**63), 0, 2**63 - 1],
              "b": [True, False, True]}
    listed = {"length": 3, "columns": dict(values)}
    binary = {"length": 3, "columns": {
        "f": _binary("<f8", values["f"]), "i": _binary("<i8", values["i"]),
        "b": _binary("|b1", values["b"])}}
    assert to_wire(from_wire(listed)) == binary
    from_list, from_bytes = from_wire(listed), from_wire(binary)
    assert from_list == from_bytes
    for key in values:
        assert from_list.column(key).dtype == from_bytes.column(key).dtype
        assert [type(v) for v in from_bytes.column(key).tolist()] == [
            type(v) for v in values[key]]


@pytest.mark.parametrize("cells, code", [
    ([-0.0, 0.0, -1.5], "<f8"),
    ([-(2**63), 2**63 - 1, 0, -1], "<i8"),
    ([True, False, False], "|b1"),
    ([float("nan"), float("inf"), float("-inf"), 1.0], "<f8"),
], ids=["signed-zero", "int64-extremes", "bools", "non-finite-results"])
def test_binary_columns_round_trip_bit_for_bit(cells, code):
    table = ColumnTable({"x": cells})
    wire = to_wire(table)
    assert wire["columns"]["x"]["dtype"] == code
    back = from_wire(json.loads(json.dumps(wire)))
    column = back.column("x")
    expected = np.array(cells, dtype=code)
    assert column.tobytes() == expected.tobytes()
    assert column.dtype == expected.dtype
    # The array owns its memory: a reader may write to it.
    assert column.flags.writeable and column.flags.owndata
    column[0] = column[1]


def test_allow_nan_false_rejects_non_finite_bytes_only():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite float in column 'x'"):
            to_wire(ColumnTable({"x": [1.0, bad]}), allow_nan=False)
        with pytest.raises(ValueError, match="non-finite float in column 'x'"):
            to_wire(ColumnTable({"n": ColumnTable({"x": [bad]})}), allow_nan=False)
    # A masked-out cell never ships, so it is not checked either.
    masked = ColumnTable({"x": [float("nan"), 1.0]}, {"x": np.array([False, True])})
    assert to_wire(masked, allow_nan=False) == to_wire(masked)
