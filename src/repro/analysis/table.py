"""Column tables: a sequence of payload rows stored as columns.

A design-space generation evaluates thousands of points, but almost every
reader wants a few objective *columns* (strategies, dedup, the Pareto
frontier), and only a handful of rows -- the frontier, the verified points
-- are ever read as dicts.  :class:`ColumnTable` stores the rows as
columns and builds a row only where one is read:

* ``table[i]`` builds one fresh plain dict of Python scalars, with the keys
  in the order the producer gave its columns;
* ``table[start:stop]`` is a table of those rows that shares the columns
  (NumPy views and list slices), so a generation is cut into chunks
  without building a row;
* iterating builds every row in one pass from ``.tolist()`` columns;
* :meth:`ColumnTable.column` returns one key as a NumPy array without
  building a row, and reads a default for the rows that lack the key when
  given one.

A table holds one column per key (a NumPy array, a plain list, or a
nested :class:`ColumnTable` whose rows become dict-valued cells); a key
with a mask appears only in the rows where its mask is true, so points of
one generation may carry different keys.  Rows that arrive as dicts (a
scalar runner's results) become columns (:meth:`ColumnTable.of`), and
:meth:`ColumnTable.concat` joins a generation's chunks into one table,
copying each column once, so every table has the same form.

:func:`to_wire` and :func:`from_wire` are the one JSON form of a table --
the ``results`` of a work-queue chunk result and of a chunk-cache entry,
and the ``params`` of every chunk job: one value per column (a
nested table as a nested wire object), and a masked column ships only the
cells its mask keeps, so a chunk travels as a few dozen columns instead of
one object per point.  A float64, int64 or bool column ships as its raw
little-endian bytes in base64, which NumPy writes and reads back without
touching a value one by one; any other column is a JSON list.

Rows never share a container with the table or with each other: list and
dict cells are copied whenever a row is built, and a tuple cell is read out
as a fresh list (the JSON array it encodes to).  A table compares equal to
a list of the same rows.  :mod:`json` does not encode a table: it ships as
its wire form, or as ``list(table)`` where rows are wanted.
"""

from __future__ import annotations

import binascii
from collections.abc import Sequence
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = ["ColumnTable", "exact_column", "from_wire", "to_wire"]


def exact_column(values: Sequence[Any]) -> np.ndarray:
    """``values`` as a 1-D array whose ``.tolist()`` gives them back.

    All floats become float64 and all ints (no bools) int64; anything else
    -- mixed types, ints beyond int64, ``None`` -- is kept in an object
    array, so no int is ever rounded through float64 and a comparison of
    two cells is the comparison of the Python values.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    if kinds == {bool}:
        return np.array(values, dtype=bool)
    return np.fromiter(values, dtype=object, count=len(values))


def _fresh(value: Any) -> Any:
    """``value`` with every list and dict inside it copied."""
    if isinstance(value, dict):
        return {key: _fresh(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fresh(item) for item in value]
    return value


def _numeric(column: Any) -> bool:
    """Whether ``column`` is an array of NumPy scalars (not of objects)."""
    return isinstance(column, np.ndarray) and column.dtype != object


def _cells(column: Any) -> List[Any]:
    """Every cell of one column, as fresh Python values."""
    if _numeric(column):
        return column.tolist()
    if isinstance(column, ColumnTable):
        return list(column)
    return [_fresh(cell) for cell in column]


def _cell(column: Any, index: int) -> Any:
    if _numeric(column):
        return column[index].item()
    if isinstance(column, ColumnTable):
        return column[index]
    return _fresh(column[index])


#: marks a :meth:`ColumnTable.column` call without a default.
_REQUIRED = object()


def _missing(key: Any, index: int, keys: Iterable[Any]) -> KeyError:
    return KeyError(
        f"key {key!r} missing from row {index}, which has keys "
        f"{sorted(map(str, keys))}"
    )


def _join(parts: List[Tuple[Any, int]]) -> Any:
    """One column of several parts' rows, from each part's ``(column,
    rows)``; a part without the key has column ``None`` and filler cells."""
    held = [column for column, _ in parts if column is not None]
    if all(isinstance(column, ColumnTable) for column in held):
        return ColumnTable.concat(
            ColumnTable._of({}, n, {}) if c is None else c for c, n in parts
        )
    dtypes = {getattr(column, "dtype", None) for column in held}
    if len(dtypes) == 1 and None not in dtypes:
        (dtype,) = dtypes
        return np.concatenate(
            [np.zeros(n, dtype) if c is None else c for c, n in parts]
        )
    cells: List[Any] = []
    for column, n in parts:
        cells.extend([None] * n if column is None else _cells(column))
    return exact_column(cells)


class ColumnTable(Sequence):
    """Rows of payloads, stored as columns and built where they are read.

    ``ColumnTable(columns, masks=None)`` builds a table from ``columns``
    (key -> array, list or nested table, all the same length; the dict's
    order is the row key order) and optional ``masks`` (key -> boolean
    array: the rows that carry that key).
    """

    __slots__ = ("_columns", "_masks", "_length")

    def __init__(
        self,
        columns: Optional[Mapping[Any, Any]] = None,
        masks: Optional[Mapping[Any, np.ndarray]] = None,
    ):
        columns = dict(columns or {})
        length = len(next(iter(columns.values()))) if columns else 0
        self._hold(columns, length, masks or {})

    def _hold(
        self, columns: Mapping[Any, Any], length: int, masks: Mapping[Any, Any]
    ) -> "ColumnTable":
        """Hold ``columns`` of ``length`` rows under ``masks``; a table of
        no rows holds no column."""
        for key, column in columns.items():
            if len(column) != length:
                raise ValueError(
                    f"column {key!r} has {len(column)} cells for {length} rows"
                )
        if not length:
            columns, masks = {}, {}
        self._columns = dict(columns)
        self._masks = {key: np.asarray(mask, dtype=bool) for key, mask in masks.items()}
        self._length = length
        return self

    @classmethod
    def _of(
        cls, columns: Mapping[Any, Any], length: int, masks: Mapping[Any, Any]
    ) -> "ColumnTable":
        """A table of ``length`` rows, which may hold no column at all."""
        return cls.__new__(cls)._hold(columns, length, masks)

    @classmethod
    def of(cls, rows: Sequence[Mapping[Any, Any]]) -> "ColumnTable":
        """``rows`` as a table: a table is returned as is, and a sequence
        of row dicts becomes a column per key, in the order the keys first
        appear, masked where a row lacks the key (``None`` stands in its
        cell there)."""
        if isinstance(rows, ColumnTable):
            return rows
        length = len(rows)
        columns: Dict[Any, List[Any]] = {}
        counts: Dict[Any, int] = {}
        for index, row in enumerate(rows):
            if not isinstance(row, Mapping):
                raise TypeError(f"row {index} is a {type(row).__name__}, not a mapping")
            for key, value in row.items():
                if key not in columns:
                    columns[key] = [None] * length
                    counts[key] = 0
                columns[key][index] = value
                counts[key] += 1
        masks = {
            key: np.array([key in row for row in rows])
            for key, count in counts.items()
            if count < length
        }
        return cls._of(columns, length, masks)

    @classmethod
    def concat(
        cls, parts: Iterable[Union["ColumnTable", Sequence[Mapping[Any, Any]]]]
    ) -> "ColumnTable":
        """The rows of ``parts`` in order, each part read as :meth:`of`
        reads it, as one table.  Each key's columns are joined: arrays of
        one dtype as one array, nested tables as one nested table, any
        other cells through :func:`exact_column`; a key is masked over the
        rows of a part that lacks it.  The keys keep every part's order: a
        key new to the join goes right after the part's key before it."""
        tables = [table for table in map(cls.of, parts) if len(table)]
        if len(tables) < 2:
            return tables[0] if tables else cls()
        keys = [table.keys() for table in tables]
        order: List[Any] = []
        for part_keys in keys:
            at = 0
            for key in part_keys:
                if key in order:
                    at = order.index(key) + 1
                else:
                    order.insert(at, key)
                    at += 1
        lengths = [len(table) for table in tables]
        columns: Dict[Any, Any] = {}
        masks: Dict[Any, np.ndarray] = {}
        for key in order:
            has = [key in part_keys for part_keys in keys]
            held = [t._columns[key] if h else None for t, h in zip(tables, has)]
            columns[key] = _join(list(zip(held, lengths)))
            if not all(has) or any(key in table._masks for table in tables):
                masks[key] = np.concatenate(
                    [
                        t._masks.get(key, np.ones(n, dtype=bool))
                        if kept
                        else np.zeros(n, dtype=bool)
                        for t, kept, n in zip(tables, has, lengths)
                    ]
                )
        return cls._of(columns, sum(lengths), masks)

    # ----------------------------------------------------------- sequence

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Dict[Any, Any]]:
        keys = list(self._columns)
        cells = [_cells(column) for column in self._columns.values()]
        if not keys:
            return iter([{} for _ in range(self._length)])
        if not self._masks:
            return iter([dict(zip(keys, row)) for row in zip(*cells)])
        # Rows that carry the same keys are built together.
        every = np.ones(self._length, dtype=bool)
        present = np.array([self._masks.get(key, every) for key in keys])
        layouts, layout_of = np.unique(present.T, axis=0, return_inverse=True)
        rows: List[Any] = [None] * self._length
        for layout_index, layout in enumerate(layouts):
            positions = np.flatnonzero(layout_of.reshape(-1) == layout_index).tolist()
            chosen = [index for index, flag in enumerate(layout) if flag]
            names = [keys[index] for index in chosen]
            picked = [[cells[index][p] for p in positions] for index in chosen]
            values = zip(*picked) if picked else [()] * len(positions)
            for position, row in zip(positions, values):
                rows[position] = dict(zip(names, row))
        return iter(rows)

    def __getitem__(self, index):
        if isinstance(index, slice):  # a table sharing these columns
            columns = {key: column[index] for key, column in self._columns.items()}
            masks = {key: mask[index] for key, mask in self._masks.items()}
            length = len(range(*index.indices(self._length)))
            return ColumnTable._of(columns, length, masks)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("table index out of range")
        return {
            key: _cell(column, index)
            for key, column in self._columns.items()
            if key not in self._masks or self._masks[key][index]
        }

    def keys(self) -> List[Any]:
        """Every key some row carries, in the table's key order."""
        return [
            key
            for key in self._columns
            if key not in self._masks or self._masks[key].any()
        ]

    def column(self, key: Any, default: Any = _REQUIRED) -> np.ndarray:
        """Every row's ``key`` as one array (see :func:`exact_column` for
        its dtype).  A row without the key reads ``default`` when one is
        given; without one, ``KeyError`` names the key and the first row
        that lacks it."""
        if not self._length:
            return np.empty(0)
        if key not in self._columns:
            if default is _REQUIRED:
                raise _missing(key, 0, self[0])
            return np.repeat(exact_column([default]), self._length)
        mask = self._masks.get(key)
        column = self._columns[key]
        if mask is not None and not mask.all():
            if default is _REQUIRED:
                index = int(np.argmin(mask))
                raise _missing(key, index, self[index])
            cells = _cells(column)
            for index in np.flatnonzero(~mask).tolist():
                cells[index] = default
            return exact_column(cells)
        if isinstance(column, np.ndarray):
            return column
        return exact_column(_cells(column))

    # --------------------------------------------------------- comparison

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ColumnTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ColumnTable({self._length} rows)"


# ------------------------------------------------------------------ wire form


#: the wire dtype of each column dtype whose cells ship as raw bytes.
_BINARY = {
    np.dtype(np.float64): "<f8",
    np.dtype(np.int64): "<i8",
    np.dtype(bool): "|b1",
}
_DTYPES = {code: dtype for dtype, code in _BINARY.items()}


def to_wire(
    table: Union[ColumnTable, Sequence[Mapping[str, Any]]], allow_nan: bool = True
) -> Dict[str, Any]:
    """The JSON-able wire form of ``table``: any table (a batch runner's,
    a slice, a :meth:`ColumnTable.concat` of chunks), or a sequence of row
    dicts read as :meth:`ColumnTable.of` reads it.

    ``{"length": n, "columns": {key: cells}, "masks": {key: bits}}``.
    ``cells`` is the wire object of a nested table, or a column's values
    in the form :func:`exact_column` types them: for float64, int64 or
    bool values, ``{"dtype": "<f8" | "<i8" | "|b1", "b64": text}``, their
    exact little-endian bytes in base64; for any other values, their JSON
    list.  The form follows the values alone, never how the producer held
    them (a list, an object array or a typed array), so a decoded table
    encodes to the text it came from.  A masked key has ``bits``, one
    ``"0"`` or ``"1"`` per row, and its cells (or nested rows) are those
    of the ``"1"`` rows only, so what a producer left at masked positions
    never ships; a key that no row carries is left out, and so is
    ``masks`` when no key is masked.

    Keys must be ``str`` (``TypeError`` otherwise), since JSON would
    silently turn any other key into one.  With ``allow_nan=False``, a NaN
    or an infinity among the float64 cells that ship as bytes raises
    ``ValueError``, as ``json.dumps(allow_nan=False)`` does for one in a
    list.
    """
    return _wire_table(ColumnTable.of(table), None, allow_nan)


def _wire_table(
    table: ColumnTable, positions: Optional[np.ndarray], allow_nan: bool
) -> Dict[str, Any]:
    """The wire object of ``table``'s rows at ``positions`` (every row when
    ``None``)."""
    columns: Dict[str, Any] = {}
    masks: Dict[str, str] = {}
    for key, column in table._columns.items():
        if not isinstance(key, str):
            raise TypeError(
                f"column key {key!r} is a {type(key).__name__}; a table's "
                "wire form takes str keys only"
            )
        kept = positions
        mask = table._masks.get(key)
        if mask is not None:
            present = mask if positions is None else mask[positions]
            if not present.any():
                continue
            if not present.all():
                masks[key] = (present.view(np.uint8) + ord("0")).tobytes().decode()
                kept = np.flatnonzero(mask) if positions is None else positions[present]
        columns[key] = _wire_column(key, column, kept, allow_nan)
    length = table._length if positions is None else len(positions)
    wire: Dict[str, Any] = {"length": length, "columns": columns}
    if masks:
        wire["masks"] = masks
    return wire


def _wire_column(
    key: str, column: Any, kept: Optional[np.ndarray], allow_nan: bool
) -> Any:
    if isinstance(column, ColumnTable):
        return _wire_table(column, kept, allow_nan)
    cells = _shipped_cells(column, kept)
    if not isinstance(cells, np.ndarray):
        return cells
    if not allow_nan and cells.dtype == np.float64 and not np.isfinite(cells).all():
        raise ValueError(
            f"non-finite float in column {key!r}: NaN/Infinity cannot be "
            "encoded with allow_nan=False"
        )
    code = _BINARY[cells.dtype]
    return {"dtype": code, "b64": _base64(cells.astype(code, copy=False).tobytes())}


def _base64(raw: bytes) -> str:
    """``raw`` in standard base64, padded, on one line."""
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _shipped_cells(column: Any, kept: Optional[np.ndarray]) -> Any:
    """The cells of ``column`` at rows ``kept`` (every row when ``None``):
    an array of a dtype in :data:`_BINARY` when :func:`exact_column` types
    them so, else their list."""
    if isinstance(column, np.ndarray):
        cells = column if kept is None else column[kept]
        if cells.dtype in _BINARY:
            return cells
        values = cells.tolist()
    elif kept is None:
        values = list(column)
    else:
        values = [column[index] for index in kept.tolist()]
    typed = exact_column(values)
    return typed if typed.dtype in _BINARY else values


def from_wire(wire: Any, length: Optional[int] = None) -> ColumnTable:
    """The table whose :func:`to_wire` form is ``wire`` (decoded JSON).

    Every column comes back as an :func:`exact_column` array that owns its
    memory (a binary column as the dtype it names), a nested table as a
    nested table.  Raises ``ValueError`` naming the first part of
    ``wire`` that breaks the form: not an object, a length that is not a
    count (or not ``length``, when given -- checked before anything is
    decoded), a column whose cells do not match its rows, a binary column
    of an unknown dtype, of text that is not base64, or of a byte count
    other than the dtype's item size times its rows, a mask that is not a
    string of one ``"0"``/``"1"`` per row, a nested table of the wrong
    length.
    """
    count = wire.get("length") if isinstance(wire, dict) else None
    if type(count) is not int or count < 0:
        raise ValueError(f"expected a table object with a length, got {wire!r:.80}")
    if length is not None and count != length:
        raise ValueError(f"table has {count} rows for {length} points")
    return _read_table(wire, np.arange(count), count, "table")


def _read_table(
    wire: Any, positions: np.ndarray, length: int, where: str
) -> ColumnTable:
    """A table of ``length`` rows whose rows ``positions`` are the rows of
    the wire table ``wire``; its other rows carry no key."""
    if not isinstance(wire, dict):
        raise ValueError(f"{where} is a {type(wire).__name__}, not a table object")
    count = wire.get("length")
    if type(count) is not int or count != len(positions):
        raise ValueError(f"{where} has length {count!r} for {len(positions)} rows")
    cells_of = wire.get("columns")
    bits_of = wire.get("masks", {})
    if not isinstance(cells_of, dict) or not isinstance(bits_of, dict):
        raise ValueError(f"{where} needs a columns object and an optional masks object")
    stray = bits_of.keys() - cells_of.keys()
    if stray:
        raise ValueError(f"{where} masks keys it has no column for: {sorted(stray)}")
    columns: Dict[str, Any] = {}
    masks: Dict[str, np.ndarray] = {}
    for key, cells in cells_of.items():
        name = f"{where} column {key!r}"
        kept = positions
        if key in bits_of:
            bits = bits_of[key]
            if not isinstance(bits, str) or len(bits) != count or bits.strip("01"):
                raise ValueError(f"{name} has a mask that is not {count} bits")
            kept = positions[np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1")]
        if isinstance(cells, list):
            if len(cells) != len(kept):
                raise ValueError(f"{name} has {len(cells)} cells for {len(kept)} rows")
            columns[key] = _spread(exact_column(cells), kept, length)
        elif isinstance(cells, dict) and "dtype" in cells:
            columns[key] = _spread(_read_binary(cells, len(kept), name), kept, length)
        else:
            columns[key] = _read_table(cells, kept, length, name)
        if len(kept) < length:
            masks[key] = np.zeros(length, dtype=bool)
            masks[key][kept] = True
    return ColumnTable._of(columns, length, masks)


def _read_binary(cells: Dict[str, Any], count: int, name: str) -> np.ndarray:
    """The ``count`` values of the binary column ``cells``, as a fresh
    native-order array of the dtype it names."""
    code = cells["dtype"]
    if not isinstance(code, str) or code not in _DTYPES:
        raise ValueError(f"{name} has unknown dtype {code!r}")
    text = cells.get("b64")
    if not isinstance(text, str):
        raise ValueError(f"{name} holds no base64 text")
    try:
        raw = binascii.a2b_base64(text)
    except ValueError as error:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{name} holds invalid base64: {error}") from None
    # The decoder skips stray characters; only the text that encoding the
    # bytes gives back is taken, so a decoded table encodes to its text.
    if _base64(raw) != text:
        raise ValueError(f"{name} holds invalid base64: not the text of its bytes")
    dtype = _DTYPES[code]
    if len(raw) != dtype.itemsize * count:
        raise ValueError(f"{name} has {len(raw)} bytes of {code} for {count} rows")
    if dtype == bool and raw.translate(None, b"\x00\x01"):
        raise ValueError(f"{name} has {code} bytes other than 0 and 1")
    return np.frombuffer(raw, dtype=code).astype(dtype)


def _spread(values: np.ndarray, kept: np.ndarray, length: int) -> np.ndarray:
    """``values`` placed at rows ``kept`` of a ``length``-row column."""
    if len(kept) == length:
        return values
    column = np.zeros(length, dtype=values.dtype)
    column[kept] = values
    return column
