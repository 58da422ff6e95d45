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

A table is a sequence of column blocks, each holding one column per key
(a NumPy array, a plain list, or a nested :class:`ColumnTable` whose rows
become dict-valued cells); a key with a mask appears only in the rows where
its mask is true, so points of one generation may carry different keys.
Rows that arrive as dicts (a scalar runner's results) become a column
block of their own (:meth:`ColumnTable.of`), and :meth:`ColumnTable.concat`
splices tables' blocks in order without converting any.

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
import bisect
from collections.abc import Sequence
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Union

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


class _Columns:
    """A column block: ``columns`` in row key order, optional ``masks``."""

    __slots__ = ("columns", "masks", "length")

    def __init__(
        self,
        columns: Mapping[Any, Any],
        length: int,
        masks: Mapping[Any, np.ndarray],
    ):
        for key, column in columns.items():
            if len(column) != length:
                raise ValueError(
                    f"column {key!r} has {len(column)} cells for {length} rows"
                )
        self.columns = dict(columns)
        self.masks = {key: np.asarray(mask, dtype=bool) for key, mask in masks.items()}
        self.length = length

    @classmethod
    def of_rows(cls, rows: Sequence[Mapping[Any, Any]]) -> "_Columns":
        """``rows`` as one block: one list column per key in first-seen
        order, and a key that some row lacks masked (``None`` stands in
        its cell there)."""
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
        return cls(columns, length, masks)

    def rows(self) -> List[Dict[Any, Any]]:
        keys = list(self.columns)
        cells = [_cells(column) for column in self.columns.values()]
        if not keys:
            return [{} for _ in range(self.length)]
        if not self.masks:
            return [dict(zip(keys, row)) for row in zip(*cells)]
        # Rows that carry the same keys are built together.
        present = np.array(
            [self.masks.get(key, np.ones(self.length, dtype=bool)) for key in keys]
        )
        layouts, layout_of = np.unique(present.T, axis=0, return_inverse=True)
        rows: List[Any] = [None] * self.length
        for layout_index, layout in enumerate(layouts):
            positions = np.flatnonzero(layout_of.reshape(-1) == layout_index).tolist()
            chosen = [index for index, flag in enumerate(layout) if flag]
            names = [keys[index] for index in chosen]
            picked = [[cells[index][p] for p in positions] for index in chosen]
            values = zip(*picked) if picked else [()] * len(positions)
            for position, row in zip(positions, values):
                rows[position] = dict(zip(names, row))
        return rows

    def row(self, index: int) -> Dict[Any, Any]:
        return {
            key: _cell(column, index)
            for key, column in self.columns.items()
            if key not in self.masks or self.masks[key][index]
        }

    def keys_of(self, index: int) -> List[Any]:
        return [
            key
            for key in self.columns
            if key not in self.masks or self.masks[key][index]
        ]

    def column(self, key: Any, start: int, default: Any = _REQUIRED) -> np.ndarray:
        """Column ``key``, reading ``default`` where a row lacks it (when
        given); rows are numbered from ``start`` in errors."""
        if key not in self.columns:
            if default is _REQUIRED:
                raise _missing(key, start, self.keys_of(0))
            return np.repeat(exact_column([default]), self.length)
        mask = self.masks.get(key)
        column = self.columns[key]
        if mask is not None and not mask.all():
            if default is _REQUIRED:
                index = int(np.argmin(mask))
                raise _missing(key, start + index, self.keys_of(index))
            cells = _cells(column)
            for index in np.flatnonzero(~mask).tolist():
                cells[index] = default
            return exact_column(cells)
        if isinstance(column, np.ndarray):
            return column
        return exact_column(_cells(column))

    def cut(self, rows: slice) -> "_Columns":
        """The block of rows ``rows``, sharing this block's columns."""
        length = len(range(*rows.indices(self.length)))
        columns = {key: column[rows] for key, column in self.columns.items()}
        masks = {key: mask[rows] for key, mask in self.masks.items()}
        return _Columns(columns, length, masks)


def _missing(key: Any, index: int, keys: Iterable[Any]) -> KeyError:
    return KeyError(
        f"key {key!r} missing from row {index}, which has keys "
        f"{sorted(map(str, keys))}"
    )


class ColumnTable(Sequence):
    """Rows of payloads, stored as columns and built where they are read.

    ``ColumnTable(columns, masks=None)`` builds a one-block table from
    ``columns`` (key -> array, list or nested table, all the same length;
    the dict's order is the row key order) and optional ``masks`` (key ->
    boolean array: the rows that carry that key).
    """

    __slots__ = ("_blocks", "_starts", "_length")

    def __init__(
        self,
        columns: Optional[Mapping[Any, Any]] = None,
        masks: Optional[Mapping[Any, np.ndarray]] = None,
    ):
        columns = dict(columns or {})
        length = len(next(iter(columns.values()))) if columns else 0
        blocks = [_Columns(columns, length, masks or {})] if length else []
        self._set_blocks(blocks)

    def _set_blocks(self, blocks: List[_Columns]) -> None:
        self._blocks = blocks
        self._starts: List[int] = []
        total = 0
        for block in blocks:
            self._starts.append(total)
            total += block.length
        self._length = total

    @classmethod
    def _of_blocks(cls, blocks: List[_Columns]) -> "ColumnTable":
        table = cls.__new__(cls)
        table._set_blocks(blocks)
        return table

    @classmethod
    def concat(
        cls, parts: Iterable[Union["ColumnTable", Sequence[Mapping[Any, Any]]]]
    ) -> "ColumnTable":
        """The rows of ``parts`` in order, each part read as :meth:`of`
        reads it: tables keep their blocks."""
        blocks = [block for part in parts for block in cls.of(part)._blocks]
        return cls._of_blocks(blocks)

    @classmethod
    def of(cls, rows: Sequence[Mapping[Any, Any]]) -> "ColumnTable":
        """``rows`` as a table: a table is returned as is, and a sequence
        of row dicts becomes one block with a column per key, in the order
        the keys first appear, masked where a row lacks the key."""
        if isinstance(rows, ColumnTable):
            return rows
        return cls._of_blocks([_Columns.of_rows(rows)] if len(rows) else [])

    # ----------------------------------------------------------- sequence

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Dict[Any, Any]]:
        rows: List[Dict[Any, Any]] = []
        for block in self._blocks:
            rows.extend(block.rows())
        return iter(rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._cut(index)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("table index out of range")
        slot = bisect.bisect_right(self._starts, index) - 1
        return self._blocks[slot].row(index - self._starts[slot])

    def _cut(self, rows: slice) -> "ColumnTable":
        """The table of rows ``rows``: each block's rows in one cut of it
        (a strided cut across several blocks builds its rows instead)."""
        start, stop, step = rows.indices(self._length)
        if len(self._blocks) == 1:
            blocks = [self._blocks[0].cut(rows)]
        elif step != 1:
            return ColumnTable.of(
                [self[position] for position in range(start, stop, step)]
            )
        else:
            blocks = [
                block.cut(slice(max(start - first, 0), max(stop - first, 0)))
                for first, block in zip(self._starts, self._blocks)
            ]
        return ColumnTable._of_blocks([block for block in blocks if block.length])

    def keys(self) -> List[Any]:
        """Every key some row carries, in the order the keys first appear."""
        keys: Dict[Any, None] = {}
        for block in self._blocks:
            for key in block.columns:
                mask = block.masks.get(key)
                if mask is None or mask.any():
                    keys.setdefault(key)
        return list(keys)

    def column(self, key: Any, default: Any = _REQUIRED) -> np.ndarray:
        """Every row's ``key`` as one array (see :func:`exact_column` for
        its dtype).  A row without the key reads ``default`` when one is
        given; without one, ``KeyError`` names the key and the first row
        that lacks it."""
        parts = [
            block.column(key, start, default)
            for start, block in zip(self._starts, self._blocks)
        ]
        if not parts:
            return np.empty(0)
        if len(parts) == 1:
            return parts[0]
        dtypes = {part.dtype for part in parts}
        if len(dtypes) == 1 and object not in dtypes:
            return np.concatenate(parts)
        return exact_column([cell for part in parts for cell in part.tolist()])

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
    """The JSON-able wire form of ``table``: a table of at most one block
    (what a batch runner returns), or a sequence of row dicts read as
    :meth:`ColumnTable.of` reads it.

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
    silently turn any other key into one; a table spliced from several
    blocks (:meth:`ColumnTable.concat`) raises ``ValueError``.  With
    ``allow_nan=False``, a NaN or an infinity among the float64 cells that
    ship as bytes raises ``ValueError``, as ``json.dumps(allow_nan=False)``
    does for one in a list.
    """
    table = ColumnTable.of(table)
    if not table._blocks:
        return {"length": 0, "columns": {}}
    return _wire_block(_one_block(table), None, allow_nan)


def _one_block(table: ColumnTable) -> _Columns:
    if len(table._blocks) != 1:
        raise ValueError(
            f"a table of {len(table._blocks)} blocks has no wire form; "
            "encode each block's table on its own"
        )
    return table._blocks[0]


def _wire_block(
    block: _Columns, positions: Optional[np.ndarray], allow_nan: bool
) -> Dict[str, Any]:
    """The wire object of ``block``'s rows at ``positions`` (every row when
    ``None``)."""
    columns: Dict[str, Any] = {}
    masks: Dict[str, str] = {}
    for key, column in block.columns.items():
        if not isinstance(key, str):
            raise TypeError(
                f"column key {key!r} is a {type(key).__name__}; a table's "
                "wire form takes str keys only"
            )
        kept = positions
        mask = block.masks.get(key)
        if mask is not None:
            present = mask if positions is None else mask[positions]
            if not present.any():
                continue
            if not present.all():
                masks[key] = (present.view(np.uint8) + ord("0")).tobytes().decode()
                kept = np.flatnonzero(mask) if positions is None else positions[present]
        columns[key] = _wire_column(key, column, kept, allow_nan)
    length = block.length if positions is None else len(positions)
    wire: Dict[str, Any] = {"length": length, "columns": columns}
    if masks:
        wire["masks"] = masks
    return wire


def _wire_column(
    key: str, column: Any, kept: Optional[np.ndarray], allow_nan: bool
) -> Any:
    if isinstance(column, ColumnTable):
        return _wire_block(_one_block(column), kept, allow_nan)
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
    block = _read_block(wire, np.arange(count), count, "table")
    return ColumnTable._of_blocks([block] if count else [])


def _read_block(wire: Any, positions: np.ndarray, length: int, where: str) -> _Columns:
    """A block of ``length`` rows whose rows ``positions`` are the rows of
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
            nested = _read_block(cells, kept, length, name)
            columns[key] = ColumnTable._of_blocks([nested])
        if len(kept) < length:
            masks[key] = np.zeros(length, dtype=bool)
            masks[key][kept] = True
    return _Columns(columns, length, masks)


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
