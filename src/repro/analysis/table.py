"""Column tables: a sequence of payload rows stored as columns.

A design-space generation evaluates thousands of points, but almost every
reader wants a few objective *columns* (strategies, dedup, the Pareto
frontier), and only a handful of rows -- the frontier, the verified points
-- are ever read as dicts.  :class:`ColumnTable` stores the rows as
columns and builds a row only where one is read:

* ``table[i]`` builds one fresh plain dict of Python scalars, with the keys
  in the order the producer gave its columns (a slice builds a list of
  them);
* iterating builds every row in one pass from ``.tolist()`` columns;
* :meth:`ColumnTable.column` returns one key as a NumPy array without
  building a row.

A table is a sequence of blocks.  A *column block* holds one column per key
(a NumPy array, a plain list, or a nested :class:`ColumnTable` whose rows
become dict-valued cells); a key with a mask appears only in the rows where
its mask is true, so points of one generation may carry different keys.  A
*row block* holds rows that arrived as dicts (a decoded work-queue result,
a cache hit); :meth:`ColumnTable.concat` splices both kinds in order
without converting either.

Rows never share a container with the table or with each other: list and
dict cells are copied whenever a row is built, and a tuple cell is read out
as a fresh list (the JSON array it encodes to).  A table compares equal to
a list of the same rows, and the runner's JSON encoders
(:func:`repro.runner.scenarios.json_default`) write it as exactly that
list.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Union

import numpy as np

__all__ = ["ColumnTable", "exact_column"]


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

    def rows(self) -> List[Dict[Any, Any]]:
        keys = list(self.columns)
        cells = [_cells(column) for column in self.columns.values()]
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
            for position, row in zip(
                positions,
                zip(*([cells[index][p] for p in positions] for index in chosen)),
            ):
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

    def column(self, key: Any, start: int) -> np.ndarray:
        """Column ``key``; rows are numbered from ``start`` in errors."""
        if key not in self.columns:
            raise _missing(key, start, self.keys_of(0))
        mask = self.masks.get(key)
        if mask is not None and not mask.all():
            index = int(np.argmin(mask))
            raise _missing(key, start + index, self.keys_of(index))
        column = self.columns[key]
        if isinstance(column, np.ndarray):
            return column
        return exact_column(_cells(column))


def _row_column(rows: List[Mapping[Any, Any]], key: Any, start: int) -> np.ndarray:
    values = []
    for index, row in enumerate(rows):
        if key not in row:
            raise _missing(key, start + index, row)
        values.append(row[key])
    return exact_column(values)


def _missing(key: Any, index: int, keys: Iterable[Any]) -> KeyError:
    return KeyError(
        f"key {key!r} missing from row {index}, which has keys "
        f"{sorted(map(str, keys))}"
    )


_Block = Union[_Columns, List[Mapping[Any, Any]]]


def _length(block: _Block) -> int:
    return block.length if isinstance(block, _Columns) else len(block)


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

    def _set_blocks(self, blocks: List[_Block]) -> None:
        self._blocks = blocks
        self._starts: List[int] = []
        total = 0
        for block in blocks:
            self._starts.append(total)
            total += _length(block)
        self._length = total

    @classmethod
    def concat(
        cls, parts: Iterable[Union["ColumnTable", Sequence[Mapping[Any, Any]]]]
    ) -> "ColumnTable":
        """The rows of ``parts`` in order: tables keep their blocks, and any
        other sequence of row dicts becomes a row block as it stands."""
        blocks: List[_Block] = []
        for part in parts:
            if isinstance(part, ColumnTable):
                blocks.extend(part._blocks)
            elif len(part):
                blocks.append(list(part))
        table = cls.__new__(cls)
        table._set_blocks(blocks)
        return table

    @classmethod
    def of(cls, rows: Sequence[Mapping[Any, Any]]) -> "ColumnTable":
        """``rows`` as a table: a table is returned as is."""
        return rows if isinstance(rows, ColumnTable) else cls.concat([rows])

    # ----------------------------------------------------------- sequence

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Dict[Any, Any]]:
        rows: List[Dict[Any, Any]] = []
        for block in self._blocks:
            if isinstance(block, _Columns):
                rows.extend(block.rows())
            else:
                rows.extend(_fresh(row) for row in block)
        return iter(rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("table index out of range")
        slot = bisect.bisect_right(self._starts, index) - 1
        block = self._blocks[slot]
        local = index - self._starts[slot]
        if isinstance(block, _Columns):
            return block.row(local)
        return _fresh(block[local])

    def column(self, key: Any) -> np.ndarray:
        """Every row's ``key`` as one array (see :func:`exact_column` for
        its dtype); ``KeyError`` naming the key and the first row without
        it when any row lacks it."""
        parts = []
        for start, block in zip(self._starts, self._blocks):
            if isinstance(block, _Columns):
                parts.append(block.column(key, start))
            else:
                parts.append(_row_column(block, key, start))
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
