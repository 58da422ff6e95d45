"""Declarative design spaces: parameter axes, constraints, and fidelities.

A :class:`DesignSpace` is the searchable counterpart of a scenario kind: a
set of named :class:`Axis` objects (each a finite list of JSON-able values),
a set of named feasibility :class:`Constraint` predicates, and the scenario
*kind* every point evaluates through.  Points are plain assignments (axis
name -> value) that resolve into runner parameters
(:meth:`DesignSpace.point_params`) or materialise into an ad-hoc
:class:`~repro.runner.scenarios.Scenario` (what engine verification
sweeps) whose canonical identity, and therefore cache key, is exactly that
parameter mapping.

Every feasible point has a *position*: its index in the space's canonical
axis-major enumeration order.  Strategies pick positions, and a generation
of them (:class:`Assignments`) resolves into a
:class:`~repro.analysis.table.ColumnTable` of runner parameters
(:meth:`DesignSpace.params_table`) column by column -- what exploration
evaluates in chunks -- with no dict per point.

Spaces also define a *fidelity* hook: a deterministic transformation that
shrinks a point's workload for cheap early-rung evaluations (successive
halving runs most candidates only at reduced fidelity).  Fidelity is part of
the resolved runner parameters (:meth:`DesignSpace.point_params`), so low-
and full-fidelity evaluations of the same design cache under different keys
and can never be confused.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.table import ColumnTable, exact_column
from ..runner.scenarios import Scenario, canonical_json

__all__ = [
    "Assignments",
    "Axis",
    "Constraint",
    "DesignPoint",
    "DesignSpace",
    "scale_seq_len",
]

#: positions decoded per NumPy pass of an enumeration (bounds the memory of
#: one pass over a large cartesian product).
_DECODE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Axis:
    """One searchable parameter: a name and its finite, ordered value list."""

    name: str
    values: Tuple[Any, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        # Verdicts and candidate dedup compare values by equality, so values
        # must be distinct by equality (``1``, ``1.0`` and ``True`` are one
        # value) as well as by canonical JSON (unhashable lists and dicts).
        seen_json = set()
        seen_values = set()
        for value in self.values:
            key = canonical_json(value)  # also rejects non-JSON-able values
            try:
                duplicate = value in seen_values
                seen_values.add(value)
            except TypeError:  # an unhashable (list or dict) value
                duplicate = False
            if duplicate or key in seen_json:
                raise ValueError(f"axis {self.name!r} has duplicate value {value!r}")
            seen_json.add(key)


@dataclass(frozen=True)
class Constraint:
    """A named feasibility predicate over the axes it declares.

    ``axes`` names the assignment keys the predicate reads; omitted, it is
    every axis of the space the constraint belongs to.  A
    :class:`DesignSpace` evaluates the predicate once per distinct value
    tuple of those axes and passes it only that projection, so reading an
    undeclared axis raises ``KeyError`` instead of caching a wrong verdict.
    Verdicts are keyed by value equality; an :class:`Axis` holds no two
    equal values, so every enumerated point gets its own verdict, but a
    predicate must not tell apart values that compare equal (``1``,
    ``1.0`` and ``True``) in an assignment built by hand.
    """

    name: str
    predicate: Callable[[Mapping[str, Any]], bool]
    description: str = ""
    axes: Optional[Tuple[str, ...]] = None

    def satisfied(self, assignment: Mapping[str, Any]) -> bool:
        return bool(self.predicate(assignment))


class _Projection(dict):
    """An assignment restricted to one constraint's declared axes."""

    __slots__ = ("constraint", "undeclared")

    def __init__(self, items, constraint: str, undeclared: FrozenSet[str]):
        super().__init__(items)
        self.constraint = constraint
        self.undeclared = undeclared

    def __missing__(self, key: str) -> Any:
        raise KeyError(
            f"constraint {self.constraint!r} read {key!r}, which is not one "
            f"of its declared axes {sorted(self)}"
        )

    def get(self, key: str, default: Any = None) -> Any:
        if key in self.undeclared:
            self.__missing__(key)
        return super().get(key, default)


#: tags the canonical-JSON key of an unhashable value tuple; no axis value
#: can equal it, so such keys never collide with a plain value key.
_UNHASHABLE = object()


class _VerdictTable:
    """One constraint's verdicts, keyed by the values of its axes."""

    __slots__ = ("constraint", "axes", "key", "undeclared", "verdicts")

    def __init__(
        self, constraint: Constraint, axes: Tuple[str, ...], space_axes: Sequence[str]
    ):
        self.constraint = constraint
        self.axes = axes
        # itemgetter of one name yields the bare value, of several a tuple;
        # either is a fine key as long as one table always uses the same.
        self.key = operator.itemgetter(*axes) if axes else (lambda _: ())
        self.undeclared = frozenset(space_axes) - frozenset(axes)
        self.verdicts: Dict[Any, bool] = {}

    def verdict(self, assignment: Mapping[str, Any]) -> bool:
        key = self.key(assignment)
        try:
            return self.verdicts[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable (list or dict) axis value
            key = (_UNHASHABLE, canonical_json(key))
            if key in self.verdicts:
                return self.verdicts[key]
        projection = _Projection(
            ((name, assignment[name]) for name in self.axes),
            self.constraint.name,
            self.undeclared,
        )
        verdict = self.verdicts[key] = self.constraint.satisfied(projection)
        return verdict


@dataclass(frozen=True)
class DesignPoint:
    """One feasible assignment, with its stable identity and scenario."""

    space: str
    point_id: str
    assignment: Mapping[str, Any]
    scenario: Scenario


def scale_seq_len(params: Dict[str, Any], fraction: float) -> Dict[str, Any]:
    """Default fidelity hook: shrink ``seq_len``, floor 32, multiple of 16.

    Tiling and attention-mapping decisions depend on the sequence length
    only through its magnitude, so a shortened sequence preserves the
    *relative* quality of design points while costing a fraction of the
    evaluation -- which is all successive halving needs from early rungs.
    """
    seq_len = params.get("seq_len")
    if seq_len is not None:
        scaled = max(32, int(round(seq_len * fraction / 16.0)) * 16)
        params["seq_len"] = min(seq_len, scaled)
    return params


#: signature of a fidelity hook: ``(params, fraction) -> params``.
FidelityHook = Callable[[Dict[str, Any], float], Dict[str, Any]]


class Assignments(SequenceABC):
    """Feasible assignments of one :class:`DesignSpace`, by position.

    ``positions`` are indices into the space's enumeration order
    (:meth:`DesignSpace.iter_points`).  This is what the search strategies
    hand the explorer's ``evaluate``: the explorer resolves the whole
    sequence into a parameter table column by column
    (:meth:`DesignSpace.params_table`) and dedups candidates on their
    positions, and an assignment dict is built only where one is read --
    for a frontier point, or by a caller that iterates.  A slice is the
    assignments at the sliced positions, and the sequence compares equal
    to a list of the same assignments.
    """

    __slots__ = ("space", "positions")

    def __init__(self, space: "DesignSpace", positions: Sequence[int]):
        self.space = space
        self.positions = np.asarray(positions, dtype=np.intp).reshape(-1)

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Assignments(self.space, self.positions[index])
        return self.space._assignment_rows(self.positions[[index]])[0]

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.space._assignment_rows(self.positions))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Assignments, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Assignments({self.space.name!r}, {len(self)} points)"


class DesignSpace:
    """A named, constrained cartesian product of axes over one scenario kind.

    Parameters
    ----------
    name:
        Space name; becomes part of every point's scenario name and tags.
    axes:
        The searchable parameters.  Axis names must be unique and must be
        keyword parameters of the scenario kind's runner functions.
    kind:
        Scenario kind every point evaluates through (must be registered for
        the ``analytic`` backend to search, and for the ``engine`` backend
        to verify).
    base_params:
        Fixed parameters merged under every assignment (the non-searched
        arguments of the kind).
    constraints:
        Feasibility predicates; infeasible assignments are silently skipped
        during enumeration (that is their job), but materialising one
        explicitly raises.  Each constraint's declared ``axes`` must be axes
        of this space; its predicate runs once per distinct value tuple of
        them, and the verdict is kept for the life of the space.
    fidelity_hook:
        ``(params, fraction) -> params`` transformation for reduced-fidelity
        evaluation; defaults to :func:`scale_seq_len`.
    """

    def __init__(
        self,
        name: str,
        axes: Sequence[Axis],
        kind: str,
        base_params: Optional[Mapping[str, Any]] = None,
        constraints: Sequence[Constraint] = (),
        fidelity_hook: FidelityHook = scale_seq_len,
        description: str = "",
    ):
        if not axes:
            raise ValueError(f"design space {name!r} has no axes")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"design space {name!r} has duplicate axis names")
        overlap = set(names) & set(base_params or {})
        if overlap:
            raise ValueError(
                f"axes {sorted(overlap)} shadow base_params in design space {name!r}"
            )
        self.name = name
        self.axes: Tuple[Axis, ...] = tuple(axes)
        self.kind = kind
        self.base_params: Dict[str, Any] = dict(base_params or {})
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self._verdict_tables: Tuple[_VerdictTable, ...] = tuple(
            _VerdictTable(c, self._declared_axes(c, names), names)
            for c in self.constraints
        )
        self.fidelity_hook = fidelity_hook
        self.description = description
        constrained = {axis for table in self._verdict_tables for axis in table.axes}
        #: the axis numbers of the constrained axes (the union of the
        #: constraints' declared axes), in axis order; feasibility depends on
        #: these alone.
        self._constrained: Tuple[int, ...] = tuple(
            number for number, name in enumerate(names) if name in constrained
        )
        self._sizes: Tuple[int, ...] = tuple(len(axis.values) for axis in self.axes)
        #: the mixed-radix place value of each axis in a cartesian index
        #: (the last axis iterates fastest).
        self._strides: Tuple[int, ...] = tuple(
            math.prod(self._sizes[axis + 1 :]) for axis in range(len(self._sizes))
        )
        self._combinations: Optional[np.ndarray] = None
        self._feasible_count: Optional[int] = None
        self._indices: Optional[np.ndarray] = None

    def _declared_axes(
        self, constraint: Constraint, names: Sequence[str]
    ) -> Tuple[str, ...]:
        if constraint.axes is None:
            return tuple(names)
        for axis in constraint.axes:
            if axis not in names:
                raise ValueError(
                    f"constraint {constraint.name!r} declares axis {axis!r}, "
                    f"which design space {self.name!r} does not have; "
                    f"axes: {sorted(names)}"
                )
        return constraint.axes

    # ------------------------------------------------------------ enumeration

    @property
    def cardinality(self) -> int:
        """Size of the unconstrained cartesian product."""
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def feasible(self, assignment: Mapping[str, Any]) -> bool:
        """Whether ``assignment`` meets every constraint, checked in order
        and stopping at the first failure (verdicts come from the tables)."""
        for table in self._verdict_tables:
            if not table.verdict(assignment):
                return False
        return True

    def _combination_mask(self) -> np.ndarray:
        """Feasibility of every combination of the constrained axes
        (memoised): a flat boolean array indexed like a cartesian index of
        those axes alone.

        It is filled with one :meth:`feasible` call per combination in
        axis-major order, so each predicate still runs once per distinct
        projection of its declared axes.
        """
        if self._combinations is None:
            axes = [self.axes[axis] for axis in self._constrained]
            names = [axis.name for axis in axes]
            values = [axis.values for axis in axes]
            combos = itertools.product(*(range(len(v)) for v in values))
            self._combinations = np.fromiter(
                (
                    self.feasible(dict(zip(names, map(operator.getitem, values, c))))
                    for c in combos
                ),
                dtype=bool,
                count=math.prod(len(v) for v in values),
            )
        return self._combinations

    def _feasible_indices(self) -> np.ndarray:
        """The cartesian index of every feasible point, in enumeration
        order (memoised): entry ``i`` is the point at position ``i``.

        The cartesian indices are decoded with NumPy a block at a time: the
        constrained axes' value numbers of each index select its entry in
        :meth:`_combination_mask`.  One int64 per feasible point is all an
        enumeration keeps.
        """
        if self._indices is None:
            mask = self._combination_mask()
            total = self.cardinality
            if mask.all():
                flat = np.arange(total, dtype=np.int64)
            else:
                kept = []
                for first in range(0, total, _DECODE_BLOCK):
                    block = np.arange(
                        first, min(first + _DECODE_BLOCK, total), dtype=np.int64
                    )
                    combo = np.zeros(len(block), dtype=np.int64)
                    for axis in self._constrained:
                        size = self._sizes[axis]
                        combo = combo * size + block // self._strides[axis] % size
                    kept.append(block[mask[combo]])
                flat = np.concatenate(kept)
            self._indices = flat
            self._feasible_count = len(flat)
        return self._indices

    def _codes(self, positions: Any) -> List[np.ndarray]:
        """Each axis's value numbers at feasible ``positions`` (an index
        array, a list of ints or a slice)."""
        flat = self._feasible_indices()[positions]
        return [
            flat // stride % size for stride, size in zip(self._strides, self._sizes)
        ]

    def _assignment_rows(self, positions: Any) -> List[Dict[str, Any]]:
        """The assignment dicts at ``positions``: each holds the axis value
        objects themselves, in axis order."""
        names = [axis.name for axis in self.axes]
        values = [axis.values for axis in self.axes]
        codes = [code.tolist() for code in self._codes(positions)]
        return [
            dict(zip(names, map(operator.getitem, values, row))) for row in zip(*codes)
        ]

    def iter_points(self) -> Iterator[Dict[str, Any]]:
        """Yield every feasible assignment in deterministic axis-major order
        -- the streaming counterpart of :meth:`points`.

        A view of the one decode every enumeration shares
        (:meth:`_feasible_indices`, one int64 per feasible point): the
        assignment dicts are built a block at a time, so a 10^6-point space
        never holds them all.  The decode also needs the feasibility table
        of the constrained axes (one entry per combination of them; a
        constraint that omits ``axes`` constrains every axis, so declaring
        them is what keeps the table small) and the verdict tables behind
        it.  The search strategies evaluate positions
        (:meth:`assignments`) and call neither this nor :meth:`points`.
        """
        count = len(self._feasible_indices())
        for first in range(0, count, _DECODE_BLOCK):
            yield from self._assignment_rows(
                slice(first, min(first + _DECODE_BLOCK, count))
            )

    def feasible_count(self) -> int:
        """How many feasible assignments the space has (memoised).

        The feasible combinations of the constrained axes times the product
        of the free axes' sizes: nothing is enumerated.
        """
        if self._feasible_count is None:
            count = int(self._combination_mask().sum())
            for number, axis in enumerate(self.axes):
                if number not in self._constrained:
                    count *= len(axis.values)
            self._feasible_count = count
        return self._feasible_count

    def chunk_alignment(self, cap: int = 4096) -> int:
        """The largest trailing-axis block size not exceeding ``cap``: the
        product of the cardinalities of as many *innermost* (fastest-
        iterating) axes as fit.

        Used as the ``align`` hint of
        :func:`repro.runner.sweep.auto_chunk_size`: cutting chunks on a
        multiple of this block means points inside one chunk share every
        leading-axis value as much as enumeration order allows, so batch
        evaluators see maximal repeated structure (e.g. the chiplet link
        axes iterate innermost over a fixed core design).  Constraints may
        thin individual blocks, so this is a heuristic alignment, never a
        correctness requirement.
        """
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        block = 1
        for axis in reversed(self.axes):
            grown = block * len(axis.values)
            if grown > cap:
                break
            block = grown
        return block

    def points(self) -> List[Dict[str, Any]]:
        """Every feasible assignment, in deterministic axis-major order: a
        fresh list of fresh dicts built from the memoised decode (see
        :meth:`iter_points`).  Prefer :meth:`assignments` /
        :meth:`feasible_count` where positions or a count suffice -- this
        list is what makes 10^6-point spaces expensive to hold.
        """
        return list(self.iter_points())

    def assignments(self, positions: Optional[Sequence[int]] = None) -> "Assignments":
        """The feasible assignments at ``positions`` (indices into the
        enumeration order; every position when omitted), as a sequence
        whose rows are built only where they are read."""
        if positions is None:
            positions = np.arange(self.feasible_count())
        return Assignments(self, positions)

    def params_table(self, positions: Any, fidelity: float = 1.0) -> ColumnTable:
        """The runner parameters of the feasible points at ``positions``,
        as one :class:`~repro.analysis.table.ColumnTable`: row ``i`` equals
        :meth:`point_params` of the assignment at ``positions[i]``, value
        for value and type for type.

        Each axis column is gathered from the axis's value array by the
        positions' decoded value numbers, each base parameter is a
        constant column, and no dict is built per point.  The default
        fidelity hook (:func:`scale_seq_len`) is applied to the
        ``seq_len`` column, once per distinct value; any other hook runs
        per row.
        """
        if not 0.0 < fidelity <= 1.0:
            raise ValueError(f"fidelity must be in (0, 1], got {fidelity}")
        codes = self._codes(positions)
        count = len(codes[0])
        columns = {
            key: np.repeat(exact_column([value]), count)
            for key, value in self.base_params.items()
        }
        for axis, code in zip(self.axes, codes):
            columns[axis.name] = exact_column(axis.values)[code]
        if fidelity < 1.0 and self.fidelity_hook is scale_seq_len:
            if "seq_len" in columns:
                columns["seq_len"] = self._scaled_seq_len(codes, count, fidelity)
        table = ColumnTable(columns)
        if fidelity < 1.0 and self.fidelity_hook is not scale_seq_len:
            table = ColumnTable.of([self.fidelity_hook(row, fidelity) for row in table])
        return table

    def _scaled_seq_len(
        self, codes: Sequence[np.ndarray], count: int, fidelity: float
    ) -> np.ndarray:
        """The ``seq_len`` column after :func:`scale_seq_len`, computed once
        per distinct ``seq_len`` of the rows."""

        def scaled(value: Any) -> Any:
            return scale_seq_len({"seq_len": value}, fidelity)["seq_len"]

        if "seq_len" in self.base_params:
            return np.repeat(exact_column([scaled(self.base_params["seq_len"])]), count)
        number = [axis.name for axis in self.axes].index("seq_len")
        values = self.axes[number].values
        held = np.flatnonzero(np.bincount(codes[number], minlength=len(values)))
        present = {code: scaled(values[code]) for code in held.tolist()}
        # Values no row holds take a present row's value, which keeps the
        # column's dtype that of the values the rows do hold.
        filler = next(iter(present.values()), None)
        mapped = [present.get(code, filler) for code in range(len(values))]
        return exact_column(mapped)[codes[number]]

    # --------------------------------------------------------- materialising

    def point_id(self, assignment: Mapping[str, Any]) -> str:
        """Stable short identity of one assignment (fidelity-independent)."""
        identity = canonical_json(
            {"space": self.name, "kind": self.kind, "assignment": dict(assignment)}
        )
        return hashlib.sha256(identity.encode()).hexdigest()[:10]

    def point_params(
        self, assignment: Mapping[str, Any], fidelity: float = 1.0
    ) -> Dict[str, Any]:
        """Resolve one assignment into the runner parameter mapping.

        ``base_params`` overlaid with the assignment, passed through the
        fidelity hook when ``fidelity < 1`` -- exactly the parameters a
        materialised scenario would carry, without building the scenario.
        This is the entry point of the exploration proxy: bulk evaluators
        feed these mappings straight to a registered batch runner.
        Infeasible assignments and unknown axis names raise ``ValueError``.
        """
        known = {axis.name for axis in self.axes}
        unknown = sorted(set(assignment) - known)
        if unknown:
            raise ValueError(
                f"unknown axis name(s) {unknown} for design space "
                f"{self.name!r}; axes: {sorted(known)}"
            )
        if not 0.0 < fidelity <= 1.0:
            raise ValueError(f"fidelity must be in (0, 1], got {fidelity}")
        if not self.feasible(assignment):
            failed = [
                table.constraint.name
                for table in self._verdict_tables
                if not table.verdict(assignment)
            ]
            raise ValueError(
                f"assignment violates constraint(s) {failed} of design "
                f"space {self.name!r}"
            )
        params = dict(self.base_params)
        params.update(assignment)
        if fidelity < 1.0:
            params = self.fidelity_hook(params, fidelity)
        return params

    def materialize(self, assignment: Mapping[str, Any]) -> DesignPoint:
        """Turn one assignment into a cacheable full-fidelity
        :class:`DesignPoint`.

        The scenario's parameters are :meth:`point_params`; the scenario name
        embeds the stable :meth:`point_id`.
        """
        params = self.point_params(assignment)
        point_id = self.point_id(assignment)
        scenario = Scenario(
            name=f"dse/{self.name}/{point_id}",
            kind=self.kind,
            params=params,
            tags=("dse", self.name),
            description=f"DSE point of space {self.name!r}",
        )
        return DesignPoint(
            space=self.name,
            point_id=point_id,
            assignment=dict(assignment),
            scenario=scenario,
        )

    def describe(self) -> str:
        """One-paragraph human-readable summary (used by ``explore --list``)."""
        lines = [
            f"{self.name}: {self.description or self.kind} "
            f"({self.cardinality} raw points, kind {self.kind!r})"
        ]
        for axis in self.axes:
            values = ", ".join(str(v) for v in axis.values)
            lines.append(f"  axis {axis.name}: {values}")
        for constraint in self.constraints:
            detail = constraint.description or "predicate"
            lines.append(f"  constraint {constraint.name}: {detail}")
        return "\n".join(lines)
