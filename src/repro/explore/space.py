"""Declarative design spaces: parameter axes, constraints, and fidelities.

A :class:`DesignSpace` is the searchable counterpart of a scenario kind: a
set of named :class:`Axis` objects (each a finite list of JSON-able values),
a set of named feasibility :class:`Constraint` predicates, and the scenario
*kind* every point evaluates through.  Points are plain assignments (axis
name -> value) that resolve into runner parameters
(:meth:`DesignSpace.point_params`, what exploration evaluates in chunks)
or materialise into an ad-hoc :class:`~repro.runner.scenarios.Scenario`
(what engine verification sweeps) whose canonical identity, and therefore
cache key, is exactly that parameter mapping.

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
import operator
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

from ..runner.scenarios import Scenario, canonical_json

__all__ = ["Axis", "Constraint", "DesignPoint", "DesignSpace", "scale_seq_len"]


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


def _position_key(positions: Sequence[int]) -> Callable[[Sequence[int]], Any]:
    """Key a tuple of value positions by the entries at ``positions``."""
    # itemgetter of one position yields the bare entry, of several a tuple;
    # either is a fine key as long as one table always uses the same.
    if not positions:
        return lambda _: ()
    return operator.itemgetter(*positions)


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
        self._points: Optional[List[Dict[str, Any]]] = None
        self._feasible_count: Optional[int] = None
        constrained = {axis for table in self._verdict_tables for axis in table.axes}
        #: positions of the constrained axes (the union of the constraints'
        #: declared axes), in axis order; feasibility depends on these alone.
        self._constrained: Tuple[int, ...] = tuple(
            position for position, name in enumerate(names) if name in constrained
        )
        self._feasible_combos: Optional[FrozenSet[Any]] = None

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

    def _feasible_table(self) -> FrozenSet[Any]:
        """The feasible combinations of the constrained axes (memoised).

        Each combination is a tuple of value positions (so list-valued axes
        work), keyed the way :func:`_position_key` keys a whole point's
        positions.  The table is filled with one :meth:`feasible` call per
        combination in axis-major order, so each predicate still runs once
        per distinct projection of its declared axes.
        """
        if self._feasible_combos is None:
            axes = [self.axes[position] for position in self._constrained]
            names = [axis.name for axis in axes]
            values = [axis.values for axis in axes]
            key = _position_key(range(len(axes)))
            self._feasible_combos = frozenset(
                key(combo)
                for combo in itertools.product(*(range(len(v)) for v in values))
                if self.feasible(dict(zip(names, map(operator.getitem, values, combo))))
            )
        return self._feasible_combos

    def iter_points(self) -> Iterator[Dict[str, Any]]:
        """Yield every feasible assignment in deterministic axis-major order
        -- the streaming counterpart of :meth:`points`.

        No point list is materialised: each combination of the cartesian
        product is looked up in the feasibility table of the constrained
        axes as it is walked, so a 10^6-point space costs one assignment
        dict of memory at a time, plus that table (one entry per
        combination of the constrained axes; a constraint that omits
        ``axes`` constrains every axis, so declaring them is what keeps the
        table small) and the verdict tables behind it.  Strategies that can
        consume a stream (grid search) use this; strategies whose seeded
        sampling needs the full indexed list (random, halving) still call
        :meth:`points`.  When the list is already memoised the stream
        replays it (same dicts, same order) rather than re-checking the
        constraints.
        """
        if self._points is not None:
            yield from self._points
            return
        feasible = self._feasible_table()
        key = _position_key(self._constrained)
        names = [axis.name for axis in self.axes]
        values = [axis.values for axis in self.axes]
        for combo in itertools.product(*(range(len(v)) for v in values)):
            if key(combo) in feasible:
                yield dict(zip(names, map(operator.getitem, values, combo)))

    def feasible_count(self) -> int:
        """How many feasible assignments the space has (memoised).

        The feasible combinations of the constrained axes times the product
        of the free axes' sizes: nothing is enumerated.
        """
        if self._feasible_count is None:
            count = len(self._feasible_table())
            for position, axis in enumerate(self.axes):
                if position not in self._constrained:
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
        """Every feasible assignment, in deterministic axis-major order.

        The enumeration is memoised (axes and constraints are immutable
        after construction, and constraint predicates may be expensive);
        callers get a fresh list each time but share the assignment dicts,
        which nothing in the explorer mutates.  Prefer :meth:`iter_points`
        /:meth:`feasible_count` where a stream or a count suffices -- this
        list is what makes 10^6-point spaces expensive to hold.
        """
        if self._points is None:
            self._points = list(self.iter_points())
            self._feasible_count = len(self._points)
        return list(self._points)

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
