"""Declarative simulation scenarios and the registry that holds them.

A *scenario* is one parameterized simulation or model evaluation -- a
(workload x config x codegen options) point -- described purely as data: a
scenario *kind* naming a registered runner function, plus a JSON-able
parameter mapping.  Because scenarios are data, they can be enumerated,
filtered by tag, fanned out across worker processes, and hashed into stable
on-disk cache keys (:mod:`repro.runner.cache`).

The registry has two layers:

* **kinds** -- runner functions ``fn(**params) -> dict`` registered with
  :meth:`ScenarioRegistry.kind`.  A runner must be deterministic in its
  parameters and return a JSON-serialisable dict, so results can round-trip
  through the cache and through ``multiprocessing`` unchanged.  Each kind
  declares which execution *backends* it supports: the cycle-level
  ``"engine"`` backend (event-driven simulation) and/or the ``"analytic"``
  backend (closed-form roofline estimation, no event loop).  A kind may
  register one function per backend, or a single backend-independent
  function for both.
* **scenarios** -- named, tagged parameterizations of a kind, registered with
  :meth:`ScenarioRegistry.add`.  The benchmark suite's table/figure points
  are all registered in :mod:`repro.runner.library`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Scenario",
    "ScenarioRegistry",
    "REGISTRY",
    "canonical_json",
    "BACKENDS",
    "CONTRACT_RTOL",
    "DEFAULT_BACKEND",
    "check_contract",
]


#: the execution backends a scenario kind can support.
BACKENDS: Tuple[str, ...] = ("engine", "analytic")

#: backend used when callers do not ask for one explicitly.
DEFAULT_BACKEND = "engine"

#: relative slack on the certified lower bound -- pure float-noise headroom
#: (the engine sums latencies in another order); the analytic model itself
#: is a true bound.
CONTRACT_RTOL = 1e-9


def check_contract(
    analytic: Mapping[str, Any], engine: Mapping[str, Any]
) -> Tuple[bool, bool]:
    """The certified contract between one point's ``analytic`` and
    ``engine`` payloads: ``(bound_ok, traffic_ok)``, whether the analytic
    latency is at most the engine's (within :data:`CONTRACT_RTOL`) and
    whether both backends move the same DDR and LPDDR bytes."""
    bound_ok = analytic["latency_s"] <= engine["latency_s"] * (1.0 + CONTRACT_RTOL)
    traffic_ok = (
        analytic["ddr_bytes"] == engine["ddr_bytes"]
        and analytic["lpddr_bytes"] == engine["lpddr_bytes"]
    )
    return bound_ok, traffic_ok


def canonical_json(value: Any) -> str:
    """A stable, whitespace-free JSON encoding used for hashing and equality.

    Non-finite floats (NaN, +/-Infinity) are rejected: ``json`` would emit the
    non-standard tokens ``NaN``/``Infinity`` for them, which silently
    round-trip through Python but are not valid JSON and would poison cache
    keys (two NaN-parameterised scenarios can never compare equal).
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as error:
        raise ValueError(
            f"canonical_json: non-finite float in {value!r} ({error}); "
            "NaN/Infinity cannot be used in scenario parameters or cache keys"
        ) from None


def _normalize_backends(backend: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    backends = (backend,) if isinstance(backend, str) else tuple(backend)
    unknown = [b for b in backends if b not in BACKENDS]
    if unknown:
        raise ValueError(f"unknown backend(s) {unknown}; known: {list(BACKENDS)}")
    if not backends:
        raise ValueError("at least one backend must be declared")
    return backends


@dataclass(frozen=True)
class Scenario:
    """One declarative simulation point.

    Parameters are stored as a plain mapping of JSON-able values; anything a
    runner needs beyond that (option objects, model specs) is reconstructed
    inside the runner from these primitives.
    """

    name: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    description: str = ""

    def canonical(self) -> str:
        """Stable identity string of the work this scenario describes."""
        return canonical_json({"kind": self.kind, "params": self.params})


class ScenarioRegistry:
    """Registry of scenario kinds (runner functions) and named scenarios."""

    def __init__(self) -> None:
        #: kind name -> backend name -> runner function.
        self._kinds: Dict[str, Dict[str, Callable[..., dict]]] = {}
        #: kind name -> backend name -> batch runner (param list -> results).
        self._batch_kinds: Dict[str, Dict[str, Callable[..., List[dict]]]] = {}
        self._scenarios: Dict[str, Scenario] = {}

    # ----------------------------------------------------------------- kinds

    def kind(
        self, name: str, backend: Union[str, Sequence[str]] = DEFAULT_BACKEND
    ) -> Callable[[Callable[..., dict]], Callable[..., dict]]:
        """Decorator registering a runner function for scenario kind ``name``.

        ``backend`` names the execution backend(s) this function implements:
        ``"engine"`` (default), ``"analytic"``, or a sequence of both for
        backend-independent kinds (pure analytical models behave identically
        under either backend).
        """
        backends = _normalize_backends(backend)

        def decorator(fn: Callable[..., dict]) -> Callable[..., dict]:
            implementations = self._kinds.setdefault(name, {})
            for b in backends:
                if b in implementations:
                    raise ValueError(
                        f"scenario kind {name!r} already "
                        f"registered for the {b!r} backend"
                    )
                implementations[b] = fn
            return fn

        return decorator

    def batch_kind(
        self, name: str, backend: Union[str, Sequence[str]] = "analytic"
    ) -> Callable[[Callable[..., List[dict]]], Callable[..., List[dict]]]:
        """Decorator registering a *batch* runner for scenario kind ``name``.

        A batch runner takes a sequence of parameter mappings and returns one
        result dict per mapping, in order -- with the hard contract that each
        result equals what the scalar runner for the same backend returns for
        the same parameters.  The analytic roofline kinds derive their scalar
        runner from the batch runner, as a batch of one
        (:mod:`repro.runner.library`); the differential suite checks that
        sharing work across a batch changes no bit.  Batch runners exist so
        bulk evaluators (the design-space explorer above all) can amortise
        shared work across a whole generation of points instead of paying
        the full per-point cost.
        """
        backends = _normalize_backends(backend)

        def decorator(fn: Callable[..., List[dict]]) -> Callable[..., List[dict]]:
            if name not in self._kinds:
                raise KeyError(
                    f"unknown scenario kind {name!r}; register the "
                    "scalar runner before its batch runner"
                )
            implementations = self._batch_kinds.setdefault(name, {})
            for b in backends:
                if b in implementations:
                    raise ValueError(
                        f"scenario kind {name!r} already has a "
                        f"batch runner for the {b!r} backend"
                    )
                if b not in self._kinds[name]:
                    raise ValueError(
                        f"scenario kind {name!r} has no scalar "
                        f"{b!r} runner to match the batch runner"
                    )
                implementations[b] = fn
            return fn

        return decorator

    def batch_runner(
        self, kind: str, backend: str = "analytic"
    ) -> Optional[Callable[..., List[dict]]]:
        """The batch runner for ``kind`` on ``backend``, or ``None``.

        Unlike :meth:`runner` this is a capability probe, not a hard lookup:
        callers fall back to the scalar path when no batch runner exists.
        """
        return self._batch_kinds.get(kind, {}).get(backend)

    def runner(self, kind: str, backend: str = DEFAULT_BACKEND) -> Callable[..., dict]:
        try:
            implementations = self._kinds[kind]
        except KeyError:
            raise KeyError(
                f"unknown scenario kind {kind!r}; known: {sorted(self._kinds)}"
            ) from None
        try:
            return implementations[backend]
        except KeyError:
            raise KeyError(
                f"scenario kind {kind!r} does not support the {backend!r} "
                f"backend; it supports: {sorted(implementations)}"
            ) from None

    def backends(self, kind: str) -> Tuple[str, ...]:
        """The backends a kind supports, in canonical ``BACKENDS`` order."""
        try:
            implementations = self._kinds[kind]
        except KeyError:
            raise KeyError(
                f"unknown scenario kind {kind!r}; known: {sorted(self._kinds)}"
            ) from None
        return tuple(b for b in BACKENDS if b in implementations)

    def supports(self, kind: str, backend: str) -> bool:
        return backend in self.backends(kind)

    # ------------------------------------------------------------- scenarios

    def add(
        self,
        name: str,
        kind: str,
        params: Optional[Mapping[str, Any]] = None,
        tags: Sequence[str] = (),
        description: str = "",
    ) -> Scenario:
        """Register a named scenario; returns the frozen :class:`Scenario`."""
        if name in self._scenarios:
            raise ValueError(f"scenario {name!r} already registered")
        if kind not in self._kinds:
            raise KeyError(f"unknown scenario kind {kind!r} for scenario {name!r}")
        scenario = Scenario(
            name=name,
            kind=kind,
            params=dict(params or {}),
            tags=tuple(tags),
            description=description,
        )
        # Fail fast on non-JSON-able params -- they could not be cached or
        # shipped to worker processes faithfully.
        canonical_json(scenario.params)
        self._scenarios[name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; run `python -m repro.runner "
                "list` for the catalogue"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._scenarios)

    def select(
        self,
        names: Optional[Iterable[str]] = None,
        tags: Optional[Iterable[str]] = None,
        backend: Optional[str] = None,
    ) -> List[Scenario]:
        """Scenarios by explicit name and/or by tag (union), in stable order.

        ``backend`` optionally filters to scenarios whose kind supports that
        backend (explicitly named scenarios that do not support it raise, so a
        typo'd request fails loudly instead of silently shrinking).
        """
        explicit = list(names) if names is not None else None
        picked: Dict[str, Scenario] = {}
        for name in explicit or ():
            picked[name] = self.get(name)
        wanted = set(tags or ())
        if wanted:
            for name in self.names():
                scenario = self._scenarios[name]
                if wanted & set(scenario.tags):
                    picked[name] = scenario
        if explicit is None and tags is None:
            picked = {name: self._scenarios[name] for name in self.names()}
        selected = [picked[name] for name in sorted(picked)]
        if backend is not None:
            for name in explicit or ():
                scenario = picked[name]
                if not self.supports(scenario.kind, backend):
                    raise KeyError(
                        f"scenario {scenario.name!r} (kind {scenario.kind!r}) does "
                        f"not support the {backend!r} backend"
                    )
            selected = [s for s in selected if self.supports(s.kind, backend)]
        return selected

    def all_tags(self) -> List[str]:
        tags = set()
        for scenario in self._scenarios.values():
            tags.update(scenario.tags)
        return sorted(tags)

    # ------------------------------------------------------------- execution

    def run(self, scenario_or_name, backend: str = DEFAULT_BACKEND) -> dict:
        """Execute one scenario in-process on ``backend``; returns its result."""
        scenario = (
            scenario_or_name
            if isinstance(scenario_or_name, Scenario)
            else self.get(scenario_or_name)
        )
        result = self.runner(scenario.kind, backend)(**scenario.params)
        if not isinstance(result, dict):
            raise TypeError(
                f"scenario {scenario.name!r}: runner for kind "
                f"{scenario.kind!r} ({backend} backend) returned "
                f"{type(result).__name__}, expected a JSON-able dict"
            )
        return result


#: the process-wide registry; populated by :mod:`repro.runner.library`.
REGISTRY = ScenarioRegistry()
