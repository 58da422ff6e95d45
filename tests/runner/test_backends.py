"""Unit tests for the backend layer: registry declarations, cache identity,
and sweep execution on both backends."""

from __future__ import annotations

import math

import pytest

from repro.runner import (BACKENDS, DEFAULT_BACKEND, REGISTRY, ResultCache,
                          Scenario, ScenarioRegistry, canonical_json, run_sweep)


class TestBackendRegistry:
    def test_default_registration_is_engine_only(self):
        registry = ScenarioRegistry()
        registry.kind("k")(lambda: {"x": 1})
        assert registry.backends("k") == ("engine",)
        assert registry.supports("k", "engine")
        assert not registry.supports("k", "analytic")

    def test_per_backend_implementations(self):
        registry = ScenarioRegistry()
        registry.kind("k")(lambda: {"backend": "engine"})
        registry.kind("k", backend="analytic")(lambda: {"backend": "analytic"})
        registry.add("s", "k")
        assert registry.backends("k") == BACKENDS
        assert registry.run("s") == {"backend": "engine"}
        assert registry.run("s", backend="analytic") == {"backend": "analytic"}

    def test_backend_independent_registration(self):
        registry = ScenarioRegistry()

        @registry.kind("k", backend=("engine", "analytic"))
        def runner():
            return {"same": True}

        registry.add("s", "k")
        assert registry.run("s") == registry.run("s", backend="analytic")

    def test_duplicate_backend_rejected(self):
        registry = ScenarioRegistry()
        registry.kind("k")(lambda: {})
        with pytest.raises(ValueError,
                           match="already registered for the 'engine' backend"):
            registry.kind("k")(lambda: {})

    def test_unknown_backend_rejected_at_registration(self):
        registry = ScenarioRegistry()
        with pytest.raises(ValueError, match="unknown backend"):
            registry.kind("k", backend="quantum")(lambda: {})

    def test_unsupported_backend_raises_cleanly(self):
        registry = ScenarioRegistry()
        registry.kind("k")(lambda: {})
        registry.add("s", "k")
        with pytest.raises(KeyError, match="does not support the 'analytic'"):
            registry.run("s", backend="analytic")

    def test_select_filters_by_backend(self):
        registry = ScenarioRegistry()
        registry.kind("engine-only")(lambda: {})
        registry.kind("both", backend=BACKENDS)(lambda: {})
        registry.add("a", "engine-only")
        registry.add("b", "both")
        assert [s.name for s in registry.select(backend="analytic")] == ["b"]
        assert [s.name for s in registry.select(backend="engine")] == ["a", "b"]
        with pytest.raises(KeyError, match="does not support"):
            registry.select(names=["a"], backend="analytic")

    def test_catalogue_kinds_all_support_both_backends(self):
        for name in REGISTRY.names():
            assert REGISTRY.backends(REGISTRY.get(name).kind) == BACKENDS


class TestBackendCacheIdentity:
    def _scenario(self) -> Scenario:
        return REGISTRY.get("smoke/engine-chain")

    def test_backend_is_part_of_the_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = self._scenario()
        kind, params_list = scenario.kind, [scenario.params]
        assert (cache.chunk_key(kind, params_list, "engine")
                != cache.chunk_key(kind, params_list, "analytic"))
        assert (cache.chunk_key(kind, params_list)
                == cache.chunk_key(kind, params_list, DEFAULT_BACKEND))

    def test_entries_do_not_cross_backends(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = self._scenario()
        cache.store(scenario, {"value": 1}, 0.1, backend="engine")
        assert cache.load(scenario, backend="analytic") is None
        cache.store(scenario, {"value": 2}, 0.1, backend="analytic")
        assert cache.load(scenario, backend="engine")["results"] == [{"value": 1}]
        assert cache.load(scenario, backend="analytic")["results"] == [{"value": 2}]

    def test_payload_records_backend(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = self._scenario()
        path = cache.store(scenario, {"value": 3}, 0.1, backend="analytic")
        assert '"backend": "analytic"' in path.read_text()


class TestBackendSweep:
    def test_sweep_runs_on_each_backend_and_caches_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        names = ["table6b/gemm-1024"]
        engine = run_sweep(names, cache=cache, backend="engine")
        analytic = run_sweep(names, cache=cache, backend="analytic")
        assert engine[0].backend == "engine" and not engine[0].cached
        assert analytic[0].backend == "analytic" and not analytic[0].cached
        assert analytic[0].result["latency_s"] <= engine[0].result["latency_s"]
        # Each backend hits only its own entry on the second pass.
        assert run_sweep(names, cache=cache, backend="engine")[0].cached
        assert run_sweep(names, cache=cache, backend="analytic")[0].cached
        assert len(cache.entries()) == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            run_sweep(["smoke/engine-chain"], backend="quantum")

    def test_unsupported_scenario_fails_before_execution(self):
        registry_kind = "backend-sweep-test-engine-only"
        REGISTRY.kind(registry_kind)(lambda: {"ok": True})
        try:
            scenario = Scenario(name="adhoc/engine-only", kind=registry_kind)
            with pytest.raises(KeyError, match="does not support"):
                run_sweep([scenario], backend="analytic")
        finally:
            REGISTRY._kinds.pop(registry_kind)


class TestCanonicalJsonNonFinite:
    """NaN/Infinity must be rejected instead of silently poisoning keys."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_floats_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"x": value})

    def test_nested_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"params": {"scales": [1.0, math.inf]}})

    def test_finite_values_still_canonical(self):
        assert canonical_json({"b": 1.5, "a": 2}) == '{"a":2,"b":1.5}'

    def test_scenario_registration_rejects_non_finite_params(self):
        registry = ScenarioRegistry()
        registry.kind("k")(lambda **kw: {})
        with pytest.raises(ValueError, match="non-finite"):
            registry.add("s", "k", {"scale": float("nan")})
