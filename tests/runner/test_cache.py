"""Tests for the on-disk result cache."""

from __future__ import annotations

import json

import pytest

from repro.runner import REGISTRY, ResultCache, code_version
from repro.runner.cache import (decode_result, encode_params,
                                read_json_object, write_json_atomic)
from repro.runner.scenarios import Scenario


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _scenario(**params) -> Scenario:
    return Scenario(name="smoke/engine-chain", kind="engine_chain",
                    params={"n_msgs": 10, "stages": 1, **params})


class TestResultCache:
    def test_miss_then_store_then_hit(self, cache):
        scenario = _scenario()
        assert cache.load(scenario) is None
        result = REGISTRY.run(scenario)
        path = cache.store(scenario, result, elapsed_s=0.01)
        assert path.exists()
        payload = cache.load(scenario)
        assert payload is not None
        assert payload["results"] == [result]
        assert (payload["kind"], payload["params"]) == (scenario.kind,
                                                        [scenario.params])
        assert payload["code_version"] == code_version()

    def test_key_depends_on_params(self, cache):
        def key(scenario):
            return cache.chunk_key(scenario.kind, [scenario.params])

        assert key(_scenario()) != key(_scenario(n_msgs=11))
        assert key(_scenario()) == key(_scenario())

    def test_stale_code_version_is_a_miss(self, cache):
        scenario = _scenario()
        path = cache.store(scenario, {"events": 1}, elapsed_s=0.0)
        payload = json.loads(path.read_text())
        payload["code_version"] = "0" * 16
        path.write_text(json.dumps(payload))
        assert cache.load(scenario) is None

    def test_params_mismatch_is_a_miss(self, cache):
        scenario = _scenario()
        path = cache.store(scenario, {"events": 1}, elapsed_s=0.0)
        payload = json.loads(path.read_text())
        payload["params"][0]["n_msgs"] = 999
        path.write_text(json.dumps(payload))
        assert cache.load(scenario) is None

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_corrupt_entry_is_a_miss(self, cache, text):
        scenario = _scenario()
        path = cache.store(scenario, {"events": 1}, elapsed_s=0.0)
        path.write_text(text)
        assert cache.load(scenario) is None

    @pytest.mark.parametrize("results", [[None], [1], ["x"]])
    def test_entry_with_non_object_results_is_a_miss(self, cache, results):
        scenario = _scenario()
        path = cache.store(scenario, {"events": 1}, elapsed_s=0.0)
        payload = json.loads(path.read_text())
        payload["results"] = results
        path.write_text(json.dumps(payload))
        assert cache.load(scenario) is None

    def test_clear_removes_entries(self, cache):
        cache.store(_scenario(), {"events": 1}, elapsed_s=0.0)
        cache.store(_scenario(n_msgs=11), {"events": 2}, elapsed_s=0.0)
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_clear_tolerates_concurrent_removal(self, cache, monkeypatch):
        from pathlib import Path
        cache.store(_scenario(), {"events": 1}, elapsed_s=0.0)
        cache.store(_scenario(n_msgs=11), {"events": 2}, elapsed_s=0.0)
        real_unlink = Path.unlink
        raced = []

        def racy_unlink(self, *args, **kwargs):
            # A concurrent pruner deletes the first entry between the
            # directory listing and our unlink.
            if not raced:
                raced.append(self)
                real_unlink(self)
                raise FileNotFoundError(str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racy_unlink)
        assert cache.clear() == 1  # the second entry; the raced one is free
        assert cache.entries() == []


class TestWriteJsonAtomic:
    def test_single_line_with_sorted_keys(self, tmp_path):
        path = write_json_atomic(tmp_path / "entry.json",
                                 {"b": [1, {"z": 0, "y": 1}], "a": "x"})
        text = path.read_text()
        assert "\n" not in text
        assert text == '{"a": "x", "b": [1, {"y": 1, "z": 0}]}'
        assert not list(tmp_path.glob("*.tmp"))

    def test_round_trips_nested_payloads_and_extreme_floats(self, tmp_path):
        payload = {
            "results": [{"latency_s": 0.1 + 0.2, "ddr_bytes": 2**53 + 1},
                        {"latency_s": 5e-324, "tags": ["a", None, True]}],
            "elapsed_s": 1.7976931348623157e308,
            "nested": {"empty": {}, "list": [], "neg": -0.0},
        }
        path = write_json_atomic(tmp_path / "entry.json", payload)
        loaded = read_json_object(path)
        assert loaded == payload
        floats = (loaded["results"][0]["latency_s"],
                  loaded["results"][1]["latency_s"], loaded["elapsed_s"])
        assert [repr(value) for value in floats] == \
            ["0.30000000000000004", "5e-324", "1.7976931348623157e+308"]


class TestChunkTexts:
    """The chunk text format: one params text per chunk, and a result's
    results text read out in the same pass that decodes it."""

    RESULT = {"job": "b.00000000", "worker": "w", "kind": "k",
              "results": [{"latency_s": 1.5, "tags": ["a", "\u00e9"]},
                          {"latency_s": None}],
              "elapsed_s": 0.25, "segment_memo": [{"key": "k"}]}

    @pytest.mark.parametrize("dumps", [
        lambda p: json.dumps(p, sort_keys=True),
        lambda p: json.dumps(p, indent=2),
        lambda p: json.dumps(p, separators=(",", ":"), ensure_ascii=False),
    ], ids=["sorted", "indented", "compact"])
    def test_decode_result_matches_json_and_spans_the_results(self, dumps):
        text = dumps(self.RESULT)
        payload, results_text = decode_result(text)
        assert payload == json.loads(text)
        assert json.loads(results_text) == self.RESULT["results"]
        assert results_text in text

    def test_decode_result_without_results(self):
        assert decode_result(' {"error": {"type": "x"}} ') == (
            {"error": {"type": "x"}}, None)
        assert decode_result("{}") == ({}, None)

    @pytest.mark.parametrize("text", [
        "", "[]", "{", '{"a" 1}', '{"a": 1,}', '{"a": 1} x', "{1: 2}",
        '{"a": 1 "b": 2}', '{"a": 1', "{,}", "{not json"])
    def test_decode_result_rejects_what_is_not_an_object(self, text):
        with pytest.raises(ValueError):
            decode_result(text)

    def test_key_of_the_params_text_is_the_key_of_the_params(self, cache):
        params = [{"n_msgs": 10, "stages": 1}, {"n_msgs": 11, "stages": 2}]
        text = encode_params(params)
        assert cache.chunk_key("k/\u00fc", params, "analytic") == \
            cache.chunk_key("k/\u00fc", params, "analytic", params_text=text)


class TestPrune:
    def test_prune_keeps_current_entries(self, cache):
        cache.store(_scenario(), {"events": 1}, elapsed_s=0.0)
        stats = cache.prune()
        assert (stats.kept, stats.removed, stats.warnings) == (1, 0, [])
        assert len(cache.entries()) == 1

    def test_prune_removes_stale_code_versions(self, cache):
        path = cache.store(_scenario(), {"events": 1}, elapsed_s=0.0)
        payload = json.loads(path.read_text())
        payload["code_version"] = "0" * 16
        path.write_text(json.dumps(payload))
        cache.store(_scenario(n_msgs=11), {"events": 2}, elapsed_s=0.0)
        stats = cache.prune()
        assert (stats.kept, stats.removed) == (1, 1)
        assert not path.exists()

    def test_prune_removes_corrupted_entries_with_warning(self, cache):
        path = cache.store(_scenario(), {"events": 1}, elapsed_s=0.0)
        path.write_text("{not json")
        (cache.root / "list-entry.json").write_text("[1, 2]")
        stats = cache.prune()
        assert stats.removed == 2
        assert len(stats.warnings) == 2
        assert any("corrupted" in warning for warning in stats.warnings)
        assert cache.entries() == []

    def test_prune_tolerates_unremovable_entries(self, cache, monkeypatch):
        """A read-only/foreign-owned entry degrades to a warning, never a
        traceback (the prune contract on shared cache directories)."""
        from pathlib import Path
        path = cache.store(_scenario(), {"events": 1}, elapsed_s=0.0)
        path.write_text("{not json")

        def denied(self, *args, **kwargs):
            raise PermissionError(f"[Errno 13] Permission denied: {self}")

        monkeypatch.setattr(Path, "unlink", denied)
        stats = cache.prune()  # must not raise
        assert stats.removed == 0
        assert any("cannot remove" in warning for warning in stats.warnings)

    def test_prune_tolerates_vanishing_files(self, cache, monkeypatch):
        from pathlib import Path
        cache.store(_scenario(), {"events": 1}, elapsed_s=0.0)

        def vanished(self, *args, **kwargs):
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "read_text", vanished)
        stats = cache.prune()  # must not raise
        assert (stats.kept, stats.removed, stats.warnings) == (0, 0, [])

    @pytest.mark.parametrize("subdir", ["", ResultCache.SEGMENTS_SUBDIR])
    def test_prune_removes_only_stale_tmp_spill_files(self, cache, subdir):
        # Segment-memo writes spill into segments/, so prune reaps there too.
        import os
        import time
        directory = cache.root / subdir
        directory.mkdir(exist_ok=True)
        fresh = directory / "inflight.tmp"
        fresh.write_text("partial write")
        stale = directory / "crashed.tmp"
        stale.write_text("partial write")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        stats = cache.prune()
        assert fresh.exists(), "a concurrent writer may still own fresh .tmp"
        assert not stale.exists()
        assert any("abandoned" in warning for warning in stats.warnings)
