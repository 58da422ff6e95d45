"""Segment-memo keying, invalidation, and wiring tests.

The memo must hit iff a simulation would be byte-identical: same uOP
streams, same hardware configuration, same codegen options, same code
version.  Anything else -- a changed tile knob, a scaled bandwidth (which
does not even change the uOPs!), a bumped code version, a corrupted disk
entry -- must be a miss that falls back to fresh simulation.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import cache as cache_module
from repro.runner.cache import ResultCache, SegmentMemo
from repro.runner.sweep import _run_chunk, run_sweep
from repro.xnn import CodegenOptions, XNNConfig, XNNExecutor
from repro.xnn.codegen import ProgramBuilder
from repro.xnn.datapath import XNNDatapath
from repro.workloads.layers import MatMulLayer


def _gemm_fingerprint(config: XNNConfig, options: CodegenOptions) -> str:
    xnn = XNNDatapath(config)
    memory = xnn.memory
    memory.add("lhs", (256, 256))
    memory.add("rhs", (256, 256))
    memory.allocate("out", (256, 256))
    builder = ProgramBuilder(xnn, options)
    builder.add_gemm_layer(MatMulLayer("gemm", m=256, k=256, n=256),
                           lhs="lhs", rhs="rhs", out="out")
    return builder.fingerprint()


TIMING_CONFIG = XNNConfig(carry_data=False)


class TestFingerprint:
    def test_identical_programs_have_identical_fingerprints(self):
        first = _gemm_fingerprint(TIMING_CONFIG, CodegenOptions())
        second = _gemm_fingerprint(TIMING_CONFIG, CodegenOptions())
        assert first == second

    def test_codegen_options_change_fingerprint(self):
        base = _gemm_fingerprint(TIMING_CONFIG, CodegenOptions())
        tiled = _gemm_fingerprint(TIMING_CONFIG, CodegenOptions(tile_m=384))
        assert base != tiled

    def test_config_change_without_uop_change_fingerprints_differently(self):
        # bandwidth_scale alters transfer *times* but not a single uOP --
        # the config must be part of the key or scaled runs would collide.
        base = _gemm_fingerprint(TIMING_CONFIG, CodegenOptions())
        scaled = _gemm_fingerprint(XNNConfig(carry_data=False,
                                             bandwidth_scale=2.0),
                                   CodegenOptions())
        assert base != scaled

    def test_code_version_changes_fingerprint(self, monkeypatch):
        base = _gemm_fingerprint(TIMING_CONFIG, CodegenOptions())
        monkeypatch.setattr(cache_module, "code_version",
                            lambda: "deadbeefdeadbeef")
        bumped = _gemm_fingerprint(TIMING_CONFIG, CodegenOptions())
        assert base != bumped


class TestMemoBehaviour:
    def test_identical_runs_hit_and_match_fresh_exactly(self):
        # A cold segment misses its workload key and stores under it; a
        # warm segment is one hit with zero codegen.
        memo = SegmentMemo()
        executor = XNNExecutor(config=TIMING_CONFIG, segment_memo=memo)
        first, _ = executor.run_gemm(256, 256, 256)
        assert memo.hits == 0 and memo.misses == 1
        second, _ = executor.run_gemm(256, 256, 256)
        assert memo.hits == 1 and memo.misses == 1

        fresh, _ = XNNExecutor(config=TIMING_CONFIG,
                               segment_memo=None).run_gemm(256, 256, 256)
        for memoized in (first, second):
            assert memoized.latency_s == fresh.latency_s
            assert memoized.ddr_bytes == fresh.ddr_bytes
            assert memoized.lpddr_bytes == fresh.lpddr_bytes
            assert memoized.uops == fresh.uops

    def test_option_change_misses(self):
        memo = SegmentMemo()
        XNNExecutor(config=TIMING_CONFIG, segment_memo=memo).run_gemm(256, 256, 256)
        XNNExecutor(config=TIMING_CONFIG, options=CodegenOptions(tile_m=384),
                    segment_memo=memo).run_gemm(256, 256, 256)
        assert memo.hits == 0 and memo.misses == 2

    def test_config_change_misses(self):
        memo = SegmentMemo()
        XNNExecutor(config=TIMING_CONFIG, segment_memo=memo).run_gemm(256, 256, 256)
        XNNExecutor(config=XNNConfig(carry_data=False, bandwidth_scale=2.0),
                    segment_memo=memo).run_gemm(256, 256, 256)
        assert memo.hits == 0 and memo.misses == 2

    def test_functional_runs_bypass_the_memo(self):
        import numpy as np
        memo = SegmentMemo()
        executor = XNNExecutor(config=XNNConfig(carry_data=True),
                               segment_memo=memo)
        rng = np.random.default_rng(0)
        lhs = rng.standard_normal((64, 64)).astype(np.float32)
        rhs = rng.standard_normal((64, 64)).astype(np.float32)
        _, out = executor.run_gemm(64, 64, 64, lhs_data=lhs, rhs_data=rhs)
        assert out is not None
        assert len(memo) == 0 and memo.hits == 0 and memo.misses == 0


class TestOneKeyColdPath:
    def test_cold_encoder_stores_one_workload_key_per_segment(self,
                                                              monkeypatch):
        # The program fingerprint is not a memo key: a cold timing-only run
        # never computes it, and stores each segment under its workload key.
        def no_fingerprint(self):
            raise AssertionError("the memo must not fingerprint programs")

        monkeypatch.setattr(ProgramBuilder, "fingerprint", no_fingerprint)
        memo = SegmentMemo()
        result = XNNExecutor(config=TIMING_CONFIG,
                             segment_memo=memo).run_encoder(batch=1, seq_len=64)
        assert len(memo.keys()) == len(result.segments)
        assert len(memo.take_new()) == len(result.segments)
        assert all(key.startswith("workload-") for key in memo.keys())


class TestDiskLayer:
    def test_disk_round_trip_is_exact_across_memo_instances(self, tmp_path):
        first = SegmentMemo(root=tmp_path)
        executor = XNNExecutor(config=TIMING_CONFIG, segment_memo=first)
        result, _ = executor.run_gemm(256, 256, 256)

        # A fresh memo on the same directory serves the entry without any
        # simulation, byte-identically (JSON float round-trip is exact).
        second = SegmentMemo(root=tmp_path)
        executor = XNNExecutor(config=TIMING_CONFIG, segment_memo=second)
        reloaded, _ = executor.run_gemm(256, 256, 256)
        assert second.hits == 1 and second.misses == 0
        assert reloaded.latency_s == result.latency_s
        assert reloaded.ddr_bytes == result.ddr_bytes
        assert reloaded.lpddr_bytes == result.lpddr_bytes

    def test_stale_code_version_on_disk_misses(self, tmp_path):
        memo = SegmentMemo(root=tmp_path)
        XNNExecutor(config=TIMING_CONFIG, segment_memo=memo).run_gemm(256, 256, 256)
        entries = sorted(tmp_path.glob("segment-*.json"))
        assert entries
        for path in entries:
            payload = json.loads(path.read_text())
            payload["code_version"] = "0000000000000000"
            path.write_text(json.dumps(payload))
        stale = SegmentMemo(root=tmp_path)
        XNNExecutor(config=TIMING_CONFIG, segment_memo=stale).run_gemm(256, 256, 256)
        assert stale.hits == 0 and stale.misses == 1

    def test_corrupted_disk_entry_is_a_miss(self, tmp_path):
        memo = SegmentMemo(root=tmp_path)
        XNNExecutor(config=TIMING_CONFIG, segment_memo=memo).run_gemm(256, 256, 256)
        for path in tmp_path.glob("segment-*.json"):
            path.write_text("{not json")
        corrupted = SegmentMemo(root=tmp_path)
        XNNExecutor(config=TIMING_CONFIG,
                    segment_memo=corrupted).run_gemm(256, 256, 256)
        assert corrupted.hits == 0 and corrupted.misses == 1

    def test_partial_disk_entry_is_a_miss(self, tmp_path):
        # A current-code-version entry missing result fields must re-simulate
        # to the fresh numbers, not crash the executor.
        memo = SegmentMemo(root=tmp_path)
        XNNExecutor(config=TIMING_CONFIG, segment_memo=memo).run_gemm(256, 256, 256)
        for path in tmp_path.glob("segment-*.json"):
            payload = json.loads(path.read_text())
            del payload["result"]["latency_s"], payload["result"]["uops"]
            path.write_text(json.dumps(payload))
        partial = SegmentMemo(root=tmp_path)
        result, _ = XNNExecutor(config=TIMING_CONFIG,
                                segment_memo=partial).run_gemm(256, 256, 256)
        fresh, _ = XNNExecutor(config=TIMING_CONFIG,
                               segment_memo=None).run_gemm(256, 256, 256)
        assert partial.hits == 0 and partial.misses == 1
        assert (result.latency_s, result.ddr_bytes, result.lpddr_bytes,
                result.uops) == (fresh.latency_s, fresh.ddr_bytes,
                                 fresh.lpddr_bytes, fresh.uops)

    @pytest.mark.parametrize("failure", ["root removed", "entry path taken"])
    def test_failed_disk_write_degrades_to_memory(self, tmp_path, failure):
        # The disk layer is an accelerator: a write that cannot land must
        # not fail the simulation, and must not leave a spill file behind.
        root = tmp_path / "segments"
        memo = SegmentMemo(root=root)
        if failure == "root removed":
            root.rmdir()
        else:
            memo._path("k").mkdir()  # os.replace onto a directory fails
        memo.store("k", {"latency_s": 1.0})
        assert memo.load("k") == {"latency_s": 1.0}
        assert memo.hits == 1
        assert not list(tmp_path.rglob("*.tmp"))


class TestSweepWiring:
    @pytest.fixture(autouse=True)
    def _isolate_process_memo(self):
        # The sweep attaches the on-disk layer to the process-wide memo;
        # detach and drop test entries afterwards so other tests see the
        # same pristine memo they started with.
        memo = cache_module.process_segment_memo()
        yield
        memo.set_root(None)

    def test_cached_sweep_persists_segment_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        outcomes = run_sweep(["smoke/engine-chain"], cache=cache)
        assert not outcomes[0].cached
        # engine_chain runs the raw engine (no executor), so only the wiring
        # is observable here: the memo must now point at the cache directory.
        assert cache_module.process_segment_memo().root == cache.segments_dir

    @pytest.mark.parametrize("where", ["under a regular file", "absent"])
    def test_chunk_without_the_memo_dir_runs_memory_only(self, tmp_path, where):
        # A worker on another host receives the submitter's absolute memo
        # path.  Where that path is unusable or absent, the chunk must still
        # run, and the worker must create nothing on its own host.
        blocker = tmp_path / "file"
        blocker.write_text("")
        parent = blocker if where == "under a regular file" else tmp_path / "cache"
        memo_dir = parent / "segments"
        results, _ = _run_chunk(("dse_encoder", [{}]), backend="analytic",
                                segment_memo_dir=str(memo_dir))
        assert len(results) == 1
        assert not memo_dir.exists()
        assert cache_module.process_segment_memo().root is None

    def test_prune_keeps_current_and_drops_stale_segments(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        memo = SegmentMemo(root=cache.segments_dir)
        XNNExecutor(config=TIMING_CONFIG, segment_memo=memo).run_gemm(256, 256, 256)
        # one simulated segment persists one entry, under its workload key.
        assert len(list(cache.segments_dir.glob("segment-*.json"))) == 1

        stats = cache.prune()
        assert stats.removed == 0 and stats.kept == 1

        for path in cache.segments_dir.glob("segment-*.json"):
            payload = json.loads(path.read_text())
            payload["code_version"] = "0000000000000000"
            path.write_text(json.dumps(payload))
        stats = cache.prune()
        assert stats.removed == 1 and stats.kept == 0

    def test_clear_removes_segment_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        memo = SegmentMemo(root=cache.segments_dir)
        XNNExecutor(config=TIMING_CONFIG, segment_memo=memo).run_gemm(256, 256, 256)
        assert cache.clear() == 1
        assert not list(cache.segments_dir.glob("segment-*.json"))


class TestCrossHostSurface:
    """The ``take_new`` / ``keys`` / ``absorb`` trio behind spool memo sync."""

    def _entry(self, key="workload-" + "a" * 64, latency=1.5):
        from repro.runner.cache import code_version
        return {"key": key, "code_version": code_version(),
                "result": {"latency_s": latency, "ddr_bytes": 1,
                           "lpddr_bytes": 2, "uops": 3}}

    def test_take_new_returns_fresh_entries_once(self):
        memo = SegmentMemo()
        executor = XNNExecutor(config=TIMING_CONFIG, segment_memo=memo)
        executor.run_gemm(256, 256, 256)
        entries = memo.take_new()
        assert len(entries) == 1  # one workload key per segment
        from repro.runner.cache import code_version
        for entry in entries:
            assert entry["code_version"] == code_version()
            assert set(entry["result"]) == {"latency_s", "ddr_bytes",
                                            "lpddr_bytes", "uops"}
        assert memo.take_new() == []  # drained
        # A warm run creates nothing new to ship.
        executor.run_gemm(256, 256, 256)
        assert memo.take_new() == []

    def test_absorb_accepts_current_version_and_serves_hits(self):
        memo = SegmentMemo()
        entry = self._entry()
        assert memo.absorb([entry]) == 1
        assert memo.keys() == [entry["key"]]
        assert memo.load(entry["key"]) == entry["result"]
        assert memo.hits == 1

    def test_absorbed_entries_do_not_ship_again(self):
        # No ping-pong: what came from a peer is not in take_new().
        memo = SegmentMemo()
        assert memo.absorb([self._entry()]) == 1
        assert memo.take_new() == []

    def test_absorb_does_not_overwrite_local_entries(self):
        memo = SegmentMemo()
        entry = self._entry()
        memo.store(entry["key"], {"latency_s": 9.0})
        memo.take_new()
        # A valid entry for a key we already hold is accepted (validated)
        # but must not replace the local result.
        assert memo.absorb([self._entry(latency=1.0)]) == 1
        assert memo.load(entry["key"]) == {"latency_s": 9.0}

    def test_absorb_rejects_malformed_and_stale_entries(self):
        memo = SegmentMemo()
        stale = {**self._entry(), "code_version": "0" * 16}
        rejects = [None, 42, {}, {"key": 7, "code_version": "x",
                                  "result": {}},
                   {"key": "k", "code_version": "x"},
                   {"key": "k", "code_version": "x", "result": "not-a-dict"},
                   stale]
        assert memo.absorb(rejects) == 0
        assert memo.keys() == []

    def test_absorb_rejects_entries_with_partial_results(self):
        from repro.runner.cache import code_version
        memo = SegmentMemo()
        partial = {"key": "workload-abc", "code_version": code_version(),
                   "result": {}}
        assert memo.absorb([partial]) == 0
        assert memo.keys() == []

    def test_clear_drops_pending_fresh_entries(self):
        memo = SegmentMemo()
        executor = XNNExecutor(config=TIMING_CONFIG, segment_memo=memo)
        executor.run_gemm(256, 256, 256)
        memo.clear()
        assert memo.take_new() == []
