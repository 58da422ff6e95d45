"""Differential contract: memoized segment results == fresh simulation.

Part of the byte-identical-results contract of the PR 4 throughput overhaul:
serving a segment from the :class:`~repro.runner.cache.SegmentMemo` must be
observationally indistinguishable from running the event loop -- latency,
DDR/LPDDR traffic, and uOP counts all exactly equal, per segment, including
after a JSON round-trip through the on-disk layer.

Extended for the program-level (upstream workload key) memo layer and for
cross-host memo sharing through the spool: warm segments must skip codegen
entirely (zero ``ProgramBuilder`` constructions) and memo entries synced
between work-queue workers must neither change a byte of any result nor let
a stale peer poison a sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.xnn.executor as executor_module
from repro.runner import WorkQueueExecutor, canonical_json, run_sweep
from repro.runner.cache import SegmentMemo, chunk_identity, code_version
from repro.runner.executors import Spool
from repro.runner.scenarios import Scenario
from repro.xnn import CodegenOptions, XNNConfig, XNNExecutor

_TIMING = XNNConfig(carry_data=False)


def _segment_tuples(result):
    return [(s.name, s.latency_s, s.ddr_bytes, s.lpddr_bytes, s.uops)
            for s in result.segments]


def test_memoized_encoder_equals_fresh_per_segment(tmp_path):
    fresh = XNNExecutor(config=_TIMING, segment_memo=None)
    expected = fresh.run_encoder(batch=1, seq_len=64)

    # Cold pass populates the memo (both layers), warm pass is served from
    # the in-memory layer, reload pass from the on-disk layer.
    memo = SegmentMemo(root=tmp_path)
    executor = XNNExecutor(config=_TIMING, segment_memo=memo)
    cold = executor.run_encoder(batch=1, seq_len=64)
    warm = executor.run_encoder(batch=1, seq_len=64)
    assert memo.hits == len(expected.segments)

    reloaded_memo = SegmentMemo(root=tmp_path)
    reloaded = XNNExecutor(config=_TIMING,
                           segment_memo=reloaded_memo).run_encoder(batch=1,
                                                                   seq_len=64)
    assert reloaded_memo.hits == len(expected.segments)

    for result in (cold, warm, reloaded):
        assert _segment_tuples(result) == _segment_tuples(expected)


def test_memoized_ablation_variants_stay_distinct(tmp_path):
    """Table 9-style option ablation through one shared memo: every variant
    must keep its own numbers (no cross-variant contamination)."""
    variants = {
        "baseline": CodegenOptions.baseline(),
        "all": CodegenOptions.all_optimizations(),
    }
    fresh = {
        name: _segment_tuples(
            XNNExecutor(config=_TIMING, options=options,
                        segment_memo=None).run_encoder(batch=1, seq_len=64))
        for name, options in variants.items()
    }
    assert fresh["baseline"] != fresh["all"]  # the ablation is real

    memo = SegmentMemo(root=tmp_path)
    for _ in range(2):  # second round is all memo hits
        for name, options in variants.items():
            memoized = XNNExecutor(config=_TIMING, options=options,
                                   segment_memo=memo).run_encoder(batch=1,
                                                                  seq_len=64)
            assert _segment_tuples(memoized) == fresh[name]


# --------------------------------------------- upstream (workload-level) key


def _run_suite(executor):
    """One cheap workload per encoder-shaped kind, as segment tuples."""
    from repro.workloads import ncf_model
    from repro.workloads.vit import VIT_BASE

    gemm, _ = executor.run_gemm(256, 256, 256)
    return {
        "gemm": [(gemm.name, gemm.latency_s, gemm.ddr_bytes,
                  gemm.lpddr_bytes, gemm.uops)],
        "bert": _segment_tuples(executor.run_encoder(batch=1, seq_len=64)),
        "vit": _segment_tuples(
            executor.run_encoder(batch=1, seq_len=64, config=VIT_BASE)),
        "ncf": _segment_tuples(
            executor.run_feedforward_model(ncf_model(batch=256))),
    }


def test_upstream_warm_path_skips_codegen_and_equals_fresh(tmp_path,
                                                           monkeypatch):
    """Across every encoder-shaped kind: a warm repeated segment is served
    from the upstream workload key without constructing a single
    ``ProgramBuilder`` -- and the served results equal fresh simulation
    exactly (the satellite regression for the load-before-memo-check bug)."""
    fresh = _run_suite(XNNExecutor(config=_TIMING, segment_memo=None))

    memo = SegmentMemo(root=tmp_path)
    cold = _run_suite(XNNExecutor(config=_TIMING, segment_memo=memo))
    total_segments = sum(len(tuples) for tuples in fresh.values())
    assert memo.hits == 0 and memo.misses == total_segments

    constructions = []
    real_builder = executor_module.ProgramBuilder

    class CountingBuilder(real_builder):
        def __init__(self, *args, **kwargs):
            constructions.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor_module, "ProgramBuilder", CountingBuilder)
    warm = _run_suite(XNNExecutor(config=_TIMING, segment_memo=memo))
    assert constructions == []  # zero codegen on the whole warm suite
    assert memo.hits == total_segments

    assert cold == fresh
    assert warm == fresh


# ------------------------------------------------- cross-host sharing (spool)

#: a sweep with repeated segments: two scenario pairs sharing workloads, so
#: memo sync between workers has something to share.
_MEMO_SWEEP = [
    Scenario(name="memo/x1", kind="xnn_encoder",
             params={"batch": 1, "seq_len": 64}),
    Scenario(name="memo/x2", kind="xnn_encoder",
             params={"batch": 1, "seq_len": 64}),
    Scenario(name="memo/g1", kind="xnn_gemm",
             params={"m": 256, "k": 256, "n": 256}),
    Scenario(name="memo/g2", kind="xnn_gemm",
             params={"m": 256, "k": 256, "n": 256}),
]


def _strip(outcomes):
    return [canonical_json({"scenario": o.scenario, "kind": o.kind,
                            "result": o.result}) for o in outcomes]


def test_memo_synced_workqueue_sweep_equals_serial_fs(tmp_path):
    serial = run_sweep(_MEMO_SWEEP, backend="engine")
    with WorkQueueExecutor(tmp_path / "spool", local_workers=2,
                           poll_s=0.02, timeout_s=600.0) as wq:
        queued = run_sweep(_MEMO_SWEEP, backend="engine", executor=wq)
    assert _strip(queued) == _strip(serial)
    # The workers' fresh entries were published into the spool memo layer.
    assert list((tmp_path / "spool" / "memo").glob("*.json"))


def test_memo_synced_workqueue_sweep_equals_serial_tcp(spoold):
    serial = run_sweep(_MEMO_SWEEP, backend="engine")
    with WorkQueueExecutor(spoold.url, local_workers=2,
                           poll_s=0.02, timeout_s=600.0) as wq:
        queued = run_sweep(_MEMO_SWEEP, backend="engine", executor=wq)
    assert _strip(queued) == _strip(serial)
    assert list(spoold.spool.memo_dir.glob("*.json"))


def _run_worker_subprocess(target, worker_id, max_jobs):
    env = os.environ.copy()
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_parent + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    subprocess.run(
        [sys.executable, "-m", "repro.runner", "worker", "--spool",
         str(target), "--poll", "0.02", "--idle-exit", "1.0",
         "--max-jobs", str(max_jobs), "--worker-id", worker_id],
        check=True, timeout=600, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def _enqueue(spool, job_id, scenario):
    head = {"code_version": code_version(), "job": job_id,
            "segment_memo_dir": None}
    spool.enqueue(job_id, json.dumps(head) + "\n" + chunk_identity(
        scenario.kind, [dict(scenario.params)], "engine"))


def _result_lines(text):
    """A worker's result text decoded line by line: its first line, then
    the chunk's cache entry."""
    return [json.loads(line) for line in text.split("\n")]


@pytest.mark.parametrize("transport", ["fs", "tcp"])
def test_second_hosts_shared_segment_is_served_from_synced_memo(
        transport, tmp_path, request):
    """The cross-host headline: host B's second job, on a segment host A
    already simulated, is served from memo-sync'd entries without simulating
    -- observable as a result with no fresh ``segment_memo`` payload -- and
    is byte-identical to host A's simulated result."""
    if transport == "fs":
        spool = Spool(tmp_path / "spool").ensure()
        target = spool.root
    else:
        server = request.getfixturevalue("spoold")
        spool = server.spool
        target = server.url

    shared = _MEMO_SWEEP[0]  # the workload both hosts meet
    other = _MEMO_SWEEP[2]   # host B's warm-up job (different workload)

    # Host A simulates the shared workload; its fresh entries ride the
    # result file and are published into the spool memo layer.
    _enqueue(spool, "000001", shared)
    _run_worker_subprocess(target, "host-a", max_jobs=1)
    result_a, entry_a = _result_lines(spool.take_results("000001")["000001"])
    assert result_a["segment_memo"], "host A must piggyback fresh entries"
    assert list(spool.memo_dir.glob("*.json"))

    # Host B: the first job pulls host A's entries after finishing; the
    # second job (the shared workload) is then pure upstream-key hits.
    _enqueue(spool, "000002", other)
    _enqueue(spool, "000003", shared)
    _run_worker_subprocess(target, "host-b", max_jobs=2)
    results_b = spool.take_results("0000")
    result_other, _ = _result_lines(results_b["000002"])
    result_shared, entry_shared = _result_lines(results_b["000003"])
    assert result_other["segment_memo"], "host B's own workload is fresh"
    assert "segment_memo" not in result_shared, \
        "host B's shared-segment job must be served from synced memo"
    assert canonical_json(entry_shared["results"]) == \
        canonical_json(entry_a["results"])


def test_code_version_mismatched_synced_entries_are_rejected(tmp_path):
    """A stale peer cannot poison a sweep: its synced entries are published
    by the spool (which stores them opaquely) but rejected at absorb time,
    and the local run still simulates to the fresh numbers."""
    spool = Spool(tmp_path / "spool").ensure()

    donor = SegmentMemo(root=tmp_path / "donor")
    expected = XNNExecutor(config=_TIMING,
                           segment_memo=donor).run_encoder(batch=1, seq_len=64)
    entries = donor.take_new()
    assert entries
    poisoned = [{**entry, "code_version": "0" * 16,
                 "result": {**entry["result"], "latency_s": 0.0}}
                for entry in entries]
    assert len(spool.memo_sync(poisoned)) == len(poisoned)

    victim = SegmentMemo(root=tmp_path / "victim")
    fetched = spool.memo_sync([], known=victim.keys())
    assert len(fetched) == len(poisoned)  # the spool serves them opaquely
    assert victim.absorb(fetched) == 0    # ...and absorb rejects every one
    assert victim.keys() == []

    result = XNNExecutor(config=_TIMING,
                         segment_memo=victim).run_encoder(batch=1, seq_len=64)
    assert victim.hits == 0  # nothing served from the poisoned entries
    assert _segment_tuples(result) == _segment_tuples(expected)
