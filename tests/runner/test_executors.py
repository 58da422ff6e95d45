"""Unit tests for the executor layer and the spool protocol.

The cross-executor byte-identity contract lives in
``tests/differential/test_executor_contract.py``; this file covers the
mechanics: the chunk job wire form, executor construction/validation,
spool claim semantics (atomic-rename exclusivity), heartbeats, orphan
requeue, and the in-process worker loop.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.runner import REGISTRY
from repro.runner.cache import code_version
from repro.runner.executors import (ProcessPoolExecutor, SerialExecutor, Spool,
                                    WorkQueueExecutor, format_job_id)
from repro.runner.scenarios import Scenario
from repro.runner.worker import run_worker


def _chunk(scenario):
    """A scenario as the chunk of one it travels as."""
    return scenario.kind, [dict(scenario.params)]


def _job_payload(job_id, scenario, backend="engine", segment_memo_dir=None):
    kind, params = _chunk(scenario)
    return {
        "job": job_id,
        "chunk": {"kind": kind, "params": params},
        "backend": backend,
        "segment_memo_dir": segment_memo_dir,
        "code_version": code_version(),
    }


CHEAP = Scenario(name="unit/chain", kind="engine_chain",
                 params={"n_msgs": 5, "stages": 1})


class TestExecutorConstruction:
    def test_pool_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(0)

    def test_workqueue_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueueExecutor(tmp_path, local_workers=-1)
        with pytest.raises(ValueError):
            WorkQueueExecutor(tmp_path, poll_s=0.0)
        with pytest.raises(ValueError):
            WorkQueueExecutor(tmp_path, orphan_timeout_s=0.0)

    def test_executors_are_context_managers(self, tmp_path):
        with SerialExecutor() as ex:
            assert ex.submit_chunks([], lambda c: None) == []
        with WorkQueueExecutor(tmp_path / "spool") as ex:
            assert ex.submit_chunks([], lambda c: None) == []

    def test_configure_absolutizes_memo_dir_for_workqueue(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        executor = WorkQueueExecutor(tmp_path / "spool")
        executor.configure("engine", "rel-cache/segments")
        assert os.path.isabs(executor.segment_memo_dir)
        executor.configure("engine", None)
        assert executor.segment_memo_dir is None


class TestSpoolClaims:
    def test_claim_moves_job_and_preserves_payload(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        payload = _job_payload("j.00000", CHEAP)
        spool.enqueue("j.00000", payload)
        claimed = spool.claim("w1")
        assert claimed is not None and claimed.job_id == "j.00000"
        assert not list(spool.pending_dir.glob("*.json"))
        assert json.loads(claimed.path.read_text()) == payload

    def test_claim_is_exclusive(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("j.00000", _job_payload("j.00000", CHEAP))
        first = spool.claim("w1")
        second = spool.claim("w2")
        assert first is not None
        assert second is None

    def test_claims_come_in_job_order(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        for index in range(3):
            job_id = f"j.{index:05d}"
            spool.enqueue(job_id, _job_payload(job_id, CHEAP))
        claimed = [spool.claim("w1").job_id for _ in range(3)]
        assert claimed == ["j.00000", "j.00001", "j.00002"]
        assert spool.claim("w1") is None

    def test_worker_ids_are_sanitized_in_filenames(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("j.00000", _job_payload("j.00000", CHEAP))
        claimed = spool.claim("host/with:odd chars")
        assert claimed is not None
        assert "/" not in claimed.path.name[len("j.00000"):]
        spool.beat("host/with:odd chars")
        assert spool.live_workers(within_s=60.0)

    def test_job_ids_sort_lexicographically_past_100k(self):
        # Regression: f"{batch}.{index:05d}" overflowed its zero-padding at
        # 100k jobs, so lexicographic claim order diverged from submission
        # order exactly at the roadmap's DSE scale ("b.100000" < "b.99999"
        # as strings).
        indices = [0, 9, 99998, 99999, 100000, 100001, 10**6, 10**7]
        ids = [format_job_id("b", index) for index in indices]
        assert ids == sorted(ids)

    def test_claim_cache_tolerates_contention_and_late_enqueues(self,
                                                                tmp_path):
        # Two worker processes (two Spool instances) interleave claims over
        # one backlog: the listing cache must skip entries another worker
        # claimed first, never hand out a job twice, and still see jobs
        # enqueued after its snapshot.
        mine = Spool(tmp_path / "spool").ensure()
        other = Spool(tmp_path / "spool")
        for index in range(4):
            job_id = format_job_id("b", index)
            mine.enqueue(job_id, _job_payload(job_id, CHEAP))
        assert mine.claim("w1").job_id == "b.00000000"
        # The rival drains two jobs out from under `mine`'s cached listing.
        assert other.claim("w2").job_id == "b.00000001"
        assert other.claim("w2").job_id == "b.00000002"
        assert mine.claim("w1").job_id == "b.00000003"  # stale entries skipped
        assert mine.claim("w1") is None
        late = format_job_id("b", 4)
        mine.enqueue(late, _job_payload(late, CHEAP))
        assert mine.claim("w1").job_id == late  # fresh listing finds it
        claimed = {path.stem for path in mine.claimed_dir.glob("*.json")}
        assert len(claimed) == 5  # every job claimed exactly once


class TestSpoolOrphanRequeue:
    def test_stale_claim_is_requeued_with_identical_payload(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        payload = _job_payload("j.00000", CHEAP)
        spool.enqueue("j.00000", payload)
        claimed = spool.claim("dead-worker")
        # The dead worker never heartbeat; its claim file's age is the
        # liveness signal.  Backdate it far beyond any timeout.
        os.utime(claimed.path, (1.0, 1.0))
        requeued = spool.requeue_orphans(orphan_timeout_s=30.0)
        assert requeued == ["j.00000"]
        restored = spool.pending_dir / "j.00000.json"
        assert json.loads(restored.read_text()) == payload

    def test_fresh_heartbeat_protects_the_claim(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("j.00000", _job_payload("j.00000", CHEAP))
        claimed = spool.claim("alive-worker")
        os.utime(claimed.path, (1.0, 1.0))  # old claim ...
        spool.beat("alive-worker")  # ... but a live heartbeat
        assert spool.requeue_orphans(orphan_timeout_s=30.0) == []
        assert claimed.path.exists()

    def test_stale_pending_job_is_not_instantly_orphaned(self, tmp_path):
        # Regression: os.replace preserves the pending file's mtime, so a
        # job that waited in pending/ longer than the orphan timeout used
        # to look abandoned the moment it was claimed (before the worker's
        # first heartbeat) -- and two workers would then execute it.  The
        # claim must be touched at claim time.
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("j.00000", _job_payload("j.00000", CHEAP))
        pending = spool.pending_dir / "j.00000.json"
        os.utime(pending, (1.0, 1.0))  # waited in pending since forever
        claimed = spool.claim("slow-to-beat-worker")
        assert claimed.path.stat().st_mtime > 1.0
        assert spool.requeue_orphans(orphan_timeout_s=30.0) == []
        assert claimed.path.exists()

    def test_requeue_defaults_to_the_fileserver_clock(self, tmp_path,
                                                      monkeypatch):
        # Regression: with `now` omitted, requeue_orphans used the
        # submitter's local time.time() -- exactly the NFS clock-skew bug
        # the fs_now docstring warns about.  Simulate a submitter whose
        # local clock runs far ahead of the fileserver: filesystem mtimes
        # (heartbeats, claims) are untouched by the monkeypatch, so a
        # correct default must still see them as fresh.
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("j.00000", _job_payload("j.00000", CHEAP))
        claimed = spool.claim("alive-worker")
        spool.beat("alive-worker")
        skewed = time.time() + 1e8
        monkeypatch.setattr("time.time", lambda: skewed)
        assert spool.requeue_orphans(orphan_timeout_s=30.0) == []
        assert claimed.path.exists()

    def test_job_id_filter_shields_co_tenant_submitters(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        for job_id in ("mine.00000", "theirs.00000"):
            spool.enqueue(job_id, _job_payload(job_id, CHEAP))
        for _ in range(2):
            os.utime(spool.claim("dead-worker").path, (1.0, 1.0))
        requeued = spool.requeue_orphans(orphan_timeout_s=30.0,
                                         job_ids=["mine.00000"])
        assert requeued == ["mine.00000"]
        assert (spool.pending_dir / "mine.00000.json").exists()
        assert not (spool.pending_dir / "theirs.00000.json").exists()


class TestSpoolLivenessAndMaintenance:
    def test_live_workers_defaults_to_the_fileserver_clock(self, tmp_path,
                                                           monkeypatch):
        # Regression: with `now` omitted, live_workers judged heartbeat
        # mtimes against the submitter-local time.time() -- the same NFS
        # clock-skew family as the requeue_orphans bug.  A skewed
        # submitter's _check_for_dead_pool would then falsely abort a sweep
        # (live external workers look dead) or hang forever (dead ones look
        # alive).  Heartbeat mtimes are untouched by the monkeypatch, so a
        # correct default must still see the worker as live.
        spool = Spool(tmp_path / "spool").ensure()
        spool.beat("external-worker")
        skewed = time.time() + 1e8
        monkeypatch.setattr("time.time", lambda: skewed)
        assert spool.live_workers(within_s=30.0) == ["external-worker"]

    def test_beat_with_info_publishes_live_counters(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.beat("w1", info={"pid": 7, "host": "h", "processed": 0,
                               "started": 1000.0})
        spool.beat("w1", info={"pid": 7, "host": "h", "processed": 42,
                               "started": 1000.0})
        (record,) = spool.status()["workers"]
        assert record["worker"] == "w1"
        assert record["processed"] == 42
        assert record["pid"] == 7

    def test_status_reports_queue_depth_and_claim_ages(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        for index in range(3):
            job_id = format_job_id("b", index)
            spool.enqueue(job_id, _job_payload(job_id, CHEAP))
        claimed = spool.claim("w1")
        os.utime(claimed.path, (1.0, 1.0))
        status = spool.status()
        assert status["pending"] == 2
        assert status["results"] == 0
        (claim,) = status["claimed"]
        assert claim["job"] == "b.00000000" and claim["worker"] == "w1"
        assert claim["age_s"] > 1e6  # backdated to the epoch's first second

    def test_fs_now_leaves_no_clock_scratch_behind(self, tmp_path):
        # Regression: every fs_now call leaked one .clock file per token
        # forever (and two callers sharing a token could race each other's
        # scratch into the local-clock fallback).
        spool = Spool(tmp_path / "spool").ensure()
        for _ in range(3):
            spool.fs_now("submitter")
        assert not list(spool.workers_dir.glob("*.clock"))

    def test_drained_spool_gcs_to_empty(self, tmp_path):
        # Leak inventory after a batch whose submitter vanished and whose
        # workers died: uncollected results, a dead worker's claim +
        # heartbeat + log, a crashed caller's fs_now scratch, and a stale
        # published memo entry.  One GC pass must sweep all of it.
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("b.00000000", _job_payload("b.00000000", CHEAP))
        claimed = spool.claim("dead-worker")
        spool.beat("dead-worker")
        spool.write_result("b.00000001", {"job": "b.00000001"})
        (spool.workers_dir / "crashed-caller.clock").touch()
        (spool.workers_dir / "dead-worker.log").write_text("log tail\n")
        spool.memo_sync([{"key": "deadbeef", "code_version": "x",
                          "result": {"latency_s": 1.0}}])
        for path in spool.root.rglob("*.*"):
            os.utime(path, (1.0, 1.0))  # everything aged far past max_age
        report = spool.gc(max_age_s=30.0)
        assert report["removed"] == {"results": 1, "claims": 1,
                                     "heartbeats": 1, "clocks": 1, "logs": 1,
                                     "memo": 1}
        for directory in (spool.claimed_dir, spool.results_dir,
                          spool.workers_dir, spool.memo_dir):
            assert not list(directory.iterdir())
        assert not claimed.path.exists()

    def test_gc_spares_live_workers_and_pending_jobs(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        # A live worker's long-running claim is work, not garbage.
        spool.enqueue("b.00000000", _job_payload("b.00000000", CHEAP))
        claimed = spool.claim("busy-worker")
        os.utime(claimed.path, (1.0, 1.0))
        spool.beat("busy-worker")
        # A pending job is a promise to some submitter, however old.
        spool.enqueue("b.00000001", _job_payload("b.00000001", CHEAP))
        os.utime(spool.pending_dir / "b.00000001.json", (1.0, 1.0))
        report = spool.gc(max_age_s=30.0)
        assert sum(report["removed"].values()) == 0
        assert (spool.pending_dir / "b.00000001.json").exists()
        assert claimed.path.exists()
        assert spool.live_workers(within_s=30.0) == ["busy-worker"]

    def test_gc_rejects_a_negative_age(self, tmp_path):
        with pytest.raises(ValueError):
            Spool(tmp_path / "spool").ensure().gc(max_age_s=-1.0)


class TestWorkerLoop:
    """The worker loop run in-process (the subprocess path is covered by the
    differential suite and the CLI tests)."""

    def test_processes_a_job_and_publishes_the_result(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("j.00000", _job_payload("j.00000", CHEAP))
        processed = run_worker(spool.root, poll_s=0.01, max_jobs=1,
                               worker_id="unit-worker")
        assert processed == 1
        result = json.loads(spool.result_path("j.00000").read_text())
        assert result["kind"] == "engine_chain"
        assert result["code_version"] == code_version()
        assert result["results"] == [REGISTRY.run(CHEAP)]
        # The claim is gone and the heartbeat file was cleaned up on exit.
        assert not list(spool.claimed_dir.glob("*.json"))
        assert not list(spool.workers_dir.glob("*.json"))

    def test_idle_exit_returns_zero_jobs(self, tmp_path):
        processed = run_worker(tmp_path / "spool", poll_s=0.01,
                               idle_exit_s=0.05, worker_id="idle-worker")
        assert processed == 0

    def test_corrupt_job_file_yields_recoverable_error_result(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        (spool.pending_dir / "j.00000.json").write_text("{definitely not json")
        processed = run_worker(spool.root, poll_s=0.01, max_jobs=1,
                               worker_id="unit-worker")
        assert processed == 1
        result = json.loads(spool.result_path("j.00000").read_text())
        assert result["error"]["type"] == "corrupt-job"

    def test_version_mismatch_yields_fatal_error_result(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        payload = _job_payload("j.00000", CHEAP)
        payload["code_version"] = "somebody-elses-tree"
        spool.enqueue("j.00000", payload)
        run_worker(spool.root, poll_s=0.01, max_jobs=1, worker_id="unit-worker")
        result = json.loads(spool.result_path("j.00000").read_text())
        assert result["error"]["type"] == "version-mismatch"

    def test_version_is_checked_before_the_job_shape(self, tmp_path):
        # A job from another source tree may carry a shape this tree cannot
        # read.  Reporting it as corrupt-job would make the submitter
        # rewrite it max_requeues times; it must be a version mismatch.
        spool = Spool(tmp_path / "spool").ensure()
        payload = _job_payload("j.00000", CHEAP)
        payload["code_version"] = "somebody-elses-tree"
        payload["chunk"] = "garbage"
        spool.enqueue("j.00000", payload)
        run_worker(spool.root, poll_s=0.01, max_jobs=1, worker_id="unit-worker")
        result = json.loads(spool.result_path("j.00000").read_text())
        assert result["error"]["type"] == "version-mismatch"

    def test_unreadable_chunk_of_this_version_is_a_corrupt_job(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        payload = _job_payload("j.00000", CHEAP)
        payload["chunk"] = "garbage"
        spool.enqueue("j.00000", payload)
        run_worker(spool.root, poll_s=0.01, max_jobs=1, worker_id="unit-worker")
        result = json.loads(spool.result_path("j.00000").read_text())
        assert result["error"]["type"] == "corrupt-job"

    def test_vanished_claim_publishes_nothing(self, tmp_path):
        # A stalled worker whose claim was orphan-requeued away must not
        # publish anything (it would clobber the new owner's result) and
        # must not count the job as processed.
        from repro.runner.worker import _execute
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("j.00000", _job_payload("j.00000", CHEAP))
        claimed = spool.claim("stalled-worker")
        claimed.path.unlink()  # the orphan requeue, as seen by the worker
        assert _execute(claimed, "stalled-worker") is None
        assert not list(spool.results_dir.glob("*.json"))

    def test_fs_now_tracks_the_spool_filesystem_clock(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        before = time.time()
        now = spool.fs_now("unit-submitter")
        assert abs(now - before) < 60.0  # same clock on a local tmpdir
        # The scratch file must stay invisible to the protocol's globs.
        assert not list(spool.workers_dir.glob("*.json"))

    def test_raising_scenario_yields_exception_result(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        bad = Scenario(name="unit/bad", kind="no-such-kind", params={})
        spool.enqueue("j.00000", _job_payload("j.00000", bad))
        run_worker(spool.root, poll_s=0.01, max_jobs=1, worker_id="unit-worker")
        result = json.loads(spool.result_path("j.00000").read_text())
        assert result["error"]["type"] == "exception"
        assert "no-such-kind" in result["error"]["message"]


class TestWorkQueueExecutorRecovery:
    """Submitter-side failure handling, with the worker driven in-process so
    every interleaving is deterministic."""

    def _submit_async(self, executor, scenarios):
        box = {}

        def target():
            try:
                box["results"] = executor.submit_chunks(
                    [_chunk(scenario) for scenario in scenarios], None)
            except BaseException as error:  # noqa: BLE001 - reported by test
                box["error"] = error

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        return thread, box

    def _wait_for(self, predicate, timeout_s=30.0, message="condition"):
        deadline = time.monotonic() + timeout_s
        while not predicate():
            if time.monotonic() > deadline:
                raise AssertionError(f"timed out waiting for {message}")
            time.sleep(0.01)

    def test_worker_exception_propagates_as_runtime_error(self, tmp_path):
        executor = WorkQueueExecutor(tmp_path / "spool", poll_s=0.01,
                                     timeout_s=60.0)
        executor.configure("engine", None)
        bad = Scenario(name="unit/bad", kind="no-such-kind", params={})
        # The batch's second job is never claimed: it sits in pending/ until
        # the failure withdraws it.
        thread, box = self._submit_async(executor, [bad, CHEAP])
        self._wait_for(lambda: list(executor.spool.pending_dir.glob("*.json")),
                       message="job publication")
        run_worker(executor.spool.root, poll_s=0.01, max_jobs=1,
                   worker_id="unit-worker")
        thread.join(timeout=30.0)
        assert isinstance(box.get("error"), RuntimeError)
        assert "no-such-kind" in str(box["error"])
        # Failure cleanup: no pending or result files left for the batch.
        assert not list(executor.spool.pending_dir.glob("*.json"))
        assert not list(executor.spool.results_dir.glob("*.json"))

    def test_version_mismatched_worker_is_fatal(self, tmp_path):
        executor = WorkQueueExecutor(tmp_path / "spool", poll_s=0.01,
                                     timeout_s=60.0)
        executor.configure("engine", None)
        thread, box = self._submit_async(executor, [CHEAP, CHEAP])
        self._wait_for(lambda: list(executor.spool.pending_dir.glob("*.json")),
                       message="job publication")
        # Play a worker from another source tree: claim the first job
        # ourselves and publish a result recorded under a different code
        # version.  The second job stays pending until the failure.
        claimed = executor.spool.claim("stale-worker")
        executor.spool.write_result(claimed.job_id, {
            "job": claimed.job_id, "worker": "stale-worker",
            "kind": CHEAP.kind, "results": [{"events": 1}],
            "elapsed_s": 0.0, "code_version": "stale-tree",
        })
        thread.join(timeout=30.0)
        assert isinstance(box.get("error"), RuntimeError)
        assert "different code version" in str(box["error"])
        # Failure cleanup: the unclaimed job of the batch is withdrawn.
        assert not list(executor.spool.pending_dir.glob("*.json"))

    @pytest.mark.parametrize("broken", [
        {"results": [{"events": 1}, {"events": 2}], "elapsed_s": 0.0},
        {"results": {"events": 1}, "elapsed_s": 0.0},
        {"results": [{"events": 1}]},
        {"results": [{"events": 1}], "elapsed_s": "0.5"},
        {"results": [None], "elapsed_s": 0.0},
        {"results": [1], "elapsed_s": 0.0},
        {"results": ["x"], "elapsed_s": 0.0},
    ], ids=["wrong-length", "not-a-list", "no-elapsed", "text-elapsed",
            "null-result", "number-result", "string-result"])
    def test_result_breaking_the_batch_runner_contract_is_fatal(self, tmp_path,
                                                                broken):
        executor = WorkQueueExecutor(tmp_path / "spool", poll_s=0.01,
                                     timeout_s=10.0)
        executor.configure("engine", None)
        thread, box = self._submit_async(executor, [CHEAP, CHEAP])
        self._wait_for(
            lambda: len(list(executor.spool.pending_dir.glob("*.json"))) == 2,
            message="job publication")
        # A broken worker publishes the first result; a slow one still holds
        # the second job when the submitter rejects the batch.
        claimed = executor.spool.claim("broken-worker")
        assert executor.spool.claim("slow-worker") is not None
        executor.spool.finish(claimed, {
            "job": claimed.job_id, "worker": "broken-worker",
            "kind": CHEAP.kind, "code_version": code_version(), **broken,
        })
        thread.join(timeout=30.0)
        error = box.get("error")
        assert isinstance(error, RuntimeError), error
        assert "violated the batch-runner contract" in str(error)
        assert "broken-worker" in str(error)
        assert not list(executor.spool.pending_dir.glob("*.json"))
        assert not list(executor.spool.claimed_dir.glob("*.json"))

    def test_timeout_raises_instead_of_hanging(self, tmp_path):
        executor = WorkQueueExecutor(tmp_path / "spool", poll_s=0.01,
                                     timeout_s=0.2)
        executor.configure("engine", None)
        with pytest.raises(TimeoutError, match="workqueue sweep timed out"):
            executor.submit_chunks([_chunk(CHEAP)], None)
        # Abandoned jobs are withdrawn so no worker picks them up later.
        assert not list(executor.spool.pending_dir.glob("*.json"))

    def test_dead_local_worker_pool_fails_fast(self, tmp_path, monkeypatch):
        executor = WorkQueueExecutor(tmp_path / "spool", local_workers=1,
                                     poll_s=0.01, orphan_timeout_s=0.1,
                                     timeout_s=60.0)
        executor.configure("engine", None)

        class DeadProc:
            returncode = 1

            def poll(self):
                return 1

        monkeypatch.setattr(
            executor, "_spawn_local_workers",
            lambda: executor._procs.append(DeadProc()))
        with pytest.raises(RuntimeError, match="local workqueue worker"):
            executor.submit_chunks([_chunk(CHEAP)], None)


class TestSpoolMemoSync:
    def _entry(self, key, latency=1.0):
        return {"key": key, "code_version": "abc123",
                "result": {"latency_s": latency}}

    def test_push_then_pull_round_trips_entries(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        pushed = [self._entry("workload-" + "a" * 64),
                  self._entry("b" * 64)]
        fetched = spool.memo_sync(pushed)
        assert sorted(e["key"] for e in fetched) == \
            sorted(e["key"] for e in pushed)
        # A second participant pulls them without pushing anything.
        assert sorted(e["key"] for e in spool.memo_sync([])) == \
            sorted(e["key"] for e in pushed)

    def test_known_keys_are_not_returned(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        keys = ["a" * 64, "b" * 64]
        spool.memo_sync([self._entry(key) for key in keys])
        assert spool.memo_sync([], known=keys) == []
        fetched = spool.memo_sync([], known=keys[:1])
        assert [e["key"] for e in fetched] == [keys[1]]

    def test_invalid_entries_and_keys_are_skipped(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        bad = [None, "text", {"no": "key"},
               self._entry("has/slash"), self._entry("dot.dot"),
               self._entry(""), self._entry("x" * 101)]
        assert spool.memo_sync(bad) == []
        assert not list(spool.memo_dir.glob("*"))

    def test_garbage_memo_files_are_skipped(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.memo_sync([self._entry("a" * 64)])
        (spool.memo_dir / ("c" * 64 + ".json")).write_text("{not json")
        fetched = spool.memo_sync([])
        assert [e["key"] for e in fetched] == ["a" * 64]

    def test_republish_overwrites_idempotently(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.memo_sync([self._entry("a" * 64, latency=1.0)])
        spool.memo_sync([self._entry("a" * 64, latency=2.0)])
        (fetched,) = spool.memo_sync([])
        assert fetched["result"]["latency_s"] == 2.0
        assert len(list(spool.memo_dir.glob("*.json"))) == 1
