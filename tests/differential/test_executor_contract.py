"""Differential pin: serial == pool == workqueue(fs) == workqueue(tcp).

The executor layer's entire safety argument is that execution *policy* is
invisible in the results: scenarios are JSON-able data, runners are
deterministic, so a sweep computed in-process, on a local pool, or by
detached work-queue workers on another host -- over a shared spool
directory or a TCP job server -- must produce byte-identical
``SweepOutcome`` lists.  This suite pins that differentially over a mixed
engine/analytic scenario set, cached and uncached, and exercises the spool
protocol's recovery paths (orphaned claims, corrupted job files, killed
workers, server restarts) end to end against a live submitter on both
transports.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.runner import (REGISTRY, ProcessPoolExecutor, ResultCache,
                          WorkQueueExecutor, canonical_json, run_sweep,
                          run_worker)
from repro.runner.netqueue import NetSpool, SpoolServer


@pytest.fixture()
def spoold(tmp_path):
    """A live ``spoold`` server over a tmp spool directory."""
    server = SpoolServer(tmp_path / "served-spool", host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5.0)

#: cheap engine-backend scenarios (synthetic chains + closed-form kinds).
ENGINE_SET = [
    "smoke/engine-chain",
    "table6b/charm-1024",
    "fig18/charm-b1",
    "table6a/aie-32x16x32",
]

#: the acceptance sweep (fig18 + table11), run on the analytic backend where
#: it costs milliseconds; the CI ``executor-smoke`` job runs the same sweep
#: on the engine backend with external worker processes.
ANALYTIC_SET = sorted(
    s.name for s in REGISTRY.select(tags=["fig18", "table11"])
)


def _strip(outcomes):
    """The byte-comparable projection of a ``SweepOutcome`` list (elapsed
    wall time is the one legitimately machine-dependent field)."""
    return [
        canonical_json({
            "scenario": o.scenario,
            "kind": o.kind,
            "backend": o.backend,
            "cached": o.cached,
            "result": o.result,
        })
        for o in outcomes
    ]


class TestExecutorEquivalence:
    def test_serial_pool_workqueue_identical_uncached(self, tmp_path):
        assert len(ANALYTIC_SET) == 16, "fig18+table11 catalogue changed"
        serial_engine = run_sweep(ENGINE_SET, backend="engine")
        serial_analytic = run_sweep(ANALYTIC_SET, backend="analytic")
        with ProcessPoolExecutor(2) as pool:
            pool_engine = run_sweep(ENGINE_SET, backend="engine",
                                    executor=pool)
            pool_analytic = run_sweep(ANALYTIC_SET, backend="analytic",
                                      executor=pool)
        # One executor instance serves both sweeps (and both backends) --
        # exactly how an exploration reuses its executor.
        with WorkQueueExecutor(tmp_path / "spool", local_workers=2,
                               poll_s=0.02, timeout_s=600.0) as wq:
            wq_engine = run_sweep(ENGINE_SET, backend="engine", executor=wq)
            wq_analytic = run_sweep(ANALYTIC_SET, backend="analytic",
                                    executor=wq)
        assert _strip(serial_engine) == _strip(pool_engine)
        assert _strip(serial_engine) == _strip(wq_engine)
        assert _strip(serial_analytic) == _strip(pool_analytic)
        assert _strip(serial_analytic) == _strip(wq_analytic)

    def test_engine_sweep_publishes_one_chunk_of_one_per_scenario(
            self, tmp_path, monkeypatch):
        # Engine kinds have no batch runner, so a per-scenario job is a
        # chunk of one: N scenarios publish N jobs, in input order.
        serial = run_sweep(ENGINE_SET, backend="engine")
        published = []
        with WorkQueueExecutor(tmp_path / "spool", local_workers=1,
                               poll_s=0.02, timeout_s=600.0) as wq:
            real_enqueue_many = wq.spool.enqueue_many

            def recording_enqueue_many(jobs):
                published.extend(jobs)
                return real_enqueue_many(jobs)

            monkeypatch.setattr(wq.spool, "enqueue_many",
                                recording_enqueue_many)
            queued = run_sweep(ENGINE_SET, backend="engine", executor=wq)
        assert _strip(queued) == _strip(serial)
        job_ids = [job_id for job_id, _ in published]
        assert len(job_ids) == len(ENGINE_SET) and job_ids == sorted(job_ids)
        expected = [REGISTRY.get(name) for name in ENGINE_SET]
        assert [payload["chunk"] for _, payload in published] == [
            {"kind": s.kind, "params": [dict(s.params)]} for s in expected]

    def test_workqueue_populated_cache_serves_serial_identically(self,
                                                                 tmp_path):
        cache = ResultCache(tmp_path / "cache")
        names = ENGINE_SET[:2]
        with WorkQueueExecutor(tmp_path / "spool", local_workers=1,
                               poll_s=0.02, timeout_s=600.0) as wq:
            cold = run_sweep(names, backend="engine", cache=cache,
                             executor=wq)
        assert all(not o.cached for o in cold)
        warm = run_sweep(names, backend="engine", cache=cache)
        assert all(o.cached for o in warm)
        assert [canonical_json(a.result) for a in cold] == \
            [canonical_json(b.result) for b in warm]

    def test_serial_populated_cache_serves_workqueue_identically(self,
                                                                 tmp_path):
        cache = ResultCache(tmp_path / "cache")
        names = ENGINE_SET[:2]
        cold = run_sweep(names, backend="engine", cache=cache)
        # Every scenario hits the cache, so the workqueue executor must not
        # spawn a single job (a hit never reaches the executor at all).
        with WorkQueueExecutor(tmp_path / "spool", local_workers=0,
                               poll_s=0.02, timeout_s=5.0) as wq:
            warm = run_sweep(names, backend="engine", cache=cache,
                             executor=wq)
        assert all(o.cached for o in warm)
        assert [canonical_json(a.result) for a in cold] == \
            [canonical_json(b.result) for b in warm]
        assert not list(wq.spool.pending_dir.glob("*.json"))


class TestNetworkTransportEquivalence:
    """The tentpole pin: a sweep whose submitter and workers are connected
    only by a ``tcp://`` URL (no shared directory anywhere in the executor's
    view) is byte-identical to ``SerialExecutor``."""

    def test_tcp_workqueue_matches_serial_byte_for_byte(self, spoold):
        serial_engine = run_sweep(ENGINE_SET, backend="engine")
        serial_analytic = run_sweep(ANALYTIC_SET, backend="analytic")
        with WorkQueueExecutor(spoold.url, local_workers=2,
                               poll_s=0.02, timeout_s=600.0) as wq:
            tcp_engine = run_sweep(ENGINE_SET, backend="engine", executor=wq)
            tcp_analytic = run_sweep(ANALYTIC_SET, backend="analytic",
                                     executor=wq)
        assert _strip(serial_engine) == _strip(tcp_engine)
        assert _strip(serial_analytic) == _strip(tcp_analytic)
        # Nothing of the batch survives on the served spool.
        assert not list(spoold.spool.pending_dir.glob("*.json"))
        assert not list(spoold.spool.results_dir.glob("*.json"))


class TestSpoolRecovery:
    """Failure injection against a live submitter, with the worker driven
    in-process so every interleaving is deterministic."""

    def _submit_async(self, executor, names, backend="engine"):
        scenarios = [REGISTRY.get(name) for name in names]
        executor.configure(backend, None)
        box = {}

        def target():
            try:
                box["results"] = executor.submit_chunks(
                    [(s.kind, [dict(s.params)]) for s in scenarios], None)
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

    def test_orphaned_claim_is_requeued_and_completes(self, tmp_path):
        name = "table6b/charm-1024"
        serial = run_sweep([name])
        executor = WorkQueueExecutor(tmp_path / "spool", local_workers=0,
                                     poll_s=0.01, orphan_timeout_s=0.5,
                                     timeout_s=120.0)
        thread, box = self._submit_async(executor, [name])
        spool = executor.spool
        self._wait_for(lambda: list(spool.pending_dir.glob("*.json")),
                       message="job publication")
        # A worker claims the job and dies without ever heartbeating:
        # backdating the claim file is the death certificate.
        claimed = spool.claim("zombie-worker")
        assert claimed is not None
        os.utime(claimed.path, (1.0, 1.0))
        # The submitter must requeue it, after which a healthy worker picks
        # it up and the sweep completes with byte-identical results.
        processed = run_worker(spool.root, poll_s=0.01, max_jobs=1,
                               idle_exit_s=60.0, worker_id="healthy-worker")
        assert processed == 1
        thread.join(timeout=60.0)
        assert not thread.is_alive() and "error" not in box
        assert [canonical_json(r[0][0]) for r in box["results"]] == \
            [canonical_json(o.result) for o in serial]

    def test_corrupted_job_file_is_rewritten_and_completes(self, tmp_path):
        names = ["table6b/charm-1024", "fig18/charm-b1"]
        serial = run_sweep(names)
        executor = WorkQueueExecutor(tmp_path / "spool", local_workers=0,
                                     poll_s=0.01, timeout_s=120.0)
        thread, box = self._submit_async(executor, names)
        spool = executor.spool
        self._wait_for(
            lambda: len(list(spool.pending_dir.glob("*.json"))) == len(names),
            message="job publication")
        # External corruption of one published job file (a failing disk, a
        # partial copy onto the shared filesystem, ...).
        victim = sorted(spool.pending_dir.glob("*.json"))[0]
        victim.write_text("\x00 this is not JSON")
        # The worker reports it as a corrupt-job error; the submitter
        # rewrites the pristine job from memory; the worker (still polling)
        # then executes it -- three claims for two scenarios.
        processed = run_worker(spool.root, poll_s=0.01, max_jobs=3,
                               idle_exit_s=60.0, worker_id="healthy-worker")
        assert processed == 3
        thread.join(timeout=60.0)
        assert not thread.is_alive() and "error" not in box
        assert [canonical_json(r[0][0]) for r in box["results"]] == \
            [canonical_json(o.result) for o in serial]

    def test_tcp_worker_kill_is_recovered_mid_sweep(self, spoold):
        # The network-transport half of the orphan story: a TCP worker
        # claims a job and is killed (its connection simply stops talking;
        # the claim and its payload live server-side).  The submitter's
        # orphan scan -- judged entirely on the server's clock -- requeues
        # it, and a healthy TCP worker completes the sweep byte-identically.
        name = "table6b/charm-1024"
        serial = run_sweep([name])
        executor = WorkQueueExecutor(spoold.url, local_workers=0,
                                     poll_s=0.01, orphan_timeout_s=0.5,
                                     timeout_s=120.0)
        thread, box = self._submit_async(executor, [name])
        self._wait_for(
            lambda: list(spoold.spool.pending_dir.glob("*.json")),
            message="job publication over tcp")
        zombie = NetSpool(spoold.url).ensure()
        claimed = zombie.claim("zombie-tcp-worker")
        assert claimed is not None
        zombie.close()  # the kill: no heartbeat will ever arrive
        # Death certificate on the *server's* clock: backdate the
        # server-side claim file.
        (claim_file,) = spoold.spool.claimed_dir.glob("*.json")
        os.utime(claim_file, (1.0, 1.0))
        processed = run_worker(spoold.url, poll_s=0.01, max_jobs=1,
                               idle_exit_s=60.0,
                               worker_id="healthy-tcp-worker")
        assert processed == 1
        thread.join(timeout=60.0)
        assert not thread.is_alive() and "error" not in box
        assert [canonical_json(r[0][0]) for r in box["results"]] == \
            [canonical_json(o.result) for o in serial]

    def test_server_restart_with_jobs_in_flight_completes(self, tmp_path):
        # The queue state is the server's disk, so killing spoold with jobs
        # enqueued and restarting it on the same directory + port loses
        # nothing: the blocked submitter and a late worker both reconnect
        # and the sweep finishes byte-identically.
        name = "table6b/charm-1024"
        serial = run_sweep([name])
        first = SpoolServer(tmp_path / "served-spool", host="127.0.0.1",
                            port=0)
        port = first.address[1]
        server_thread = threading.Thread(target=first.serve_forever,
                                         daemon=True)
        server_thread.start()
        executor = WorkQueueExecutor(first.url, local_workers=0,
                                     poll_s=0.01, timeout_s=120.0)
        thread, box = self._submit_async(executor, [name])
        self._wait_for(
            lambda: list(first.spool.pending_dir.glob("*.json")),
            message="job publication before the restart")
        first.shutdown()
        first.close()
        server_thread.join(timeout=5.0)
        second = SpoolServer(tmp_path / "served-spool", host="127.0.0.1",
                             port=port)
        server_thread = threading.Thread(target=second.serve_forever,
                                         daemon=True)
        server_thread.start()
        try:
            processed = run_worker(second.url, poll_s=0.01, max_jobs=1,
                                   idle_exit_s=60.0,
                                   worker_id="post-restart-worker")
            assert processed == 1
            thread.join(timeout=60.0)
            assert not thread.is_alive() and "error" not in box
            assert [canonical_json(r[0][0]) for r in box["results"]] == \
                [canonical_json(o.result) for o in serial]
        finally:
            second.shutdown()
            second.close()
            server_thread.join(timeout=5.0)
