"""Differential pin: chunked distributed batched == serial batched.

The sharded-evaluation tentpole rests on one claim: sharding a generation
into chunk jobs changes *where* the batch runner executes, never *what* it
returns.  This suite pins :func:`~repro.runner.sweep.evaluate_chunked` and
the chunked ``run_sweep`` path byte-identical to the classic serial batched
call across every executor -- serial, process pool, workqueue over a shared
directory, and workqueue over a TCP job server -- including uneven tail
chunks, whole-chunk worker death and requeue, and warm per-chunk cache
reruns that must not touch the executor at all.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.explore import get_space, run_exploration
from repro.explore.strategies import GridSearch
from repro.runner import (ProcessPoolExecutor, ResultCache,
                          WorkQueueExecutor, canonical_json, run_sweep,
                          run_worker)
from repro.runner.executors import SerialExecutor
from repro.runner.netqueue import NetSpool, SpoolServer
from repro.runner.sweep import evaluate_chunked


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


def _generation():
    """The 16-point encoder-smoke generation as ``(kind, params_list)``."""
    space = get_space("encoder-smoke")
    params = [space.point_params(a) for a in space.points()]
    assert len(params) == 16, "encoder-smoke space changed size"
    return space.kind, params


def _strip_results(results):
    return [canonical_json(result) for result in results]


def _strip_outcomes(outcomes):
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


class TestChunkedEquivalence:
    def test_chunked_identical_across_all_executors(self, tmp_path, spoold):
        kind, params = _generation()
        # The reference: the classic whole-generation in-process batch call
        # (serial executor, default chunk policy).
        serial, hits = evaluate_chunked(kind, params, backend="analytic")
        assert hits == 0
        reference = _strip_results(serial)
        # chunk_size=3 over 16 points: five full chunks plus a 1-point tail,
        # so the splice covers uneven chunk boundaries on every executor.
        with ProcessPoolExecutor(2) as pool, \
                WorkQueueExecutor(tmp_path / "spool", local_workers=2,
                                  poll_s=0.02, timeout_s=600.0) as wq_fs, \
                WorkQueueExecutor(spoold.url, local_workers=2,
                                  poll_s=0.02, timeout_s=600.0) as wq_tcp:
            for executor in (SerialExecutor(), pool, wq_fs, wq_tcp):
                results, hits = evaluate_chunked(
                    kind, params, backend="analytic", executor=executor,
                    chunk_size=3)
                assert hits == 0
                assert _strip_results(results) == reference, (
                    f"chunked results drifted on {type(executor).__name__}")

    def test_chunked_sweep_matches_serial_batched_sweep(self, tmp_path):
        space = get_space("encoder-smoke")
        scenarios = [space.materialize(a).scenario for a in space.points()]
        serial = run_sweep(scenarios, backend="analytic")
        with WorkQueueExecutor(tmp_path / "spool", local_workers=2,
                               poll_s=0.02, timeout_s=600.0) as wq:
            chunked = run_sweep(scenarios, backend="analytic", executor=wq,
                                chunk_size=4)
            per_scenario = run_sweep(scenarios, backend="analytic",
                                     executor=wq, chunk_size=1)
        assert _strip_outcomes(serial) == _strip_outcomes(chunked)
        assert _strip_outcomes(serial) == _strip_outcomes(per_scenario)

    def test_exploration_chunked_workqueue_matches_serial(self, tmp_path):
        space = get_space("encoder-smoke")
        kwargs = dict(budget=16, verify_top=0, cache=None)
        serial = run_exploration(space, GridSearch(), **kwargs)
        with WorkQueueExecutor(tmp_path / "spool", local_workers=2,
                               poll_s=0.02, timeout_s=600.0) as wq:
            chunked = run_exploration(space, GridSearch(), executor=wq,
                                      chunk_size="auto", **kwargs)

        def strip(report):
            payload = report.to_dict()
            payload.pop("proxy_wall_s", None)
            payload.pop("verify_wall_s", None)
            return canonical_json(payload)

        assert strip(serial) == strip(chunked)


class TestChunkRecovery:
    """Whole-chunk failure injection against a live submitter, with the
    worker driven in-process so every interleaving is deterministic."""

    def _evaluate_async(self, kind, params, executor, chunk_size):
        box = {}

        def target():
            try:
                box["results"], box["hits"] = evaluate_chunked(
                    kind, params, backend="analytic", executor=executor,
                    chunk_size=chunk_size)
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

    def test_orphaned_chunk_is_requeued_and_completes(self, tmp_path):
        kind, params = _generation()
        serial, _ = evaluate_chunked(kind, params, backend="analytic")
        executor = WorkQueueExecutor(tmp_path / "spool", local_workers=0,
                                     poll_s=0.01, orphan_timeout_s=0.5,
                                     timeout_s=120.0)
        # chunk_size=8 over 16 points: exactly two chunk jobs in flight.
        thread, box = self._evaluate_async(kind, params, executor, 8)
        spool = executor.spool
        self._wait_for(
            lambda: len(list(spool.pending_dir.glob("*.json"))) == 2,
            message="chunk-job publication")
        # A worker claims one whole chunk and dies without ever
        # heartbeating: backdating the claim file is the death certificate.
        claimed = spool.claim("zombie-worker")
        assert claimed is not None
        os.utime(claimed.path, (1.0, 1.0))
        # The submitter requeues the orphaned chunk *as a unit*; a healthy
        # worker then executes the surviving chunk and the requeued one.
        processed = run_worker(spool.root, poll_s=0.01, max_jobs=2,
                               idle_exit_s=60.0, worker_id="healthy-worker")
        assert processed == 2
        thread.join(timeout=60.0)
        assert not thread.is_alive() and "error" not in box
        assert _strip_results(box["results"]) == _strip_results(serial)

    def test_tcp_chunk_worker_kill_is_recovered(self, spoold):
        # The network-transport half: a TCP worker claims a chunk job and is
        # killed (its connection stops talking; the claim and the chunk
        # payload live server-side).  The submitter's orphan scan requeues
        # the whole chunk and a healthy TCP worker completes it.
        kind, params = _generation()
        serial, _ = evaluate_chunked(kind, params, backend="analytic")
        executor = WorkQueueExecutor(spoold.url, local_workers=0,
                                     poll_s=0.01, orphan_timeout_s=0.5,
                                     timeout_s=120.0)
        thread, box = self._evaluate_async(kind, params, executor, 8)
        self._wait_for(
            lambda: len(list(spoold.spool.pending_dir.glob("*.json"))) == 2,
            message="chunk-job publication over tcp")
        zombie = NetSpool(spoold.url).ensure()
        claimed = zombie.claim("zombie-tcp-worker")
        assert claimed is not None
        zombie.close()  # the kill: no heartbeat will ever arrive
        # Death certificate on the *server's* clock: backdate the
        # server-side claim file.
        (claim_file,) = spoold.spool.claimed_dir.glob("*.json")
        os.utime(claim_file, (1.0, 1.0))
        processed = run_worker(spoold.url, poll_s=0.01, max_jobs=2,
                               idle_exit_s=60.0,
                               worker_id="healthy-tcp-worker")
        assert processed == 2
        thread.join(timeout=60.0)
        assert not thread.is_alive() and "error" not in box
        assert _strip_results(box["results"]) == _strip_results(serial)


class TestChunkCache:
    @pytest.mark.parametrize("transport", ["dir", "tcp"])
    def test_warm_rerun_serves_chunks_without_any_jobs(self, tmp_path,
                                                       request, transport):
        kind, params = _generation()
        cache = ResultCache(tmp_path / "cache")
        if transport == "tcp":
            server = request.getfixturevalue("spoold")
            cold_spool = warm_spool = server.url
            pending_dir = server.spool.pending_dir
        else:
            cold_spool, warm_spool = tmp_path / "spool", tmp_path / "spool2"
            pending_dir = warm_spool / "pending"
        with WorkQueueExecutor(cold_spool, local_workers=1,
                               poll_s=0.02, timeout_s=600.0) as wq:
            cold, cold_hits = evaluate_chunked(
                kind, params, backend="analytic", executor=wq, cache=cache,
                chunk_size=4)
        assert cold_hits == 0
        # The warm rerun must be served entirely from the chunk cache: a
        # zero-worker executor with a short timeout would fail any sweep
        # that published even one job.
        with WorkQueueExecutor(warm_spool, local_workers=0,
                               poll_s=0.02, timeout_s=5.0) as idle:
            warm, warm_hits = evaluate_chunked(
                kind, params, backend="analytic", executor=idle, cache=cache,
                chunk_size=4)
            assert not list(pending_dir.glob("*.json"))
        assert warm_hits == len(params)
        assert _strip_results(warm) == _strip_results(cold)

    def test_every_executor_writes_the_same_chunk_entries(self, tmp_path,
                                                          spoold):
        # A work-queue entry splices the worker's own text of the results
        # (over either transport); a serial entry encodes the in-process
        # results.  Both must land at the same paths with the same content.
        kind, params = _generation()
        entries = {}
        for name, spool in (("serial", None), ("dir", tmp_path / "spool"),
                            ("tcp", spoold.url)):
            cache = ResultCache(tmp_path / f"cache-{name}")
            if spool is None:
                evaluate_chunked(kind, params, backend="analytic",
                                 cache=cache, chunk_size=4)
            else:
                with WorkQueueExecutor(spool, local_workers=1, poll_s=0.02,
                                       timeout_s=600.0) as wq:
                    evaluate_chunked(kind, params, backend="analytic",
                                     executor=wq, cache=cache, chunk_size=4)
            entries[name] = {}
            for path in cache.entries():
                entry = json.loads(path.read_text())
                entry.pop("elapsed_s")  # wall time, machine-dependent
                entries[name][path.name] = canonical_json(entry)
        assert len(entries["serial"]) == 4
        assert entries["dir"] == entries["serial"]
        assert entries["tcp"] == entries["serial"]

    def test_force_reruns_despite_warm_chunk_cache(self, tmp_path):
        kind, params = _generation()
        cache = ResultCache(tmp_path / "cache")
        cold, _ = evaluate_chunked(kind, params, backend="analytic",
                                   cache=cache, chunk_size=4)
        forced, hits = evaluate_chunked(kind, params, backend="analytic",
                                        cache=cache, chunk_size=4,
                                        force=True)
        assert hits == 0
        assert _strip_results(forced) == _strip_results(cold)
