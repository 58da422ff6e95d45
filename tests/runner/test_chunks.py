"""Unit coverage for the chunk-job machinery in :mod:`repro.runner.sweep`.

The differential suite (``tests/differential/test_chunk_contract.py``) pins
chunked distributed evaluation byte-identical to the serial batched path
end to end; this module covers the partitioning arithmetic and policy
resolution underneath it, plus the edge cases that never show up in a
healthy sweep -- empty generations, chunks larger than the generation,
scrambled completion order, and invalid policy values -- and the chunk
cache writes that happen as each result lands, not after the last one.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.explore import Objective, get_space, run_exploration
from repro.explore.space import Axis, Constraint, DesignSpace
from repro.explore.strategies import GridSearch
from repro.runner import REGISTRY, ResultCache, Scenario, canonical_json, run_sweep
from repro.runner.executors import (ProcessPoolExecutor, SerialExecutor,
                                    WorkQueueExecutor)
from repro.runner.sweep import (auto_chunk_size, evaluate_chunked,
                                partition_chunks, resolve_chunk_size)
from repro.runner.worker import run_worker


def _generation():
    space = get_space("encoder-smoke")
    return space.kind, [space.point_params(a) for a in space.points()]


class TestPartitionChunks:
    def test_exact_multiple(self):
        assert partition_chunks(8, 4) == [(0, 4), (4, 8)]

    def test_uneven_tail(self):
        assert partition_chunks(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_size_one_degenerates_to_scalar_jobs(self):
        assert partition_chunks(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_size_larger_than_count_is_one_chunk(self):
        assert partition_chunks(5, 100) == [(0, 5)]

    def test_zero_points_partition_into_no_chunks(self):
        assert partition_chunks(0, 4) == []

    def test_ranges_cover_everything_exactly_once(self):
        for count in (1, 7, 16, 33):
            for size in (1, 2, 5, 16, 40):
                ranges = partition_chunks(count, size)
                covered = [i for start, stop in ranges
                           for i in range(start, stop)]
                assert covered == list(range(count))

    def test_rejects_negative_count_and_nonpositive_size(self):
        with pytest.raises(ValueError):
            partition_chunks(-1, 4)
        with pytest.raises(ValueError):
            partition_chunks(4, 0)


class TestAutoChunkSize:
    def test_small_generations_hit_the_floor_then_the_total(self):
        # 64 points at target 32 jobs would mean 2-point chunks; the floor
        # lifts that to 16 -- and a tiny generation is one chunk outright.
        assert auto_chunk_size(64) == 16
        assert auto_chunk_size(10) == 10

    def test_targets_about_32_jobs(self):
        assert auto_chunk_size(1008) == 32  # ceil(1008 / 32)

    def test_huge_generations_hit_the_ceiling(self):
        assert auto_chunk_size(10**6) == 4096

    def test_alignment_rounds_to_axis_blocks(self):
        # The bigsweep shape: 120,960 points with a 3,840-point trailing
        # block round to exactly one block per chunk.
        assert auto_chunk_size(120_960, align=3840) == 3840

    def test_alignment_above_ceiling_still_yields_one_block(self):
        assert auto_chunk_size(10**6, align=5000) == 5000

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            auto_chunk_size(0)
        with pytest.raises(ValueError):
            auto_chunk_size(10, align=0)


class TestResolveChunkSize:
    def test_off_is_not_a_policy(self):
        # A per-scenario job is a chunk of one: ``chunk_size=1``.
        with pytest.raises(ValueError, match="chunk_size"):
            resolve_chunk_size("off", 100)

    def test_none_and_auto_share_the_heuristic(self):
        assert resolve_chunk_size(None, 1008) == auto_chunk_size(1008)
        assert resolve_chunk_size("auto", 1008) == auto_chunk_size(1008)
        assert resolve_chunk_size("auto", 120_960, align=3840) == 3840

    def test_explicit_sizes_clamp_to_the_total(self):
        assert resolve_chunk_size(7, 100) == 7
        assert resolve_chunk_size(500, 100) == 100

    @pytest.mark.parametrize("bad", ["bogus", 0, -3, 1.5, True])
    def test_rejects_invalid_policies(self, bad):
        with pytest.raises(ValueError):
            resolve_chunk_size(bad, 100)
        with pytest.raises(ValueError):
            evaluate_chunked("dse_encoder", [], chunk_size=bad)
        with pytest.raises(ValueError):
            run_sweep([], chunk_size=bad)


class _ScrambledExecutor(SerialExecutor):
    """Runs chunks in *reverse* submission order -- the submission-order
    alignment of the returned list (and of ``on_result``'s indices) is the
    whole contract."""

    def __init__(self):
        super().__init__()
        self.executed_sizes = []

    def submit_chunks(self, chunks, run_chunk_fn, on_result=None):
        chunks = list(chunks)  # any iterable; reversing needs them all
        results = [None] * len(chunks)
        for position in reversed(range(len(chunks))):
            results[position] = run_chunk_fn(chunks[position])
            self.executed_sizes.append(len(chunks[position][1]))
            if on_result is not None:
                on_result(position, results[position])
        return results


class TestEvaluateChunkedEdges:
    def test_empty_generation_is_a_no_op(self):
        results, hits = evaluate_chunked("dse_encoder", [],
                                         backend="analytic")
        assert results == [] and hits == 0

    def test_unknown_kind_raises_before_executing(self):
        with pytest.raises(KeyError):
            evaluate_chunked("no-such-kind", [{"x": 1}])

    def test_kind_without_a_runner_on_the_backend_raises(self, monkeypatch):
        ran = []
        monkeypatch.setitem(REGISTRY._kinds, "unit_engine_only",
                            {"engine": lambda: ran.append(1) or {"ok": 1}})
        with pytest.raises(KeyError, match="analytic"):
            evaluate_chunked("unit_engine_only", [{}], backend="analytic")
        assert ran == []

    def test_chunk_size_one_and_oversized_match_the_batched_call(self):
        kind, params = _generation()
        reference, _ = evaluate_chunked(kind, params, backend="analytic")
        stripped = [canonical_json(r) for r in reference]
        for chunk_size in (1, len(params) + 100):
            results, hits = evaluate_chunked(kind, params, backend="analytic",
                                             chunk_size=chunk_size)
            assert hits == 0
            assert [canonical_json(r) for r in results] == stripped

    def test_splice_order_survives_scrambled_completion(self):
        kind, params = _generation()
        reference, _ = evaluate_chunked(kind, params, backend="analytic")
        executor = _ScrambledExecutor()
        results, _ = evaluate_chunked(kind, params, backend="analytic",
                                      executor=executor, chunk_size=3)
        # The scramble really happened (the 1-point tail chunk ran first),
        # yet the splice reproduces input order exactly.
        assert executor.executed_sizes == [1, 3, 3, 3, 3, 3]
        assert [canonical_json(r) for r in results] == \
            [canonical_json(r) for r in reference]


def _recording_stores(cache, events, record=lambda: "store"):
    """Make ``cache.store_chunk`` append ``record()`` to ``events`` first."""
    store_chunk = cache.store_chunk

    def recording(*args, **kwargs):
        events.append(record())
        return store_chunk(*args, **kwargs)

    cache.store_chunk = recording


class TestCacheWritesAsResultsLand:
    """``evaluate_chunked`` and ``run_sweep`` store each chunk's entry from
    the executor's ``on_result`` callback, while later chunks still run."""

    def test_serial_stores_each_chunk_before_running_the_next(self, tmp_path):
        kind, params = _generation()
        assert len(params) == 16
        events = []

        class Tracing(SerialExecutor):
            def submit_chunks(self, chunks, run_chunk_fn, on_result=None):
                def run(chunk):
                    events.append("run")
                    return run_chunk_fn(chunk)

                return super().submit_chunks(chunks, run, on_result)

        cache = ResultCache(tmp_path / "cache")
        _recording_stores(cache, events)
        evaluate_chunked(kind, params, backend="analytic", executor=Tracing(),
                         cache=cache, chunk_size=6)
        assert events == ["run", "store"] * 3

    def test_scrambled_completion_stores_each_chunk_under_its_own_key(
            self, tmp_path):
        kind, params = _generation()
        reference, _ = evaluate_chunked(kind, params, backend="analytic")
        cache = ResultCache(tmp_path / "cache")
        evaluate_chunked(kind, params, backend="analytic",
                         executor=_ScrambledExecutor(), cache=cache,
                         chunk_size=3)
        warm, hits = evaluate_chunked(kind, params, backend="analytic",
                                      executor=SerialExecutor(), cache=cache,
                                      chunk_size=3)
        assert hits == len(params)
        assert [canonical_json(r) for r in warm] == \
            [canonical_json(r) for r in reference]

    def test_sweep_keeps_completed_work_when_a_later_chunk_fails(
            self, tmp_path, monkeypatch):
        def explode(**params):
            raise ValueError("unit failure")

        monkeypatch.setitem(REGISTRY._kinds, "unit_raises", {"engine": explode})
        good = Scenario(name="unit/chain", kind="engine_chain",
                        params={"n_msgs": 5, "stages": 1})
        failing = Scenario(name="unit/raises", kind="unit_raises")
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="unit failure"):
            run_sweep([good, failing], cache=cache, executor=SerialExecutor())
        assert cache.load(good) is not None
        assert cache.load(failing) is None

    def test_workqueue_keeps_completed_work_when_a_later_chunk_fails(
            self, tmp_path):
        good = {"n_msgs": 5, "stages": 1}
        cache = ResultCache(tmp_path / "cache")
        with WorkQueueExecutor(tmp_path / "spool", local_workers=1,
                               poll_s=0.01, timeout_s=120.0) as executor:
            # The second chunk passes a parameter the runner does not take,
            # so it raises inside the worker, after the first one finished.
            with pytest.raises(RuntimeError, match="bogus"):
                evaluate_chunked("engine_chain", [good, {"bogus": 1}],
                                 backend="analytic", executor=executor,
                                 cache=cache, chunk_size=1)
            assert not list(executor.spool.pending_dir.glob("*.json"))
        entry = cache.load_chunk("engine_chain", [good], backend="analytic")
        assert entry is not None
        assert entry["results"] == [
            REGISTRY.run(Scenario(name="unit/chain", kind="engine_chain",
                                  params=good), backend="analytic")]

    def test_workqueue_stores_while_jobs_are_outstanding(self, tmp_path):
        executor = WorkQueueExecutor(tmp_path / "spool", poll_s=0.01,
                                     timeout_s=60.0)
        spool = executor.spool
        cache = ResultCache(tmp_path / "cache")
        # Each store records how many of the batch's jobs are unfinished.
        stores = []
        _recording_stores(cache, stores, lambda: len(
            list(spool.pending_dir.glob("*.json"))
            + list(spool.claimed_dir.glob("*.json"))))
        params = [{"n_msgs": n, "stages": 1} for n in (5, 6, 7)]
        box = {}

        def submit():
            try:
                box["results"] = evaluate_chunked(
                    "engine_chain", params, backend="analytic",
                    executor=executor, cache=cache, chunk_size=1)
            except BaseException as error:  # noqa: BLE001 - reported below
                box["error"] = error

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while len(list(spool.pending_dir.glob("*.json"))) < len(params):
            assert time.monotonic() < deadline, "jobs were never published"
            time.sleep(0.01)
        # Run one job, then give the submitter time to store its result
        # while the other two jobs are still pending.
        run_worker(spool.root, poll_s=0.01, max_jobs=1, worker_id="unit-worker")
        deadline = time.monotonic() + 10.0
        while not stores and time.monotonic() < deadline:
            time.sleep(0.01)
        first_stores = list(stores)
        run_worker(spool.root, poll_s=0.01, max_jobs=2, worker_id="unit-worker")
        thread.join(timeout=30.0)
        assert "error" not in box
        assert first_stores == [2]
        assert len(stores) == len(params)


    def test_workqueue_ships_the_first_job_before_the_last_chunk_is_keyed(
            self, tmp_path):
        executor = WorkQueueExecutor(tmp_path / "spool", poll_s=0.01,
                                     timeout_s=60.0)
        spool = executor.spool
        cache = ResultCache(tmp_path / "cache")
        # Each cache lookup (the chunk's key) records how many jobs the
        # batch has published so far.
        published = []
        load_chunk = cache.load_chunk

        def recording(*args, **kwargs):
            published.append(len(list(spool.pending_dir.glob("*.json"))))
            return load_chunk(*args, **kwargs)

        cache.load_chunk = recording
        params = [{"n_msgs": n, "stages": 1} for n in (5, 6, 7)]
        box = {}

        def submit():
            try:
                box["results"] = evaluate_chunked(
                    "engine_chain", params, backend="analytic",
                    executor=executor, cache=cache, chunk_size=1)
            except BaseException as error:  # noqa: BLE001 - reported below
                box["error"] = error

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while len(list(spool.pending_dir.glob("*.json"))) < len(params):
            assert time.monotonic() < deadline, "jobs were never published"
            time.sleep(0.01)
        run_worker(spool.root, poll_s=0.01, max_jobs=3, worker_id="unit-worker")
        thread.join(timeout=30.0)
        assert "error" not in box
        assert len(published) == len(params)
        assert published[0] == 0 and published[-1] >= 1


class TestInfeasibleGenerations:
    def test_fully_infeasible_space_explores_to_an_empty_frontier(self):
        space = DesignSpace(
            name="infeasible",
            kind="dse_encoder",
            description="every assignment violates the constraint",
            base_params={"model": "bert_large", "batch": 1},
            axes=(Axis("seq_len", (64, 128)),),
            constraints=(
                Constraint("never", lambda a: False, "rejects everything"),
            ),
        )
        assert space.feasible_count() == 0
        report = run_exploration(space, GridSearch(), budget=4, verify_top=0,
                                 cache=None)
        assert report.evaluations == 0
        assert report.frontier == []


def _recording(executor_cls):
    """``executor_cls`` extended to record the size of every submitted
    chunk, in submission order."""

    class Recording(executor_cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.chunk_sizes = []

        def submit_chunks(self, chunks, run_chunk_fn, on_result=None):
            self.chunk_sizes.extend(len(params) for _, params in chunks)
            return super().submit_chunks(chunks, run_chunk_fn, on_result)

    return Recording


class TestExplorationChunking:
    def test_chunk_size_is_honoured_on_the_default_path(self):
        executor = _recording(SerialExecutor)()
        report = run_exploration(get_space("encoder-smoke"), GridSearch(),
                                 budget=8, verify_top=0, chunk_size=1,
                                 executor=executor)
        assert report.evaluations == 8
        assert executor.chunk_sizes == [1] * 8

    @pytest.mark.parametrize("executor_cls, args", [
        (SerialExecutor, ()),
        (ProcessPoolExecutor, (2,)),
    ])
    def test_scalar_only_kind_explores(self, executor_cls, args):
        # engine_chain registers no batch runner: its chunks run the scalar
        # analytic runner point by point.
        assert REGISTRY.batch_runner("engine_chain", "analytic") is None
        space = DesignSpace(
            name="chain",
            kind="engine_chain",
            axes=(Axis("n_msgs", (10, 20, 40)), Axis("stages", (1, 2))),
        )
        strategy = GridSearch()
        search = strategy.search
        candidates = []

        def recording_search(*args):
            candidates.extend(search(*args))
            return candidates

        strategy.search = recording_search
        with _recording(executor_cls)(*args) as executor:
            report = run_exploration(
                space, strategy, budget=6, verify_top=0, cache=None,
                executor=executor, chunk_size=2,
                objectives=(Objective("end_time", "end_time", "min"),))
        assert executor.chunk_sizes == [2, 2, 2]
        assert report.evaluations == 6
        assert [c.assignment for c in candidates] == space.points()
        for candidate in candidates:
            scenario = Scenario(name="chain", kind="engine_chain",
                                params=space.point_params(candidate.assignment))
            assert candidate.payload == REGISTRY.run(scenario,
                                                     backend="analytic")
        fastest = min(candidates, key=lambda c: c.payload["end_time"])
        assert [p.assignment for p in report.frontier] == [fastest.assignment]
