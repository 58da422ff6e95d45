"""End-to-end exploration: proxy search, engine certification, caching.

These run the real ``dse_encoder`` kind on the 16-point ``encoder-smoke``
space -- small enough that even the cycle-level verification phase is cheap
-- and pin the subsystem's headline contracts:

* the verified frontier is non-empty and every verified point satisfies the
  analytic lower-bound + byte-identical-traffic contract;
* a second identical exploration is served entirely from cache and produces
  a byte-identical report (also on the 12-point ``chiplet-smoke`` space);
* explorations are deterministic under a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import dse_frontier_table, dse_verification_table
from repro.explore import (get_space, get_strategy, run_exploration,
                           SuccessiveHalving)
from repro.runner import ResultCache


def _strip_volatile(report_dict):
    for key in ("proxy_wall_s", "verify_wall_s", "proxy_cache_hits"):
        report_dict.pop(key)
    return report_dict


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "dse-cache")


class TestExploration:
    @pytest.mark.parametrize("strategy_name", ["grid", "random", "halving"])
    def test_verified_frontier_satisfies_contract(self, strategy_name, cache):
        report = run_exploration(get_space("encoder-smoke"),
                                 get_strategy(strategy_name), budget=16,
                                 verify_top=3, seed=7, cache=cache)
        assert report.frontier, "frontier must be non-empty"
        assert report.verified, "verification must cover frontier points"
        assert len(report.verified) <= 3
        for point in report.verified:
            assert point.lower_bound_ok, \
                f"{point.point_id}: analytic {point.proxy_latency_s} above " \
                f"engine {point.engine_latency_s}"
            assert point.traffic_match
            assert 0.0 < point.latency_ratio <= 1.0 + 1e-9
        assert report.contract_ok

    @pytest.mark.parametrize("space_name,strategy_name,budget,verify_top", [
        ("encoder-smoke", "halving", 16, 3),
        ("chiplet-smoke", "grid", 12, 4),
    ])
    def test_cache_reproducible_second_run(self, space_name, strategy_name,
                                           budget, verify_top, cache):
        space, strategy = get_space(space_name), get_strategy(strategy_name)
        first = run_exploration(space, strategy, budget=budget,
                                verify_top=verify_top, seed=7, cache=cache)
        second = run_exploration(space, strategy, budget=budget,
                                 verify_top=verify_top, seed=7, cache=cache)
        assert second.proxy_cache_hits == second.evaluations
        assert _strip_volatile(first.to_dict()) == \
            _strip_volatile(second.to_dict())

    def test_deterministic_under_seed_without_cache(self):
        space, strategy = get_space("encoder-smoke"), get_strategy("random")
        runs = [run_exploration(space, strategy, budget=8, verify_top=0,
                                seed=11, cache=None) for _ in range(2)]
        assert _strip_volatile(runs[0].to_dict()) == \
            _strip_volatile(runs[1].to_dict())

    def test_verify_top_zero_skips_engine_phase(self, cache):
        report = run_exploration(get_space("encoder-smoke"),
                                 get_strategy("grid"), budget=4,
                                 verify_top=0, cache=cache)
        assert report.verified == []
        assert report.verify_wall_s == 0.0
        assert report.rank_agreement is None

    def test_rank_agreement_within_bounds_when_present(self, cache):
        report = run_exploration(get_space("encoder-smoke"),
                                 get_strategy("grid"), budget=16,
                                 verify_top=4, seed=0, cache=cache)
        if report.rank_agreement is not None:
            assert -1.0 <= report.rank_agreement <= 1.0

    def test_halving_spends_less_full_fidelity_than_grid(self, cache):
        space = get_space("encoder-smoke")
        halving = run_exploration(space, SuccessiveHalving(min_final=2),
                                  budget=16, verify_top=0, seed=1,
                                  cache=cache)
        grid = run_exploration(space, get_strategy("grid"), budget=16,
                               verify_top=0, cache=cache)
        assert halving.candidates < grid.candidates
        assert halving.evaluations <= 16

    def test_bad_budget_and_verify_top_rejected(self):
        space, strategy = get_space("encoder-smoke"), get_strategy("grid")
        with pytest.raises(ValueError, match="budget"):
            run_exploration(space, strategy, budget=0)
        with pytest.raises(ValueError, match="verify_top"):
            run_exploration(space, strategy, budget=1, verify_top=-1)


class TestExecutorThreading:
    """The exploration's evaluate closures fan out through whichever
    executor the caller provides -- and the executor must be invisible in
    the report (the acceptance pin for the distributed work queue)."""

    def test_workqueue_exploration_matches_serial(self, tmp_path):
        from repro.runner import SerialExecutor, WorkQueueExecutor
        space, seed = get_space("encoder-smoke"), 7
        serial = run_exploration(space, get_strategy("halving"), budget=16,
                                 verify_top=2, seed=seed,
                                 executor=SerialExecutor(), cache=None)
        with WorkQueueExecutor(tmp_path / "spool", local_workers=1,
                               poll_s=0.02, timeout_s=600.0) as executor:
            distributed = run_exploration(space, get_strategy("halving"),
                                          budget=16, verify_top=2, seed=seed,
                                          executor=executor, cache=None)
        assert _strip_volatile(serial.to_dict()) == \
            _strip_volatile(distributed.to_dict())

    def test_pool_executor_matches_serial(self):
        from repro.runner import ProcessPoolExecutor
        space = get_space("encoder-smoke")
        serial = run_exploration(space, get_strategy("grid"), budget=8,
                                 verify_top=1, cache=None)
        pooled = run_exploration(space, get_strategy("grid"), budget=8,
                                 verify_top=1, cache=None,
                                 executor=ProcessPoolExecutor(2))
        assert _strip_volatile(serial.to_dict()) == \
            _strip_volatile(pooled.to_dict())


class TestReportRendering:
    def test_tables_render_frontier_and_verification(self, cache):
        report = run_exploration(get_space("encoder-smoke"),
                                 get_strategy("halving"), budget=16,
                                 verify_top=3, seed=7, cache=cache)
        frontier = dse_frontier_table(report).render()
        assert "Pareto frontier" in frontier
        assert report.frontier[0].point_id in frontier
        verification = dse_verification_table(report).render()
        assert "bound ok" in verification
        assert "rank agreement" in verification or len(report.verified) < 2

    def test_report_dict_is_json_able(self, cache):
        import json
        report = run_exploration(get_space("encoder-smoke"),
                                 get_strategy("halving"), budget=8,
                                 verify_top=2, seed=3, cache=cache)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["space"] == "encoder-smoke"
        assert payload["contract_ok"] is True
        assert payload["frontier"]


class TestSeedRecording:
    """Regression: ``seed=None`` used to hand ``random.Random(None)`` its
    OS-entropy seeding and record nothing, so an unseeded exploration could
    never be replayed.  Now the seed is drawn explicitly and reported."""

    def test_unseeded_run_records_a_replayable_seed(self):
        space, strategy = get_space("encoder-smoke"), get_strategy("random")
        report = run_exploration(space, strategy, budget=8, verify_top=0,
                                 seed=None, cache=None)
        assert isinstance(report.seed, int)
        assert report.to_dict()["seed"] == report.seed
        replay = run_exploration(space, strategy, budget=8, verify_top=0,
                                 seed=report.seed, cache=None)
        assert _strip_volatile(report.to_dict()) == \
            _strip_volatile(replay.to_dict())

    def test_two_unseeded_runs_draw_distinct_seeds(self):
        space, strategy = get_space("encoder-smoke"), get_strategy("random")
        seeds = {run_exploration(space, strategy, budget=4, verify_top=0,
                                 seed=None, cache=None).seed
                 for _ in range(4)}
        assert len(seeds) > 1, "entropy-drawn seeds should not collide 4/4"
