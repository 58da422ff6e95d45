"""Strategy behaviour: coverage, budgets, and seed determinism."""

from __future__ import annotations

import random

import pytest

from repro.analysis.pareto import pareto_ranks, weighted_scalarization
from repro.explore import (Axis, DesignSpace, GridSearch, RandomSearch,
                           SearchStrategy, SuccessiveHalving, get_space,
                           get_strategy, run_exploration, strategy_names)
from repro.runner import canonical_json

#: the fake payloads' objective keys and senses.
KEYS = ("latency_s", "offchip_bytes", "utilization")
SENSES = ("min", "min", "max")


def _space() -> DesignSpace:
    return DesignSpace(
        name="toy",
        kind="dse_encoder",
        base_params={"model": "bert_large", "batch": 1},
        axes=(
            Axis("seq_len", (64, 128)),
            Axis("pipeline_attention", (False, True)),
            Axis("tile_m", (256, 512, 768)),
            Axis("bandwidth_scale", (1.0, 2.0)),
        ),
    )


def _fake_evaluate(calls=None):
    """A cheap deterministic payload: latency falls with tile_m, traffic
    rises with seq_len -- enough structure for rank-based selection."""

    def evaluate(assignments, fidelity):
        if calls is not None:
            calls.append((len(assignments), fidelity))
        payloads = []
        for a in assignments:
            payloads.append({
                "latency_s": 1.0 / a["tile_m"] + 0.001 * a["seq_len"],
                "offchip_bytes": a["seq_len"] * 1000,
                "utilization": 0.5 if a["pipeline_attention"] else 0.4,
            })
        return payloads

    return evaluate


def _rows(payloads):
    return [tuple(payload[key] for key in KEYS) for payload in payloads]


def _rank(payloads):
    """Non-domination rank over :data:`KEYS`, as the explorer ranks."""
    return pareto_ranks(_rows(payloads), SENSES)


def _weighted_rank(weights):
    vector = [weights.get(key, 0.0) for key in KEYS]
    return lambda payloads: weighted_scalarization(_rows(payloads), SENSES,
                                                   vector)


def _ids(space, points):
    return [space.point_id(point) for point in points]


class TestGridSearch:
    def test_full_budget_covers_every_point(self):
        space = _space()
        points, payloads = GridSearch().search(space, 100, _fake_evaluate(),
                                               random.Random(0), _rank)
        assert points == space.points()
        assert len(payloads) == len(points)

    def test_small_budget_strides_across_the_space(self):
        space = _space()
        points, _ = GridSearch().search(space, 6, _fake_evaluate(),
                                        random.Random(0), _rank)
        assert len(points) == 6
        # Striding must reach past the first corner of the enumeration.
        seq_lens = {point["seq_len"] for point in points}
        assert seq_lens == {64, 128}

    def test_deterministic_without_rng(self):
        space = _space()
        a, _ = GridSearch().search(space, 6, _fake_evaluate(),
                                   random.Random(0), _rank)
        b, _ = GridSearch().search(space, 6, _fake_evaluate(),
                                   random.Random(99), _rank)
        assert _ids(space, a) == _ids(space, b)


def _strided_stream(space, budget):
    """The grid's selection as an earlier enumeration-filter implementation
    made it: the strided indices picked off the point stream in one pass."""
    total = space.feasible_count()
    if budget >= total:
        return list(space.iter_points())
    stride = total / budget
    wanted = {int(i * stride) for i in range(budget)}
    return [point for index, point in enumerate(space.iter_points())
            if index in wanted]


class TestGridSelectionPins:
    """The strided position arithmetic picks what the stream filter did."""

    @staticmethod
    def _grid(space, budget):
        points, _ = GridSearch().search(space, budget, lambda a, f: [],
                                        random.Random(0), _rank)
        return list(points)

    @pytest.mark.parametrize("name", ["encoder-smoke", "chiplet-smoke"])
    def test_every_budget_on_the_smoke_spaces(self, name):
        space = get_space(name)
        total = space.feasible_count()
        for budget in range(1, total + 1):
            assert self._grid(space, budget) == _strided_stream(space, budget)

    @pytest.mark.parametrize("budget", [1, 7, 500, 8063])
    def test_chiplet_encoder_budgets(self, budget):
        space = get_space("chiplet-encoder")
        assert space.feasible_count() == 8064
        assert self._grid(space, budget) == _strided_stream(space, budget)


class TestRandomSelectionPins:
    """Sampling positions draws exactly the points sampling the list did."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_positions_are_the_sampled_points(self, seed):
        n, k = 13_440, 500
        points = [f"point-{index}" for index in range(n)]
        index_of = {point: index for index, point in enumerate(points)}
        drawn = random.Random(seed).sample(points, k)
        assert random.Random(seed).sample(range(n), k) == [
            index_of[point] for point in drawn]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_search_draws_the_listed_sample(self, seed):
        space = get_space("chiplet-encoder")
        points, _ = RandomSearch().search(space, 500, lambda a, f: [],
                                          random.Random(seed), _rank)
        assert list(points) == random.Random(seed).sample(space.points(), 500)


class TestRandomSearch:
    def test_budget_respected_and_unique(self):
        space = _space()
        points, payloads = RandomSearch().search(space, 5, _fake_evaluate(),
                                                 random.Random(3), _rank)
        assert len(points) == len(payloads) == 5
        assert len(set(_ids(space, points))) == 5

    def test_same_seed_same_sample(self):
        a, _ = RandomSearch().search(_space(), 5, _fake_evaluate(),
                                     random.Random(3), _rank)
        b, _ = RandomSearch().search(_space(), 5, _fake_evaluate(),
                                     random.Random(3), _rank)
        assert a == b

    def test_different_seed_different_sample(self):
        a, _ = RandomSearch().search(_space(), 5, _fake_evaluate(),
                                     random.Random(3), _rank)
        b, _ = RandomSearch().search(_space(), 5, _fake_evaluate(),
                                     random.Random(4), _rank)
        assert a != b


class TestSuccessiveHalvingPlan:
    def test_plan_total_within_budget(self):
        strategy = SuccessiveHalving(min_final=4)
        for feasible, budget in ((1512, 200), (16, 16), (100, 50), (3, 10)):
            sizes = strategy.plan(feasible, budget)
            assert sum(sizes) <= budget
            assert sizes[0] <= feasible
            assert sizes[-1] <= strategy.min_final or len(sizes) == 1

    def test_plan_decays_geometrically(self):
        sizes = SuccessiveHalving(min_final=4).plan(1000, 200)
        for bigger, smaller in zip(sizes, sizes[1:]):
            assert smaller == max(4, bigger // 2)

    def test_tiny_budget_still_yields_one_evaluation(self):
        assert SuccessiveHalving().plan(1000, 1) == [1]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            SuccessiveHalving(eta=1)
        with pytest.raises(ValueError, match="min_final"):
            SuccessiveHalving(min_final=0)
        with pytest.raises(ValueError, match="min_fidelity"):
            SuccessiveHalving(min_fidelity=0.0)
        with pytest.raises(ValueError, match="budget"):
            SuccessiveHalving().plan(10, 0)


class TestSuccessiveHalvingSearch:
    def test_budget_respected(self):
        calls = []
        SuccessiveHalving(min_final=2).search(_space(), 12,
                                              _fake_evaluate(calls),
                                              random.Random(1), _rank)
        assert sum(n for n, _ in calls) <= 12

    def test_final_rung_runs_at_full_fidelity(self):
        calls = []
        points, payloads = SuccessiveHalving(min_final=2).search(
            _space(), 12, _fake_evaluate(calls), random.Random(1), _rank)
        assert calls[-1][1] == 1.0
        assert calls[-1][0] == len(points) == len(payloads)

    def test_earlier_rungs_run_reduced_fidelity(self):
        calls = []
        SuccessiveHalving(min_final=2).search(_space(), 20,
                                              _fake_evaluate(calls),
                                              random.Random(1), _rank)
        assert len(calls) >= 2
        assert all(fidelity < 1.0 for _, fidelity in calls[:-1])
        assert all(fidelity >= 0.25 for _, fidelity in calls)

    def test_deterministic_under_fixed_seed(self):
        space = _space()
        runs = [
            SuccessiveHalving(min_final=2).search(space, 14, _fake_evaluate(),
                                                  random.Random(42), _rank)
            for _ in range(2)
        ]
        assert _ids(space, runs[0][0]) == _ids(space, runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_survivors_prefer_low_pareto_rank(self):
        # tile_m=768 strictly improves latency at equal traffic/util, so the
        # full-fidelity survivors should be drawn from large tile_m designs.
        points, _ = SuccessiveHalving(min_final=2).search(
            _space(), 20, _fake_evaluate(), random.Random(0), _rank)
        assert all(point["tile_m"] >= 512 for point in points)

    def test_survivors_follow_the_rank_callback(self):
        # A rank that prefers high latency keeps the small-tile designs the
        # Pareto rank above drops.
        def slowest_first(payloads):
            return [-payload["latency_s"] for payload in payloads]

        points, _ = SuccessiveHalving(min_final=2).search(
            _space(), 20, _fake_evaluate(), random.Random(0), slowest_first)
        assert all(point["tile_m"] <= 512 for point in points)

    def test_missing_objective_key_raises(self, monkeypatch):
        # The explorer's rank reads every objective of every rung's payloads.
        import repro.explore.explore as explore

        def lossy(kind, params_list, **kwargs):
            return [{"latency_s": 1.0} for _ in params_list], 0

        monkeypatch.setattr(explore, "evaluate_chunked", lossy)
        with pytest.raises(KeyError, match="offchip_bytes"):
            run_exploration(_space(), SuccessiveHalving(min_final=2),
                            budget=12, verify_top=0, seed=1)


class TestStrategyRegistry:
    def test_names(self):
        assert strategy_names() == ["grid", "halving", "random"]

    def test_get_strategy(self):
        assert isinstance(get_strategy("halving"), SuccessiveHalving)

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="halving"):
            get_strategy("simulated-annealing")


class TestWeightedHalving:
    def test_weighted_selection_overrides_rank(self):
        """With a pure-utilization weight, halving must keep the pipelined
        points (utilization 0.5) over the lowest-latency ones that a
        latency-flavoured rank sort would favour."""
        points, _ = SuccessiveHalving(min_final=2).search(
            _space(), 24, _fake_evaluate(), random.Random(0),
            _weighted_rank({"utilization": 1.0}))
        assert points
        assert all(point["pipeline_attention"] for point in points)

    def test_weighted_halving_deterministic_under_seed(self):
        space = _space()
        rank = _weighted_rank({"latency_s": 2.0, "offchip_bytes": 1.0})
        first, _ = SuccessiveHalving().search(
            space, 16, _fake_evaluate(), random.Random(11), rank)
        second, _ = SuccessiveHalving().search(
            space, 16, _fake_evaluate(), random.Random(11), rank)
        assert _ids(space, first) == _ids(space, second)


class TestPointIds:
    """Point ids are hashed only where a report shows them."""

    @staticmethod
    def _counting(space, calls):
        point_id = space.point_id

        def counted(assignment):
            calls.append(dict(assignment))
            return point_id(assignment)

        space.point_id = counted
        return space

    def test_grid_exploration_hashes_frontier_ids_only(self):
        calls = []
        space = self._counting(get_space("chiplet-encoder"), calls)
        report = run_exploration(space, GridSearch(), budget=space.cardinality,
                                 verify_top=0, seed=7, cache=None)
        assert report.candidates == 8064
        assert len(calls) == len(report.frontier)
        assert sorted(map(canonical_json, calls)) == sorted(
            canonical_json(point.assignment) for point in report.frontier)

    def test_verified_ids_equal_frontier_ids(self):
        space = get_space("encoder-smoke")
        report = run_exploration(space, GridSearch(), budget=16, verify_top=4,
                                 seed=7, cache=None)
        assert len(report.verified) == 4
        for verified, frontier in zip(report.verified, report.frontier):
            assert verified.point_id == frontier.point_id
            assert verified.point_id == space.point_id(frontier.assignment)

    def test_equal_values_with_distinct_ids_stay_distinct(self):
        # 1 and 1.0 compare equal but have different point ids: the pool
        # keeps the first candidate of each point id, so both stay.
        space = DesignSpace("ties", axes=(Axis("x", (1, 2)),), kind="toy")
        payload = {"latency_s": 1.0, "offchip_bytes": 0, "utilization": 1.0}

        class Fixed(SearchStrategy):
            name = "fixed"

            def search(self, space, budget, evaluate, rng, rank):
                xs = (1, 1.0, 1, 1.0, 2)
                return [{"x": x} for x in xs], [payload] * len(xs)

        report = run_exploration(space, Fixed(), budget=1, verify_top=0, seed=0)
        assert report.candidates == 3
