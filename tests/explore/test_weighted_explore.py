"""Weighted-scalarisation exploration: report ordering and field plumbing."""

from __future__ import annotations

import pytest

from repro.analysis.pareto import weighted_scalarization
from repro.explore import (
    COST_OBJECTIVES,
    DEFAULT_OBJECTIVES,
    PIPELINE_THROUGHPUT_OBJECTIVE,
    SuccessiveHalving,
    get_space,
    objectives_for,
    run_exploration,
)


def _explore(weights=None, **kwargs):
    kwargs.setdefault("budget", 12)
    kwargs.setdefault("verify_top", 0)
    kwargs.setdefault("seed", 5)
    strategy = SuccessiveHalving(weights=weights) if weights \
        else SuccessiveHalving()
    return run_exploration(get_space("encoder-smoke"), strategy,
                           weights=weights, **kwargs)


def test_weighted_report_carries_scores_and_weights():
    weights = {"latency_s": 2.0, "offchip_bytes": 1.0, "utilization": 0.5}
    report = _explore(weights=weights)
    assert report.weights == weights
    assert report.frontier
    scores = [point.weighted_score for point in report.frontier]
    assert all(score is not None for score in scores)
    # Frontier is sorted best-score-first.
    assert scores == sorted(scores)
    payload = report.to_dict()
    assert payload["weights"] == weights
    assert all("weighted_score" in point for point in payload["frontier"])


def test_unweighted_report_has_no_scores():
    report = _explore()
    assert report.weights is None
    assert all(point.weighted_score is None for point in report.frontier)
    assert all("weighted_score" not in point
               for point in report.to_dict()["frontier"])


def test_pure_latency_weight_reproduces_latency_ordering():
    weighted = _explore(weights={"latency_s": 1.0})
    unweighted = _explore()
    # A single latency weight scores points by normalised latency, so the
    # frontier order must match the default latency-sorted order.
    assert [p.point_id for p in weighted.frontier] == \
        [p.point_id for p in unweighted.frontier]


def test_unknown_weight_key_raises():
    with pytest.raises(KeyError, match="unknown objective weight"):
        run_exploration(get_space("encoder-smoke"), SuccessiveHalving(),
                        budget=4, verify_top=0, weights={"nope": 1.0})


def test_scalarization_with_cost_terms_hand_computed():
    """Hand-checked ranking over latency/area/energy/throughput columns."""
    # columns: latency (min), area (min), energy (min), throughput (max)
    points = [
        [1.0, 30.0, 5.0, 10.0],
        [2.0, 20.0, 5.0, 30.0],
        [3.0, 10.0, 5.0, 20.0],
    ]
    senses = ["min", "min", "min", "max"]
    # latency normalises to [0, 0.5, 1]; area to [1, 0.5, 0]; energy is
    # constant (skipped); throughput (max) to [1, 0, 0.5].
    scores = weighted_scalarization(points, senses, [1.0, 2.0, 3.0, 1.0])
    assert scores == pytest.approx([1 * 0.0 + 2 * 1.0 + 1 * 1.0,
                                    1 * 0.5 + 2 * 0.5 + 1 * 0.0,
                                    1 * 1.0 + 2 * 0.0 + 1 * 0.5])
    # Heavy area weighting makes the small-area point 1 the winner even
    # though it has the worst latency.
    heavy_area = weighted_scalarization(points, senses, [1.0, 10.0, 0.0, 0.0])
    assert min(range(3), key=lambda i: heavy_area[i]) == 2
    # Pure latency weighting ranks in latency order.
    pure_latency = weighted_scalarization(points, senses, [1.0, 0.0, 0.0, 0.0])
    assert pure_latency == sorted(pure_latency)


def test_objectives_for_space_kinds():
    extras = (PIPELINE_THROUGHPUT_OBJECTIVE,) + COST_OBJECTIVES
    # Chiplet spaces always carry the throughput and cost axes.
    assert objectives_for(get_space("chiplet-smoke")) == \
        DEFAULT_OBJECTIVES + extras
    # Single-chip spaces keep the classic axes...
    encoder = get_space("encoder-smoke")
    assert objectives_for(encoder) == DEFAULT_OBJECTIVES
    assert objectives_for(encoder, {"latency_s": 1.0}) == DEFAULT_OBJECTIVES
    # ...unless the weights explicitly opt into a cost axis.
    opted = objectives_for(encoder, {"latency_s": 1.0, "area_luts": 2.0})
    assert opted == DEFAULT_OBJECTIVES + COST_OBJECTIVES[:1]


def test_weighted_chiplet_exploration_scores_cost_axes():
    space = get_space("chiplet-smoke")
    objectives = objectives_for(space)
    obj_pairs = tuple((o.key, o.sense) for o in objectives)
    weights = {"latency_s": 1.0, "area_luts": 2.0, "energy_j": 1.0}
    report = run_exploration(
        space,
        SuccessiveHalving(objectives=obj_pairs, weights=weights),
        budget=12, verify_top=0, seed=5, objectives=objectives,
        weights=weights)
    assert report.frontier
    scores = [point.weighted_score for point in report.frontier]
    assert all(score is not None for score in scores)
    assert scores == sorted(scores)
    # Area dominates the weighting, so no frontier leader uses more chips
    # than the best single-chip design.
    best = report.frontier[0]
    assert best.assignment["num_chips"] == 1
    names = {name for point in report.frontier for name in point.objectives}
    assert {"area", "energy", "pipeline_throughput"} <= names


@pytest.mark.parametrize("proxy", ["sweep", "warp"])
def test_any_proxy_but_batched_raises(proxy):
    # The sweep proxy was removed: "batched" is the only evaluation path.
    with pytest.raises(KeyError, match="sweep proxy was removed"):
        run_exploration(get_space("encoder-smoke"), SuccessiveHalving(),
                        budget=4, verify_top=0, proxy=proxy)
