"""Golden digests of whole exploration reports.

The explorer's bookkeeping -- enumeration, feasibility, candidate dedup,
point ids, the Pareto frontier and its ordering -- has one implementation,
so this suite pins its output instead: the sha256 of ``canonical_json`` of
``ExplorationReport.to_dict()`` (wall-clock fields removed) for grid,
random and halving explorations of every catalogue space, plus a weighted
halving run, each pinned to the digest the explorer produced when the suite
was written.  Any change to a frontier point, an id, a count or an order
shows up here.

Every exploration runs the way the ``explore`` CLI runs it: the space picks
its objective axes, and halving selects survivors on those axes (by weight
when weights are given).  ``verify_top=0`` keeps the engine out of it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.explore import get_space, get_strategy, objectives_for, run_exploration
from repro.runner import canonical_json

SEED = 7

#: (space, strategy, budget or None for the space's cardinality, weights).
CASES = {
    "encoder/grid": ("encoder", "grid", None, None),
    "encoder/random": ("encoder", "random", 64, None),
    "encoder/halving": ("encoder", "halving", 64, None),
    "encoder-smoke/grid": ("encoder-smoke", "grid", None, None),
    "encoder-smoke/random": ("encoder-smoke", "random", 64, None),
    "encoder-smoke/halving": ("encoder-smoke", "halving", 64, None),
    "encoder-smoke/halving-16": ("encoder-smoke", "halving", 16, None),
    "chiplet-encoder/grid": ("chiplet-encoder", "grid", None, None),
    "chiplet-encoder/random": ("chiplet-encoder", "random", 64, None),
    "chiplet-encoder/halving": ("chiplet-encoder", "halving", 64, None),
    "chiplet-smoke/grid": ("chiplet-smoke", "grid", None, None),
    "chiplet-smoke/random": ("chiplet-smoke", "random", 64, None),
    "chiplet-smoke/halving": ("chiplet-smoke", "halving", 64, None),
    "chiplet-smoke/halving-weighted": (
        "chiplet-smoke",
        "halving",
        64,
        {"latency_s": 1.0, "area_luts": 1.0, "energy_j": 1.0},
    ),
}

#: sha256 of canonical_json(report) for every case.
DIGESTS = {
    "chiplet-encoder/grid":
        "b18ed96c8ca58caf0eb653982328941d1d6650e6ec015e834cec5d8f30e3843b",
    "chiplet-encoder/halving":
        "43a6bce80f01c6fd2f65c0a42696ac0366247b5435c03067e33f83a0bce5ce21",
    "chiplet-encoder/random":
        "a1e47bf5889ee2e60d9e4d06449be15d86cedcc1377f03c3bd02c784b602b27a",
    "chiplet-smoke/grid":
        "cf2d8f2035b652e69a334def1f810598410d1fac164323ed4239564acea7c4c9",
    "chiplet-smoke/halving":
        "02c039e2d31e0024f7004a2f1d8754abc83fecaa941abf93ef8187eac109c7a0",
    "chiplet-smoke/halving-weighted":
        "be849633ba2b65ccbe7ebd78bead49671d51cd8abd6bb87e111359759975c414",
    "chiplet-smoke/random":
        "ae5f102ed3fff6a65b0d95a985efe923852cf0c8f854aecc892d0c8014a1f09c",
    "encoder-smoke/grid":
        "82549a4cb27801463e6b8976ac4115de8962d8e437666cd1cdc40d3b513b101c",
    "encoder-smoke/halving":
        "4fb49d0d2b541e72fd480444413fa2ce3635b37ea566a86fccc15c7fff84d2be",
    "encoder-smoke/halving-16":
        "f8868fd498de597d51a9005c9b8bf2452fcdcc29dc9a0f857292fd86cadc1a81",
    "encoder-smoke/random":
        "6b58a764b903340c373f0b14532b32786642647c0311724fe92198f77e855d53",
    "encoder/grid":
        "eb94629aec3f930afcecd1e41521c1271350a06a61758227246c39ccc013dd47",
    "encoder/halving":
        "7b7a4f32ff7a151ae6def7bd49592694db15eac6ec43725a5a55831b6617211e",
    "encoder/random":
        "3964c573631a70803d01d1f05e435f22c925fb1d7ea20b9dd75c9771fcb16224",
}

#: feasible points per catalogue space.
FEASIBLE = {
    "encoder": 1512,
    "encoder-smoke": 16,
    "chiplet-encoder": 8064,
    "chiplet-smoke": 12,
}


def _explore(case: str, chunk_size=None) -> dict:
    space_name, strategy_name, budget, weights = CASES[case]
    space = get_space(space_name)
    objectives = objectives_for(space, weights)
    strategy = get_strategy(strategy_name)
    report = run_exploration(
        space,
        strategy,
        budget=budget or space.cardinality,
        verify_top=0,
        seed=SEED,
        cache=None,
        objectives=objectives,
        weights=weights,
        chunk_size=chunk_size,
    )
    record = report.to_dict()
    record.pop("proxy_wall_s")
    record.pop("verify_wall_s")
    return record


def _digest(record: dict) -> str:
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_exploration_report_matches_golden_digest(case):
    record = _explore(case)
    assert record["feasible_points"] == FEASIBLE[CASES[case][0]]
    assert record["frontier"], f"{case}: empty frontier"
    assert _digest(record) == DIGESTS[case]


def test_one_point_per_chunk_reproduces_the_halving_report():
    """Chunking is invisible: one point per chunk job gives the report
    whole-generation chunks give."""
    case = "encoder-smoke/halving-16"
    record = _explore(case, chunk_size=1)
    assert record == _explore(case)
    assert _digest(record) == DIGESTS[case]
