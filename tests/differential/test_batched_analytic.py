"""Differential contract: batched analytic evaluation == scalar per point.

The analytic batch runners share memoized tallies across points and calls
and vectorize the roofline arithmetic over a whole batch; the scalar runner
is the same batch runner applied to one point on a fresh evaluator.  This
suite pins the hard contract that sharing changes not a single bit of any
payload -- every float and int must equal the one-point evaluation exactly,
over the full smoke space and a broad slice of the full encoder space, at
reduced fidelity, with partially specified parameters, and on repeat calls
(warm memo).  The ``dse_chiplet`` batch runner shares per-call partitions,
links and costs between points; its payloads must still match the scalar
runner's and share no mutable container.
"""

from __future__ import annotations

import copy
import inspect
import random
import re

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore import get_space
from repro.runner import REGISTRY, canonical_json
from repro.xnn.analytic import EncoderBatchEvaluator


def _scalar():
    return REGISTRY.runner("dse_encoder", "analytic")


def _batched():
    fn = REGISTRY.batch_runner("dse_encoder", "analytic")
    assert fn is not None, "dse_encoder must register an analytic batch runner"
    return fn


def _space_params(space_name, fidelity=1.0, stride=1):
    space = get_space(space_name)
    return [space.point_params(assignment, fidelity)
            for assignment in space.points()[::stride]]


@pytest.mark.parametrize("space_name,fidelity,stride", [
    ("encoder-smoke", 1.0, 1),     # the whole smoke space
    ("encoder-smoke", 0.5, 1),     # reduced fidelity (halving's early rungs)
    ("encoder", 1.0, 11),          # broad slice of the full space
])
def test_batched_equals_scalar_exactly(space_name, fidelity, stride):
    params_list = _space_params(space_name, fidelity, stride)
    scalar_fn = _scalar()
    expected = [scalar_fn(**params) for params in params_list]
    actual = _batched()(params_list)
    assert actual == expected  # exact: every float bit-for-bit

    # Warm memo (same process-wide evaluator) must not drift either.
    assert _batched()(params_list) == expected


def test_batched_applies_scalar_defaults():
    # encoder-smoke points omit tile_k / super_n / mem_b_bytes / num_mme;
    # an even sparser mapping must resolve to the scalar signature defaults.
    sparse = [{"seq_len": 64}, {"seq_len": 128, "pipeline_attention": False}]
    expected = [_scalar()(**params) for params in sparse]
    assert _batched()(sparse) == expected


def test_batched_empty_generation():
    assert _batched()([]) == []


def test_batched_rejects_infeasible_designs_like_scalar():
    bad = {"num_mme": 40}  # no MME grouping fits the AIE array
    with pytest.raises(ValueError):
        _scalar()(**bad)
    evaluator = EncoderBatchEvaluator()  # fresh: nothing memoized
    with pytest.raises(ValueError):
        from repro.runner.library import _encoder_config
        evaluator.evaluate_batch([bad], _encoder_config)
    # Failures are never memoized: a second attempt fails identically.
    with pytest.raises(ValueError):
        from repro.runner.library import _encoder_config
        evaluator.evaluate_batch([bad], _encoder_config)


def _catalogue_params(kind):
    return [dict(s.params) for s in REGISTRY.select() if s.kind == kind]


@pytest.mark.parametrize("kind,extra", [
    ("xnn_encoder", [{"batch": 2, "seq_len": 256, "model": "vit_base",
                      "options": {"pipeline_attention": False},
                      "bandwidth_scale": 0.5}]),
    ("xnn_gemm", [{"m": 512, "k": 768, "n": 1024, "bandwidth_scale": 2.0,
                   "options": {"tile_m": 256}}]),
    ("xnn_feedforward", [{"model": "ncf", "batch": 256}]),
])
def test_catalogue_kind_batched_equals_scalar_exactly(kind, extra):
    """The encoder-shaped catalogue kinds' batch runners == scalar, bit for bit
    -- over every catalogue point of the kind plus off-catalogue variants."""
    params_list = _catalogue_params(kind) + extra
    assert params_list, f"catalogue has no {kind} scenarios"
    scalar_fn = REGISTRY.runner(kind, "analytic")
    batched_fn = REGISTRY.batch_runner(kind, "analytic")
    assert batched_fn is not None, f"{kind} must register an analytic batch runner"
    expected = [scalar_fn(**params) for params in params_list]
    assert batched_fn(params_list) == expected
    # Warm memo (same process-wide evaluator) must not drift either.
    assert batched_fn(params_list) == expected


def _valid_keys(kind):
    """Every parameter ``kind`` accepts, from its one definition."""
    from repro.runner import library
    from repro.xnn.partition import _KIND_DEFAULTS

    if kind in _KIND_DEFAULTS:
        return set(_KIND_DEFAULTS[kind])
    definition = {
        "xnn_gemm": library._gemm_point,
        "xnn_encoder": library._encoder_point,
        "xnn_feedforward": library._feedforward_point,
    }.get(kind) or REGISTRY.runner(kind, REGISTRY.backends(kind)[0])
    return set(inspect.signature(definition).parameters)


_KEY_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"


@st.composite
def _misspellings(draw, keys):
    """One edit (drop, double, swap or replace a character) of a real key,
    never equal to any valid key."""
    key = draw(st.sampled_from(sorted(keys)))
    at = draw(st.integers(0, len(key) - 1))
    edit = draw(st.sampled_from(["drop", "double", "swap", "replace"]))
    if edit == "drop":
        typo = key[:at] + key[at + 1:]
    elif edit == "double":
        typo = key[:at] + key[at] + key[at:]
    elif edit == "swap" and at + 1 < len(key):
        typo = key[:at] + key[at + 1] + key[at] + key[at + 2:]
    else:
        typo = key[:at] + draw(st.sampled_from(_KEY_CHARS)) + key[at + 1:]
    hypothesis.assume(typo and typo not in keys)
    return key, typo


_KINDS = sorted({scenario.kind for scenario in REGISTRY.select()})
_KIND_BACKENDS = [(kind, backend) for kind in _KINDS
                  for backend in REGISTRY.backends(kind)]


def test_rejection_covers_every_registered_kind():
    assert set(_KINDS) == set(REGISTRY._kinds)


@pytest.mark.parametrize("kind,backend", _KIND_BACKENDS)
def test_catalogue_kind_batched_rejects_unknown_params_like_scalar(
        kind, backend, monkeypatch):
    """A misspelled key -- ``bogus_knob`` or a one-edit typo of a real key
    -- fails on every kind, backend, and scalar or batch runner with an
    error naming it, before any simulation runs."""
    from repro.core.engine import Simulator

    def no_simulation(self):
        raise AssertionError("a simulation ran before the key was rejected")

    monkeypatch.setattr(Simulator, "run", no_simulation)
    good = _catalogue_params(kind)[0]
    keys = _valid_keys(kind)
    runners = [lambda params: REGISTRY.runner(kind, backend)(**params)]
    batch = REGISTRY.batch_runner(kind, backend)
    if batch is not None:
        runners.append(lambda params: batch([params]))

    def rejects(key, typo):
        params = {name: value for name, value in good.items() if name != key}
        params[typo] = good.get(key, 1)
        for run in runners:
            with pytest.raises(TypeError, match=re.escape(repr(typo))):
                run(params)

    rejects(None, "bogus_knob")
    if not keys:
        return  # a kind without parameters has nothing to misspell

    @settings(max_examples=15, deadline=None, database=None)
    @given(_misspellings(keys))
    def check(misspelling):
        rejects(*misspelling)

    check()


@pytest.mark.parametrize("kind", ["dse_encoder", "dse_chiplet"])
@pytest.mark.parametrize("sparse", [{}, {"seq_len": 64, "num_mme": 4}])
def test_sparse_dse_points_agree_across_backends(kind, sparse):
    """A partially specified point names one design on both backends: the
    engine and analytic runners report byte-identical DDR/LPDDR traffic
    and an analytic latency no greater than the engine's."""
    engine = REGISTRY.runner(kind, "engine")(**sparse)
    analytic = REGISTRY.runner(kind, "analytic")(**sparse)
    assert analytic["ddr_bytes"] == engine["ddr_bytes"]
    assert analytic["lpddr_bytes"] == engine["lpddr_bytes"]
    assert analytic["latency_s"] <= engine["latency_s"] * (1.0 + 1e-9)


def test_serial_sweep_routes_batch_kinds_and_matches_scalar():
    """A serial analytic sweep over batch-capable kinds returns exactly the
    per-scenario scalar results (the run_sweep batching is invisible)."""
    from repro.runner.sweep import run_sweep

    names = [s.name for s in REGISTRY.select()
             if s.kind in ("xnn_encoder", "xnn_gemm")]
    outcomes = run_sweep(names, backend="analytic")
    by_name = {o.scenario: o for o in outcomes}
    for name in names:
        scenario = REGISTRY.get(name)
        scalar = REGISTRY.runner(scenario.kind, "analytic")(**scenario.params)
        assert by_name[name].result == scalar
        assert not by_name[name].cached


@pytest.mark.parametrize("space_name", ["encoder-smoke", "chiplet-smoke"])
def test_exploration_frontier_matches_the_scalar_runner(space_name):
    """The scalar analytic runner stays the reference for exploration: every
    frontier point's objectives, re-derived from a fresh scalar evaluation
    of that point, equal the values the batched generation reported."""
    from repro.explore import SuccessiveHalving, objectives_for, run_exploration

    space = get_space(space_name)
    objectives = objectives_for(space)
    report = run_exploration(space, SuccessiveHalving(), budget=12,
                             verify_top=0, seed=5, objectives=objectives)
    assert report.proxy == "batched"
    assert report.frontier
    scalar = REGISTRY.runner(space.kind, "analytic")
    for point in report.frontier:
        payload = scalar(**space.point_params(point.assignment))
        assert point.objectives == {o.name: o.value(payload)
                                    for o in objectives}


def _chiplet_batched():
    fn = REGISTRY.batch_runner("dse_chiplet", "analytic")
    assert fn is not None, "dse_chiplet must register an analytic batch runner"
    return fn


def test_chiplet_payloads_sharing_memo_keys_share_no_containers():
    """Points that hit the same per-call partition, link and cost entries
    still get payloads of their own: mutating one leaves its siblings
    (and the next call) untouched."""
    base = {"batch": 1, "seq_len": 128, "num_chips": 2, "link_gbs": 64.0}
    params_list = [dict(base, tile_m=tile_m) for tile_m in (384, 768, 384, 768)]
    payloads = _chiplet_batched()(params_list)
    snapshot = copy.deepcopy(payloads)
    for key in ("cuts", "stage_bounds_s"):
        assert len({id(payload[key]) for payload in payloads}) == len(payloads)

    payloads[0]["cuts"].append(99)
    payloads[0]["stage_bounds_s"]["chip0"] = -1.0
    payloads[0]["stage_bounds_s"]["extra"] = 1.0
    assert payloads[1:] == snapshot[1:]
    assert _chiplet_batched()(params_list) == snapshot


def test_chiplet_batched_equals_scalar_on_seeded_sample():
    """512 seeded chiplet-encoder points over every chip count: the batched
    payloads equal the scalar runner's in canonical JSON."""
    space = get_space("chiplet-encoder")
    points = random.Random(2411).sample(space.points(), 512)
    assert {point["num_chips"] for point in points} == {1, 2, 3}
    params_list = [space.point_params(point) for point in points]
    scalar_fn = REGISTRY.runner("dse_chiplet", "analytic")
    expected = [canonical_json(scalar_fn(**params)) for params in params_list]
    actual = _chiplet_batched()(params_list)
    assert [canonical_json(payload) for payload in actual] == expected
