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
import random

import pytest

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


@pytest.mark.parametrize("kind", ["xnn_encoder", "xnn_gemm", "xnn_feedforward",
                                  "dse_encoder", "dse_chiplet"])
def test_catalogue_kind_batched_rejects_unknown_params_like_scalar(kind):
    good = _catalogue_params(kind)[0]
    with pytest.raises(TypeError):
        REGISTRY.runner(kind, "analytic")(**{**good, "bogus_knob": 1})
    with pytest.raises(TypeError, match="bogus_knob"):
        REGISTRY.batch_runner(kind, "analytic")([{**good, "bogus_knob": 1}])


@pytest.mark.parametrize("kind,defaults", [
    ("dse_encoder", "_DSE_DEFAULTS"),
    ("dse_chiplet", "_CHIPLET_DEFAULTS"),
])
def test_analytic_dse_defaults_match_the_engine_signature(kind, defaults):
    """The analytic evaluator resolves partial points with its own defaults
    table; it must equal the engine runner's signature defaults, or the two
    backends would evaluate different designs for the same scenario."""
    import inspect

    from repro.xnn import analytic

    signature = inspect.signature(REGISTRY.runner(kind, "engine"))
    assert {name: parameter.default
            for name, parameter in signature.parameters.items()} == \
        getattr(analytic, defaults)


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
    strategy = SuccessiveHalving(
        objectives=tuple((o.key, o.sense) for o in objectives))
    report = run_exploration(space, strategy, budget=12, verify_top=0, seed=5,
                             objectives=objectives)
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
