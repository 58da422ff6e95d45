"""Certified contracts of the ``dse_chiplet`` kind.

Three contracts, all hard:

* ``num_chips=1`` payloads are **byte-identical** to ``dse_encoder`` on both
  backends (the chiplet kind is a strict superset axis, not a fork);
* multi-chip analytic latency remains a **lower bound** on the engine's,
  with DDR/LPDDR traffic matching byte for byte and all link terms
  (partition, boundary bytes, transfer times) backend-identical;
* the batched chiplet evaluator equals the scalar analytic runner
  **exactly**, payload for payload, over whole spaces and mixed chip counts.
"""

from __future__ import annotations

import json

import pytest

from repro.explore import get_space
from repro.runner import REGISTRY
from repro.xnn.analytic import EncoderBatchEvaluator

#: float-noise slack on the lower-bound direction (same as the sibling
#: backend-contract suite).
FP_SLACK = 1e-9

BASE = {"batch": 1, "seq_len": 64, "num_mme": 6}

MULTI_CHIP_POINTS = [
    dict(BASE, num_chips=2, link_gbs=64.0),
    dict(BASE, num_chips=2, link_gbs=16.0, link_hop_us=2.0),
    dict(BASE, num_chips=3, link_gbs=16.0),
    dict(BASE, num_chips=3, link_gbs=256.0, link_serialization_us=0.5),
]


def _runner(kind, backend):
    fn = REGISTRY.runner(kind, backend)
    assert fn is not None
    return fn


def _batched():
    fn = REGISTRY.batch_runner("dse_chiplet", "analytic")
    assert fn is not None, "dse_chiplet must register an analytic batch runner"
    return fn


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestSingleChipIdentity:
    @pytest.mark.parametrize("backend", ["engine", "analytic"])
    def test_payload_byte_identical_to_dse_encoder(self, backend):
        chiplet = _runner("dse_chiplet", backend)(**BASE, num_chips=1)
        encoder = _runner("dse_encoder", backend)(**BASE)
        assert _canon(chiplet) == _canon(encoder)

    @pytest.mark.parametrize("backend", ["engine", "analytic"])
    def test_catalogue_identity_pair_through_run_sweep(self, backend):
        """The catalogue pair ``chiplet/1chip-identity`` /
        ``chiplet/encoder-reference``, swept together, is byte-identical."""
        from repro.runner.sweep import run_sweep

        outcomes = {outcome.scenario: outcome.result for outcome in run_sweep(
            ["chiplet/1chip-identity", "chiplet/encoder-reference"],
            backend=backend)}
        assert _canon(outcomes["chiplet/1chip-identity"]) == \
            _canon(outcomes["chiplet/encoder-reference"])

    def test_chiplet_axes_are_inert_on_one_chip(self):
        # Link parameters must not leak into a single-chip evaluation.
        run = _runner("dse_chiplet", "analytic")
        default = run(**BASE, num_chips=1)
        tuned = run(**BASE, num_chips=1, link_gbs=1.0, link_hop_us=100.0,
                    link_serialization_us=100.0)
        assert _canon(default) == _canon(tuned)


class TestMultiChipContract:
    @pytest.mark.parametrize("params", MULTI_CHIP_POINTS,
                             ids=lambda p: f"chips{p['num_chips']}-"
                                           f"{p['link_gbs']:g}gbs")
    def test_lower_bound_and_exact_traffic(self, params):
        engine = _runner("dse_chiplet", "engine")(**params)
        analytic = _runner("dse_chiplet", "analytic")(**params)
        assert analytic["latency_s"] <= engine["latency_s"] * (1 + FP_SLACK)
        assert analytic["ddr_bytes"] == engine["ddr_bytes"]
        assert analytic["lpddr_bytes"] == engine["lpddr_bytes"]
        assert analytic["offchip_bytes"] == engine["offchip_bytes"]
        # The partition and link accounting are backend-independent by
        # construction -- equality must be exact, not approximate.
        assert analytic["cuts"] == engine["cuts"]
        assert analytic["link_bytes"] == engine["link_bytes"]
        assert analytic["link_s"] == engine["link_s"]
        assert analytic["num_chips"] == engine["num_chips"]

    @pytest.mark.parametrize("backend", ["engine", "analytic"])
    def test_multi_chip_latency_decomposes(self, backend):
        """End-to-end latency == single-chip latency + link transfer time:
        partitioning reorders no work, it only adds boundary crossings."""
        run = _runner("dse_chiplet", backend)
        single = run(**BASE, num_chips=1)
        multi = run(**BASE, num_chips=2, link_gbs=64.0)
        assert multi["latency_s"] == pytest.approx(
            single["latency_s"] + multi["link_s"], rel=1e-12)
        assert multi["link_s"] > 0.0
        assert multi["offchip_bytes"] == single["offchip_bytes"]

    def test_pipeline_beats_serial_when_link_is_fast(self):
        run = _runner("dse_chiplet", "analytic")
        multi = run(**BASE, num_chips=2, link_gbs=256.0)
        # The steady-state initiation interval must beat per-task latency
        # (otherwise scaling out buys nothing on any objective).
        assert multi["max_stage_s"] < multi["latency_s"]
        assert multi["pipeline_tasks_per_s"] > 1.0 / multi["latency_s"]

    def test_multi_chip_area_scales(self):
        run = _runner("dse_chiplet", "analytic")
        single = run(**BASE, num_chips=1)
        multi = run(**BASE, num_chips=3, link_gbs=64.0)
        assert multi["area_luts"] == 3 * single["area_luts"]
        assert multi["power_w"] > single["power_w"]


class TestBatchedChiplet:
    @pytest.mark.parametrize("space_name,fidelity", [
        ("chiplet-smoke", 1.0),
        ("chiplet-smoke", 0.5),
    ])
    def test_batched_equals_scalar_exactly(self, space_name, fidelity):
        space = get_space(space_name)
        params_list = [space.point_params(assignment, fidelity)
                       for assignment in space.points()]
        scalar_fn = _runner("dse_chiplet", "analytic")
        expected = [scalar_fn(**params) for params in params_list]
        actual = _batched()(params_list)
        assert actual == expected  # exact: every float bit-for-bit
        # Warm memo (same process-wide evaluator) must not drift either.
        assert _batched()(params_list) == expected

    def test_batched_mixes_chip_counts_and_defaults(self):
        mixed = [
            {"seq_len": 64},  # all chiplet axes defaulted -> single chip
            dict(BASE),
            dict(BASE, num_chips=2, link_gbs=64.0),
            dict(BASE, num_chips=3, link_gbs=16.0, link_hop_us=0.5),
        ]
        scalar_fn = _runner("dse_chiplet", "analytic")
        expected = [scalar_fn(**params) for params in mixed]
        assert _batched()(mixed) == expected

    def test_batched_empty_generation(self):
        assert _batched()([]) == []

    def test_batched_rejects_infeasible_designs_like_scalar(self):
        from repro.runner.library import _encoder_config

        bad = {"num_mme": 40, "num_chips": 2}
        with pytest.raises(ValueError):
            _runner("dse_chiplet", "analytic")(**bad)
        evaluator = EncoderBatchEvaluator()  # fresh: nothing memoized
        with pytest.raises(ValueError):
            evaluator.evaluate_chiplet_batch([bad], _encoder_config)
