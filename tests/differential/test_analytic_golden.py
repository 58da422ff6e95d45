"""Golden digests of the analytic backend's payloads.

The analytic model has one implementation, so no second code path can
check it bit for bit.  This suite is that reference instead: the sha256 of
``canonical_json`` of the analytic payloads over every catalogue scenario of
the five analytic simulation kinds, whole design spaces, a seeded chiplet
sample, off-catalogue parameter sets, and the Table 11 bandwidth sweep,
each pinned to the digest the analytic backend produced when the suite was
written.  Any change to a float bit, a key, or a list order shows up here.

The engine differential (``test_backend_contract.py``,
``test_chiplet_contract.py``) stays the independent *model* oracle: it
checks the analytic latency against the cycle-level engine as a lower bound
and its traffic byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.explore import get_space
from repro.runner import REGISTRY, canonical_json
from repro.xnn.bandwidth import analytic_bandwidth_sweep

ANALYTIC_KINDS = (
    "xnn_gemm",
    "xnn_encoder",
    "xnn_feedforward",
    "dse_encoder",
    "dse_chiplet",
)

#: parameter sets outside the catalogue, by (case name, kind).
EXTRAS = {
    "xnn_encoder/vit-b2-l256-bw0.5": (
        "xnn_encoder",
        {
            "batch": 2,
            "seq_len": 256,
            "model": "vit_base",
            "options": {"pipeline_attention": False},
            "bandwidth_scale": 0.5,
        },
    ),
    "xnn_gemm/512x768x1024-bw2": (
        "xnn_gemm",
        {
            "m": 512,
            "k": 768,
            "n": 1024,
            "bandwidth_scale": 2.0,
            "options": {"tile_m": 256},
        },
    ),
    "xnn_feedforward/ncf-b256": ("xnn_feedforward", {"model": "ncf", "batch": 256}),
    "dse_encoder/sparse-l64": ("dse_encoder", {"seq_len": 64}),
    "dse_encoder/sparse-l128-no-pipeline": (
        "dse_encoder",
        {"seq_len": 128, "pipeline_attention": False},
    ),
    "dse_chiplet/defaults-l64": ("dse_chiplet", {"seq_len": 64}),
    "dse_chiplet/2chip-16gbs-hop2": (
        "dse_chiplet",
        {
            "batch": 1,
            "seq_len": 64,
            "num_mme": 6,
            "num_chips": 2,
            "link_gbs": 16.0,
            "link_hop_us": 2.0,
        },
    ),
    "dse_chiplet/3chip-256gbs-ser0.5": (
        "dse_chiplet",
        {
            "batch": 1,
            "seq_len": 64,
            "num_mme": 6,
            "num_chips": 3,
            "link_gbs": 256.0,
            "link_serialization_us": 0.5,
        },
    ),
    "dse_chiplet/2chip-tile384": (
        "dse_chiplet",
        {"batch": 1, "seq_len": 128, "num_chips": 2, "link_gbs": 64.0, "tile_m": 384},
    ),
}

#: sha256 of canonical_json(payload) for every catalogue scenario.
CATALOGUE_DIGESTS = {
    "chiplet/1chip-identity":
        "87f5bd32b08477624e75505515e7afb495d4507da44cfb2abd934a1d68a685b0",
    "chiplet/2chip-64gbs":
        "5d3b9e9596c7e339bd86f68b3544ad24ec21c68d8710a1297da31b62043a28bd",
    "chiplet/3chip-16gbs":
        "602ac9b869210c996ab2a54dd34954aa8a7ca2db78449e617f2b93972ae09012",
    "chiplet/encoder-reference":
        "87f5bd32b08477624e75505515e7afb495d4507da44cfb2abd934a1d68a685b0",
    "fig18/rsn-b1":
        "47e6724405f1e9aa562adc798c77cf1cd396b2054d72a0f195a6df91408826e5",
    "fig18/rsn-b12":
        "a3cfcce0c1511f16d5d7051e6f537b541177ce952af8d62cb0fc0ef30c6f86db",
    "fig18/rsn-b2":
        "b371149cffc3ac975bd0a1ff8ec2ad774f8cd17e235f7c50d251fc5f784896ed",
    "fig18/rsn-b24":
        "354484aac70d7198f0067f607a49db6740bf78cbf3204ebac814b9c6ccb0e455",
    "fig18/rsn-b3":
        "c5b83b2bd3cc2ca0a4786f678853c5638898b63ab0b1fbcb7ab9838c17dd9251",
    "fig18/rsn-b6":
        "992719fba78beb1370220067787ec708c8c956825ae7d8b96e5955dab4357ac3",
    "table10/l384-b1":
        "4e2ac598e3ba4908ce86d15b75eb370a03ce97e06a4bee33505757b7af725012",
    "table10/l384-b2":
        "657b8a375d8292d282537ce7c64e726773e2bf1ab7e623112a2933d370f9b9c9",
    "table10/l384-b4":
        "bc36319c0dbb6ad06083eb0545b3d106327dfabdb184a61128ba17f7dae63dab",
    "table10/l384-b8":
        "77cc305c5c4456c7483c1c28d8bf3df757bb81846102ae17c5d4846e8ce88131",
    "table11/bw-0.5x":
        "d5d7179387f5e019ed85ef0a7ce1798f5a8cb439e607867d44cfaa1239370a02",
    "table11/bw-1x":
        "77cc305c5c4456c7483c1c28d8bf3df757bb81846102ae17c5d4846e8ce88131",
    "table11/bw-2x":
        "f17c80909329fb38d31e2eb47e3710539a674d43d002062658ced3b865d42fb8",
    "table11/bw-3x":
        "65f8e7e16fcc60feed48ebfd428306088ef4606a216c57f17edc5310f27c9769",
    "table6b/gemm-1024":
        "ee63c39e00c87924b9bc9751c9efcb327ee3b41156e6f3ec70d8e4448ffc3672",
    "table6b/gemm-3072":
        "f4e2b9c1209474ebb175a1677027f47d51b97d40540747f49f179e94dc356324",
    "table6b/gemm-6144":
        "09e427bffac2893703e02695bde2b4789eec49faef66fd3a2e38774850b8c5fa",
    "table7/bert":
        "992719fba78beb1370220067787ec708c8c956825ae7d8b96e5955dab4357ac3",
    "table7/mlp":
        "60083c81386718525fd57d6fbac9f1c7d63a68886523f0297d93bed4aa0e676c",
    "table7/ncf":
        "2acc1df589ad67ad00e19981e3cebf7099f35bc1be30a6e5a4b3503d0b832603",
    "table7/vit":
        "e02da790d708ede08bdee747cefef1b077ab99bb87320e1dc03bcc6d92dd43e9",
    "table8/encoder-peak":
        "992719fba78beb1370220067787ec708c8c956825ae7d8b96e5955dab4357ac3",
    "table9/all-optimizations":
        "992719fba78beb1370220067787ec708c8c956825ae7d8b96e5955dab4357ac3",
    "table9/bw-optimized":
        "2c42c634e2e8ae5ac1eba874b1c8c25c2921ceda6ac77d8e35927be18f3c5b73",
    "table9/no-optimize":
        "2c42c634e2e8ae5ac1eba874b1c8c25c2921ceda6ac77d8e35927be18f3c5b73",
    "table9/pipeline-attention":
        "992719fba78beb1370220067787ec708c8c956825ae7d8b96e5955dab4357ac3",
}

#: sha256 of canonical_json(list of payloads) for each multi-point case.
BULK_DIGESTS = {
    "analytic_bandwidth_sweep":
        "0a04ec9fe7a1c2f90904b62f14315af57dbf7392aa6b248db507f24aa4eb451f",
    "chiplet-encoder/random-2411-512":
        "7c667e4aad50131522f98fec16f328cd835eafc632d8b3b788b2cfba9cbb23f7",
    "encoder-smoke@0.5":
        "63dc64a6141b99d67035bb4af37f902e8e68cdf01a849f2e993f05925f8a2e9d",
    "encoder-smoke@1.0":
        "62804074a29deecec9dfb7d98e61583d35cc9390bdab585ddc8e3364797a58d8",
    "encoder/every-11th":
        "cc91721cf02af4a0678f752ef2f9ed9f380e7d0b3a71b76172400cf6f5860332",
}

#: sha256 of canonical_json(payload) for each off-catalogue extra.
EXTRA_DIGESTS = {
    "dse_chiplet/2chip-16gbs-hop2":
        "684509ed2f0b841cb76abb6a963c6cb7cebb1df4edefcf9cfdbe9fc97be7bcc5",
    "dse_chiplet/2chip-tile384":
        "5d3b9e9596c7e339bd86f68b3544ad24ec21c68d8710a1297da31b62043a28bd",
    "dse_chiplet/3chip-256gbs-ser0.5":
        "7490bcec88d36e987fd5e7be4082c1073c3b6e2b53988e4c29ad2c5e6aa7c526",
    "dse_chiplet/defaults-l64":
        "870283e3bcc262222c598bcd36d1625fa5bf13a72e480d5e2c7d290f5eb5b954",
    "dse_encoder/sparse-l128-no-pipeline":
        "d362fbe42aa5850816ace98735e2ec3dcae22438ef2add8b46411c941ad3d26a",
    "dse_encoder/sparse-l64":
        "870283e3bcc262222c598bcd36d1625fa5bf13a72e480d5e2c7d290f5eb5b954",
    "xnn_encoder/vit-b2-l256-bw0.5":
        "89bd3da6725ed756c76f0db757889e141bc211fa7abdcd358c91bb4766cb8184",
    "xnn_feedforward/ncf-b256":
        "02222daf8ec87d1ac1f150d6697fca9b9f194b858ccef36c3f20415c17d7f6ea",
    "xnn_gemm/512x768x1024-bw2":
        "c42978bd64c83f23aafc6a0ee15c2134411158c8b4c6274c01edbaa56f896ea8",
}


def _digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def _scalar(kind):
    return REGISTRY.runner(kind, "analytic")


def _space_params(space_name, fidelity=1.0, stride=1):
    space = get_space(space_name)
    return [
        space.point_params(assignment, fidelity)
        for assignment in space.points()[::stride]
    ]


def _chiplet_sample():
    space = get_space("chiplet-encoder")
    points = random.Random(2411).sample(space.points(), 512)
    return [space.point_params(point) for point in points]


#: multi-point cases: name -> (kind, parameter sets), built lazily.
BULK_CASES = {
    "encoder-smoke@1.0": ("dse_encoder", lambda: _space_params("encoder-smoke", 1.0)),
    "encoder-smoke@0.5": ("dse_encoder", lambda: _space_params("encoder-smoke", 0.5)),
    "encoder/every-11th": ("dse_encoder", lambda: _space_params("encoder", 1.0, 11)),
    "chiplet-encoder/random-2411-512": ("dse_chiplet", _chiplet_sample),
}


def _catalogue():
    return [s for s in REGISTRY.select() if s.kind in ANALYTIC_KINDS]


def test_catalogue_is_fully_pinned():
    assert sorted(s.name for s in _catalogue()) == sorted(CATALOGUE_DIGESTS)
    assert {s.kind for s in _catalogue()} == set(ANALYTIC_KINDS)


@pytest.mark.parametrize("name", sorted(CATALOGUE_DIGESTS))
def test_catalogue_scenario_digest(name):
    scenario = REGISTRY.get(name)
    payload = _scalar(scenario.kind)(**scenario.params)
    assert _digest(payload) == CATALOGUE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BULK_CASES))
def test_bulk_digest(name):
    kind, params = BULK_CASES[name]
    params_list = params()
    scalar_fn = _scalar(kind)
    expected = BULK_DIGESTS[name]
    assert _digest([scalar_fn(**p) for p in params_list]) == expected
    batch = REGISTRY.batch_runner(kind, "analytic")
    assert _digest(list(batch(params_list))) == expected


@pytest.mark.parametrize("name", sorted(EXTRAS))
def test_extra_digest(name):
    kind, params = EXTRAS[name]
    assert _digest(_scalar(kind)(**params)) == EXTRA_DIGESTS[name]


def test_analytic_bandwidth_sweep_digest():
    points = [dataclasses.asdict(point) for point in analytic_bandwidth_sweep()]
    assert _digest(points) == BULK_DIGESTS["analytic_bandwidth_sweep"]
