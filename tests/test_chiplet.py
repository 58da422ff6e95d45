"""Unit tests for the multi-chip scale-out axis.

Covers the inter-chip link model, the contiguous FLOP-balancing
partitioner, the boundary-traffic accounting, the cost models, and the
chiplet payload's latency and pipeline stages -- the backend-independent building blocks whose
determinism the ``dse_chiplet`` contracts rest on.
"""

import math

import pytest

from repro.hardware.cost import design_area_luts, design_power_w
from repro.hardware.link import InterChipLink
from repro.workloads.bert import BERT_LARGE
from repro.xnn.partition import (
    ENCODER_SEGMENT_NAMES,
    EncoderPartition,
    chiplet_payload,
    encoder_boundary_bytes,
    encoder_segment_flops,
    partition_segments,
)


class TestInterChipLink:
    def test_transfer_time_sums_hop_serialization_and_wire(self):
        link = InterChipLink(bandwidth=100e9, hop_latency_s=1e-6,
                             serialization_s=2e-6)
        assert link.transfer_time(100e9) == 1e-6 + 2e-6 + 1.0

    def test_occupancy_excludes_flight_latency(self):
        link = InterChipLink(bandwidth=100e9, hop_latency_s=1e-6,
                             serialization_s=2e-6)
        assert link.occupancy_time(100e9) == 2e-6 + 1.0
        assert link.occupancy_time(100e9) < link.transfer_time(100e9)

    def test_zero_bytes_is_free(self):
        link = InterChipLink(hop_latency_s=1e-6, serialization_s=1e-6)
        assert link.transfer_time(0) == 0.0
        assert link.occupancy_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        link = InterChipLink()
        with pytest.raises(ValueError):
            link.transfer_time(-1)
        with pytest.raises(ValueError):
            link.occupancy_time(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth": 0.0},
            {"bandwidth": -1.0},
            {"hop_latency_s": -1e-9},
            {"serialization_s": -1e-9},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InterChipLink(**kwargs)

    def test_from_design_units(self):
        link = InterChipLink.from_design(link_gbs=64.0, link_hop_us=2.0,
                                         link_serialization_us=0.5)
        assert link.bandwidth == 64.0 * 1e9
        assert link.bandwidth_gbs == pytest.approx(64.0)
        assert link.hop_latency_s == 2.0 * 1e-6
        assert link.serialization_s == 0.5 * 1e-6


class TestPartitioner:
    def test_single_chip_has_no_cuts(self):
        assert partition_segments([1.0, 2.0, 3.0], 1) == ()

    def test_balanced_load_prefers_earliest_cut(self):
        # Both cuts give max load 2; the lexicographically smallest wins.
        assert partition_segments([1.0, 1.0, 1.0], 2) == (1,)

    def test_heavy_head_isolated(self):
        assert partition_segments([4.0, 1.0, 1.0], 2) == (1,)

    def test_heavy_tail_isolated(self):
        assert partition_segments([1.0, 1.0, 4.0], 2) == (2,)

    def test_three_chips_three_segments(self):
        assert partition_segments([1.0, 2.0, 3.0], 3) == (1, 2)

    def test_more_chips_than_segments_rejected(self):
        with pytest.raises(ValueError):
            partition_segments([1.0, 2.0, 3.0], 4)

    def test_nonpositive_chips_rejected(self):
        with pytest.raises(ValueError):
            partition_segments([1.0], 0)


class TestEncoderSegments:
    def test_boundary_bytes_hand_computed(self):
        # batch=1, seq=128, hidden=1024, fp32: activation = 524288 bytes;
        # the qkv boundary carries Q, K and V.
        assert encoder_boundary_bytes(1, 128) == (3 * 524288, 524288)

    def test_boundary_bytes_scale_with_shape(self):
        one = encoder_boundary_bytes(1, 128)
        assert encoder_boundary_bytes(2, 128) == (2 * one[0], 2 * one[1])
        assert encoder_boundary_bytes(1, 256) == (2 * one[0], 2 * one[1])

    def test_boundary_bytes_reject_bad_shape(self):
        with pytest.raises(ValueError):
            encoder_boundary_bytes(0, 128)
        with pytest.raises(ValueError):
            encoder_boundary_bytes(1, 0)

    def test_segment_flops_cover_the_layer_inventory(self):
        flops = encoder_segment_flops(1, 128)
        assert len(flops) == len(ENCODER_SEGMENT_NAMES)
        assert all(value > 0 for value in flops)
        # qkv: 3 projections of hidden x hidden over 128 tokens.
        tokens, hidden = 128, BERT_LARGE.hidden
        assert flops[0] == 3 * (2.0 * tokens * hidden * hidden)
        # ffn dominates: two hidden x ffn_hidden GEMMs.
        assert flops[2] == max(flops)


def _payload(segment_latency_s, cuts, boundary_bytes, link):
    """The ``dse_chiplet`` payload of one point with these segment
    latencies, cut across chips at ``cuts``."""
    partition = EncoderPartition(
        num_chips=len(cuts) + 1,
        segment_flops=(1.0,) * len(segment_latency_s),
        cuts=tuple(cuts),
        boundary_bytes=tuple(boundary_bytes),
    )
    return chiplet_payload(
        segment_latency_s=segment_latency_s, flops=1.0, ddr_bytes=0,
        lpddr_bytes=0, batch=1, partition=partition, num_mme=6,
        per_chip_peak_flops=1e12, link=link, cost=(1.0, 1.0),
    )


class TestChipletPayload:
    def test_latency_is_segments_plus_transfers(self):
        link = InterChipLink(bandwidth=1e9, hop_latency_s=1e-6)
        payload = _payload([1e-3, 2e-3, 3e-3], (2,), (1000, 2000), link)
        transfer = link.transfer_time(2000)
        assert payload["latency_s"] == pytest.approx(6e-3 + transfer)
        assert payload["link_s"] == transfer
        assert payload["link_bytes"] == 2000

    def test_max_stage_is_busiest_chip_or_link(self):
        link = InterChipLink(bandwidth=1e3)  # slow: 2000 B -> 2 s occupancy
        payload = _payload([1e-3, 2e-3, 3e-3], (2,), (1000, 2000), link)
        assert payload["max_stage_s"] == pytest.approx(2.0)
        assert payload["stage_bounds_s"]["link0"] == pytest.approx(2.0)
        assert payload["stage_bounds_s"]["chip0"] == pytest.approx(3e-3)
        assert payload["stage_bounds_s"]["chip1"] == pytest.approx(3e-3)

    def test_no_cuts_degenerates_to_serial_sum(self):
        link = InterChipLink()
        payload = _payload([1e-3, 2e-3, 3e-3], (), (1000, 2000), link)
        assert payload["latency_s"] == pytest.approx(6e-3)
        assert payload["link_bytes"] == 0
        assert payload["link_s"] == 0.0
        assert payload["max_stage_s"] == pytest.approx(6e-3)


class TestPipelineStages:
    """Each chip and each link is one contended pipeline resource."""

    def test_interval_is_busiest_stage(self):
        link = InterChipLink(bandwidth=1.0)  # 2 B -> 2 s occupancy
        payload = _payload([1.0, 3.0], (1,), (2,), link)
        assert payload["stage_bounds_s"] == {"chip0": 1.0, "chip1": 3.0,
                                             "link0": 2.0}
        assert payload["max_stage_s"] == 3.0

    def test_link_can_be_the_bottleneck(self):
        link = InterChipLink(bandwidth=1.0)  # 5 B -> 5 s occupancy
        payload = _payload([1.0, 1.0], (1,), (5,), link)
        assert payload["max_stage_s"] == 5.0
        assert payload["stage_bounds_s"]["link0"] == 5.0

    def test_stage_names(self):
        link = InterChipLink(bandwidth=2.0)
        payload = _payload([1.0, 2.0, 3.0], (1, 2), (1, 1), link)
        assert list(payload["stage_bounds_s"]) == ["chip0", "chip1", "chip2",
                                                   "link0", "link1"]


class TestCostModels:
    def test_area_matches_published_utilization_scale(self):
        # The default RSN-XNN build reports 494,855 LUTs (Table 10); the
        # model must land in its neighbourhood.
        area = design_area_luts(6, 6)
        assert 0.95 * 494_855 <= area <= 1.05 * 494_855

    def test_area_scales_linearly_with_chips(self):
        assert design_area_luts(6, 6, num_chips=2) == 2 * design_area_luts(6, 6)

    def test_area_monotone_in_fu_counts(self):
        assert design_area_luts(6, 6) > design_area_luts(3, 6)
        assert design_area_luts(6, 6) > design_area_luts(6, 3)

    def test_area_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            design_area_luts(0, 6)
        with pytest.raises(ValueError):
            design_area_luts(6, 6, num_chips=0)

    def _default_power(self, num_chips=1, link=None):
        return design_power_w(
            num_mme=6,
            num_mem_c=6,
            peak_tflops=7.6,
            memc_tflops=0.432,
            scratchpad_mb=12.0,
            offchip_gbs=65.0,
            num_chips=num_chips,
            link=link,
        )

    def test_power_matches_published_total_scale(self):
        # Table 10 reports 98.66 W for the full design.
        power = self._default_power()
        assert 0.9 * 98.66 <= power <= 1.1 * 98.66

    def test_multi_chip_power_adds_link_cost(self):
        single = self._default_power()
        link = InterChipLink.from_design(link_gbs=64.0)
        dual = self._default_power(num_chips=2, link=link)
        assert dual > 2 * single  # two chips plus a powered link
        assert math.isfinite(dual)

    def test_more_link_bandwidth_costs_more_power(self):
        slow = self._default_power(
            num_chips=2, link=InterChipLink.from_design(link_gbs=16.0))
        fast = self._default_power(
            num_chips=2, link=InterChipLink.from_design(link_gbs=256.0))
        assert fast > slow
