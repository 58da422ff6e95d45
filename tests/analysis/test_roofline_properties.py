"""Property-based tests for the roofline invariants (requires hypothesis).

The roofline formula is the foundation both the mapping analysis and the
analytic fast-model backend stand on, so its algebraic invariants are pinned
property-style over wide input ranges:

* ``latency_s == max(compute_s, memory_s)`` exactly;
* latency is monotonically non-increasing in bandwidth and in FLOP rate;
* ``compute_bound`` is consistent with the machine-balance point;
* the multi-resource generalisation reduces to max() with a well-defined
  bottleneck;
* the analytic backend's vectorized busy times equal the channel models'
  scalar bulk transfer times and the MME/MemC rate divisions, bit for bit.

If ``hypothesis`` is not installed the module is skipped as a whole (the
invariants are still exercised pointwise by the unit suites).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based tests need the hypothesis package")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from repro.analysis.roofline import (ResourceRoofline, machine_balance,  # noqa: E402
                                     roofline_latency)
from repro.hardware.memory import ddr_channel, lpddr_channel  # noqa: E402
from repro.xnn.analytic import _busy_grids, _FrozenTally  # noqa: E402
from repro.xnn.fus.scratchpad import MEMC_COMPUTE_THROUGHPUT  # noqa: E402

#: wide but sane physical ranges: up to exa-FLOP kernels, KB/s..PB/s links.
work = st.floats(min_value=0.0, max_value=1e18, allow_nan=False,
                 allow_infinity=False)
traffic = st.floats(min_value=0.0, max_value=1e15, allow_nan=False,
                    allow_infinity=False)
rate = st.floats(min_value=1e3, max_value=1e18, allow_nan=False,
                 allow_infinity=False)
scale_up = st.floats(min_value=1.0, max_value=1e6, allow_nan=False,
                     allow_infinity=False)


class TestRooflinePointProperties:
    @given(flops=work, nbytes=traffic, achieved=rate, bandwidth=rate)
    def test_latency_is_max_of_compute_and_memory(self, flops, nbytes,
                                                  achieved, bandwidth):
        point = roofline_latency(flops, nbytes, achieved, bandwidth)
        assert point.latency_s == max(point.compute_s, point.memory_s)
        assert point.compute_s == flops / achieved
        assert point.memory_s == nbytes / bandwidth

    @given(flops=work, nbytes=traffic, achieved=rate, bandwidth=rate,
           factor=scale_up)
    def test_latency_monotone_in_bandwidth(self, flops, nbytes, achieved,
                                           bandwidth, factor):
        base = roofline_latency(flops, nbytes, achieved, bandwidth)
        faster = roofline_latency(flops, nbytes, achieved, bandwidth * factor)
        assert faster.latency_s <= base.latency_s

    @given(flops=work, nbytes=traffic, achieved=rate, bandwidth=rate,
           factor=scale_up)
    def test_latency_monotone_in_flop_rate(self, flops, nbytes, achieved,
                                           bandwidth, factor):
        base = roofline_latency(flops, nbytes, achieved, bandwidth)
        faster = roofline_latency(flops, nbytes, achieved * factor, bandwidth)
        assert faster.latency_s <= base.latency_s

    # min 1.0: with subnormal flops/bytes both time terms underflow to 0.0
    # and boundedness degenerates -- a float artifact, not a model property.
    @given(flops=st.floats(min_value=1.0, max_value=1e18),
           nbytes=st.floats(min_value=1.0, max_value=1e15),
           achieved=rate, bandwidth=rate)
    def test_compute_bound_consistent_with_machine_balance(self, flops, nbytes,
                                                           achieved, bandwidth):
        point = roofline_latency(flops, nbytes, achieved, bandwidth)
        balance = machine_balance(achieved, bandwidth)
        intensity = point.arithmetic_intensity
        # Strictly away from the balance point, boundedness is determined by
        # which side of it the kernel sits on (a relative epsilon absorbs the
        # division round-off at the boundary itself).
        if intensity > balance * (1 + 1e-9):
            assert point.compute_bound
        elif intensity < balance * (1 - 1e-9):
            assert not point.compute_bound

    @given(nbytes=traffic.filter(lambda b: b > 0), achieved=rate,
           bandwidth=rate)
    def test_at_exact_machine_balance_both_terms_agree(self, nbytes, achieved,
                                                       bandwidth):
        # Constructing the kernel *from* the balance point must land within
        # round-off of equal compute and memory time.
        flops = machine_balance(achieved, bandwidth) * nbytes
        point = roofline_latency(flops, nbytes, achieved, bandwidth)
        assert point.compute_s == pytest.approx(point.memory_s, rel=1e-9)
        assert point.latency_s == pytest.approx(point.compute_s, rel=1e-9)


class TestResourceRooflineProperties:
    busy_maps = st.dictionaries(
        keys=st.sampled_from(["ddr", "lpddr", "mme", "memc", "mesh"]),
        values=st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                         allow_infinity=False),
        min_size=1, max_size=5)

    @given(busy=busy_maps)
    def test_latency_is_max_and_bottleneck_attains_it(self, busy):
        roofline = ResourceRoofline(busy)
        assert roofline.latency_s == max(busy.values())
        assert busy[roofline.bottleneck] == roofline.latency_s

    @given(busy=busy_maps)
    def test_utilizations_are_normalised(self, busy):
        roofline = ResourceRoofline(busy)
        utilizations = roofline.utilizations()
        assert set(utilizations) == set(busy)
        for value in utilizations.values():
            assert 0.0 <= value <= 1.0
        if roofline.latency_s > 0:
            assert utilizations[roofline.bottleneck] == 1.0

    @given(busy=busy_maps, extra=st.floats(min_value=0.0, max_value=1e6,
                                           allow_nan=False, allow_infinity=False))
    def test_adding_a_resource_never_lowers_latency(self, busy, extra):
        base = ResourceRoofline(busy)
        widened = ResourceRoofline({**busy, "extra": extra})
        assert widened.latency_s >= base.latency_s

    def test_empty_and_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceRoofline({})
        with pytest.raises(ValueError):
            ResourceRoofline({"ddr": -1.0})


class TestAnalyticBusyTimes:
    """``_busy_grids`` is the analytic backend's only roofline: each cell
    must equal the scalar channel-model and rate arithmetic exactly, whatever
    else shares the batch."""

    counts = st.integers(min_value=0, max_value=10**12)
    work = st.floats(min_value=0.0, max_value=1e15, allow_nan=False,
                     allow_infinity=False)
    tallies = st.builds(_FrozenTally, counts, counts, counts, counts, counts,
                        counts, work, work)
    points = st.tuples(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                       st.floats(min_value=1e9, max_value=1e13))

    @given(data=st.data())
    def test_cells_equal_scalar_bulk_times(self, data):
        segments = data.draw(st.integers(min_value=1, max_value=3))
        batch = data.draw(st.lists(
            st.tuples(self.points,
                      st.lists(self.tallies, min_size=segments,
                               max_size=segments)),
            min_size=1, max_size=6))
        ddr = [ddr_channel(bandwidth_scale=scale) for (scale, _), _ in batch]
        lpddr = [lpddr_channel(bandwidth_scale=scale) for (scale, _), _ in batch]
        rates = np.array([[rate] for (_, rate), _ in batch])
        grids = _busy_grids([tallies for _, tallies in batch], ddr, lpddr, rates)
        for index, ((_, rate), tallies) in enumerate(batch):
            for position, tally in enumerate(tallies):
                expected = (
                    ddr[index].bulk_read_time(tally.ddr_read_bytes,
                                              tally.ddr_read_requests)
                    + ddr[index].bulk_write_time(tally.ddr_write_bytes,
                                                 tally.ddr_write_requests),
                    lpddr[index].bulk_read_time(tally.lpddr_bytes,
                                                tally.lpddr_requests),
                    tally.mme_flops_max / rate,
                    tally.memc_flops_max / MEMC_COMPUTE_THROUGHPUT,
                )
                assert tuple(float(grid[index, position])
                             for grid in grids) == expected
