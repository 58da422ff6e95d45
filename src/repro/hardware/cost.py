"""Scalar design-cost helpers: area and power of one DSE design point.

The area/power models in :mod:`repro.hardware.area` and
:mod:`repro.hardware.power` are calibrated against the paper's published
tables for the *baseline* design (6 MMEs, 6 MemCs, the Fig. 16 inventory).
DSE points vary the FU counts, scratchpad depths, bandwidth scale and -- on
the chiplet axis -- the chip count, so exploration needs the same models
evaluated at arbitrary design parameters.  This module provides exactly
that, as plain-float functions so the engine runners and the batched
analytic evaluator compute bit-identical cost keys from identical inputs.

Calibration anchors (checked by the test suite):

* ``design_area_luts(6, 6)`` lands near the published 494,855 routed LUTs
  of the full RSN-XNN design (``RSN_XNN_TOTAL_UTILIZATION``).
* The MemC power term at 6 MemCs (6 x 0.072 TFLOPS x 52 W/TFLOPS ~ 22.5 W)
  lands near the paper's 22.91 W, and the full-design power at defaults
  lands near the 98.66 W total of Fig. 15.
"""

from __future__ import annotations

from typing import Optional

from .area import AreaModel
from .link import InterChipLink
from .power import FUPowerInput, PowerModel

__all__ = ["design_area_luts", "design_power_w"]

#: Soft-logic budget of one chip that does not scale with the explored FU
#: counts (mesh interconnect, DMA engines, memory controllers, platform glue).
_BASE_LUTS = 200_000

#: Routed LUTs per MemC (the wide PL-side compute FUs dominate soft logic).
_LUTS_PER_MEMC = 40_000

#: Routed LUTs per MME group's PL-side shim (the arithmetic itself is AIE).
_LUTS_PER_MME = 8_000

#: FU types feeding the decoder structure model (Table 5a's 8 PL FU types).
_DECODER_FU_TYPES = 8

#: PL-side FUs that exist regardless of the explored counts: 3 MemA, 3 MemB
#: (weight/activation scratchpads) -- MME and MemC counts are added on top.
_FIXED_FUS = 6


def design_area_luts(num_mme: int, num_mem_c: int, num_chips: int = 1) -> float:
    """Routed-LUT estimate for a design with the given FU counts.

    Multi-chip designs replicate the full per-chip design, so area scales
    linearly with ``num_chips``.
    """
    if num_mme < 1 or num_mem_c < 1 or num_chips < 1:
        raise ValueError("num_mme, num_mem_c and num_chips must be >= 1")
    decoder = AreaModel().decoder_area(
        _DECODER_FU_TYPES, num_mme + num_mem_c + _FIXED_FUS
    )
    per_chip = (
        _BASE_LUTS
        + num_mem_c * _LUTS_PER_MEMC
        + num_mme * _LUTS_PER_MME
        + decoder.luts
    )
    return float(num_chips * per_chip)


def design_power_w(
    *,
    num_mme: int,
    num_mem_c: int,
    peak_tflops: float,
    memc_tflops: float,
    scratchpad_mb: float,
    offchip_gbs: float,
    num_chips: int = 1,
    link: Optional[InterChipLink] = None,
) -> float:
    """Estimated total power in watts for one design point.

    Parameters mirror the per-chip design: ``peak_tflops`` is the chip's MME
    peak (AIE-side arithmetic), ``memc_tflops`` the aggregate MemC non-matmul
    throughput (PL-side arithmetic), ``scratchpad_mb`` the aggregate on-chip
    scratchpad capacity (MemA + MemB + MemC), and ``offchip_gbs`` the scaled
    DDR+LPDDR bandwidth.  Multi-chip designs replicate the chip inventory
    ``num_chips`` times and add one powered link per pipeline hop.
    """
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    model = PowerModel()
    inventory = (
        FUPowerInput("AIE", count=num_mme, compute_tflops=peak_tflops, on_aie=True),
        FUPowerInput("MemC", count=num_mem_c, compute_tflops=memc_tflops),
        FUPowerInput("Scratchpads", count=_FIXED_FUS, onchip_mb=scratchpad_mb),
        FUPowerInput("Mesh", count=2),
        FUPowerInput("Offchip", count=2, bandwidth_gbs=offchip_gbs),
    )
    per_chip = model.estimate(inventory).total_w
    total = num_chips * per_chip
    if link is not None and num_chips > 1:
        hops = num_chips - 1
        total = total + model.estimate_fu(
            FUPowerInput("Link", count=hops, bandwidth_gbs=hops * link.bandwidth_gbs)
        )
    return total
