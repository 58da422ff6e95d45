"""Bandwidth orchestration: load/store orderings and the bandwidth sweep.

Two pieces of the paper live here:

* Fig. 12's three ways of mapping loads and stores onto the single DDR
  channel, as an analytical model of the resulting channel idle time (the
  event-driven simulation reproduces the same effect through the DDR FU's uOP
  ordering; the analytical model is used by tests and by the ablation bench to
  reason about the expected direction).
* The Table 11 bandwidth-sensitivity sweep: re-run the BERT-Large encoder with
  the off-chip bandwidth scaled by 0.5x-3x, plus the two idealised bounds
  (infinite bandwidth and infinite compute).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from ..hardware.vck190 import VCK190, VCK190Spec
from ..workloads.layers import ModelSpec
from .codegen import CodegenOptions
from .datapath import XNNConfig

__all__ = [
    "LoadStoreOrdering",
    "ddr_busy_estimate",
    "analytic_bandwidth_sweep",
    "infinite_bandwidth_bound",
    "infinite_compute_bound",
    "BandwidthSweepPoint",
]


class LoadStoreOrdering(str, Enum):
    """The three DDR orderings of Fig. 12."""

    #: strict load -> compute -> store per output tile: the channel idles while
    #: computing and the computation stalls while storing.
    STRICT = "strict"
    #: the hardware memory controller arbitrates outstanding loads and stores
    #: non-deterministically (no application knowledge).
    HARDWARE_ARBITRATED = "hardware"
    #: RSN instructions explicitly drain stores during the next tile's load
    #: gaps (the ordering RSN-XNN uses).
    INSTRUCTION_INTERLEAVED = "interleaved"


def ddr_busy_estimate(
    load_s: float,
    store_s: float,
    compute_s: float,
    ordering: LoadStoreOrdering,
    tiles: int = 1,
) -> float:
    """Estimated time to process ``tiles`` output tiles on one DDR channel.

    ``load_s``/``store_s``/``compute_s`` are the per-tile load, store, and
    compute times.  The model captures the qualitative behaviour of Fig. 12:

    * strict ordering serialises the store with the next tile's load;
    * hardware arbitration overlaps them but with imperfect scheduling
      (modelled as recovering half of the overlap);
    * instruction-controlled interleaving hides the store entirely inside the
      next tile's load/compute window whenever it fits.
    """
    if min(load_s, store_s, compute_s) < 0:
        raise ValueError("per-tile times must be non-negative")
    # Strict ordering exposes the store after each tile; perfect instruction
    # interleaving reduces the steady state to the channel/compute floor; the
    # hardware arbiter lands in between because it lacks application knowledge.
    strict_steady = max(load_s, compute_s) + store_s
    interleaved_steady = max(load_s + store_s, compute_s)
    if ordering is LoadStoreOrdering.STRICT:
        steady = strict_steady
    elif ordering is LoadStoreOrdering.HARDWARE_ARBITRATED:
        steady = 0.5 * (strict_steady + interleaved_steady)
    else:
        steady = interleaved_steady
    # first tile has no preceding store; last store is exposed.
    return load_s + (tiles - 1) * steady + max(compute_s, store_s)


@dataclass(frozen=True)
class BandwidthSweepPoint:
    """One row of the Table 11 sweep."""

    label: str
    bandwidth_scale: Optional[float]
    latency_s: float

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


def infinite_bandwidth_bound(model: ModelSpec, achieved_flops: float) -> float:
    """Latency if off-chip bandwidth were infinite and there were no setup."""
    return model.total_flops / achieved_flops


def infinite_compute_bound(model: ModelSpec, spec: VCK190Spec = VCK190) -> float:
    """Latency if compute were infinite: pure off-chip transfer time.

    The DDR channel carries activations (loads and stores) and the LPDDR
    channel carries weights; the bound is the slower of the two.
    """
    ddr_bytes = 0.0
    lpddr_bytes = 0.0
    for layer in model.layers:
        if layer.lhs_offchip:
            ddr_bytes += layer.lhs_bytes
        if layer.rhs_offchip:
            if layer.rhs_is_weight:
                lpddr_bytes += layer.rhs_bytes
            else:
                ddr_bytes += layer.rhs_bytes
        if layer.out_offchip:
            ddr_bytes += layer.out_bytes
    ddr_time = ddr_bytes / ((spec.ddr_read_bw + spec.ddr_write_bw) / 2)
    lpddr_time = lpddr_bytes / spec.lpddr_read_bw
    return max(ddr_time, lpddr_time)


def analytic_bandwidth_sweep(
    scales: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    batch: int = 8,
    seq_len: int = 384,
    options: Optional[CodegenOptions] = None,
    base_config: Optional[XNNConfig] = None,
) -> List[BandwidthSweepPoint]:
    """The Table 11 sweep on the analytic fast-model backend.

    Each point re-runs the encoder with the off-chip bandwidth scaled by the
    factor, as a closed-form roofline lower bound instead of an event-driven
    simulation (the engine runs the paper's points as the ``table11/bw-*``
    scenarios), and the whole sweep is one batched resolution sharing a single tally --
    cheap enough to sweep hundreds of bandwidth scales interactively when
    exploring beyond the paper's four points.
    """
    from dataclasses import replace

    from ..workloads.bert import BERT_LARGE
    from .analytic import EncoderBatchEvaluator  # local: avoids a module cycle

    options = options or CodegenOptions()
    base_config = base_config or XNNConfig(carry_data=False)
    workload = ("encoder", batch, seq_len, BERT_LARGE)
    configs = [
        replace(base_config, carry_data=False, bandwidth_scale=scale)
        for scale in scales
    ]
    results = EncoderBatchEvaluator().results(
        [(config, options, workload) for config in configs]
    )
    return [
        BandwidthSweepPoint(
            label=f"{scale:g}X BW", bandwidth_scale=scale, latency_s=result.latency_s
        )
        for scale, result in zip(scales, results)
    ]
