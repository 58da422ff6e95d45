"""The analytic fast-model backend: roofline estimates, no event loop.

:class:`AnalyticXNN` mirrors :class:`~repro.xnn.executor.XNNExecutor`'s API
(``run_gemm`` / ``run_encoder`` / ``run_feedforward_model``) but evaluates a
closed-form *multi-resource roofline* instead of simulating the datapath:

* It replays the code generator's tiling decisions
  (:func:`~repro.xnn.tiling.plan_gemm_tiling`) and attention mapping
  (:func:`~repro.xnn.mapping.attention_mapping_type`) purely arithmetically,
  tallying exactly the off-chip transfers, MME tile products, and MemC fused
  operators the generated program would issue -- the DDR/LPDDR byte counts it
  reports are *identical* to the event-driven engine's channel counters.
* Each tallied resource (the DDR channel, the LPDDR channel, the busiest MME,
  the busiest MemC) is converted to serial busy time with the same platform
  models the engine charges time with
  (:class:`~repro.hardware.memory.MemoryChannelModel` including the
  per-request latency, :meth:`~repro.hardware.aie.AIEArrayModel.mme_flops`),
  and the segment latency is the maximum over resources
  (:class:`~repro.analysis.roofline.ResourceRoofline`).

Because every FU in the event-driven engine executes its uOPs serially, the
engine's end time can never be smaller than any single FU's total charged
time; the analytic latency is therefore a **certified lower bound** on the
cycle-level result.  What it deliberately omits -- pipeline fill/drain,
channel back-pressure, load/store ordering stalls -- is exactly the gap the
differential-validation suite (``tests/differential/``) measures and pins per
scenario.  In exchange, a full scenario evaluation costs microseconds instead
of seconds, which is what makes 1000-point design-space sweeps interactive
(``benchmarks/bench_backend_speed.py`` quantifies the speedup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.roofline import ResourceRoofline
from ..hardware.aie import AIEArrayModel, MMEGroupPlan
from ..hardware.link import InterChipLink
from ..hardware.memory import MemoryChannelModel, ddr_channel, lpddr_channel
from ..workloads.bert import BERT_LARGE, BertConfig, bert_large_encoder
from ..workloads.layers import FusedOp, MatMulLayer, ModelSpec
from .codegen import _FUSED_TO_MEMC, CodegenOptions
from .datapath import XNNConfig
from .executor import EncoderResult, SegmentResult
from .fus.scratchpad import MEMC_COMPUTE_THROUGHPUT, NONMM_FLOPS_PER_ELEMENT
from .mapping import MappingType, attention_mapping_type
from .partition import (
    EncoderPartition,
    chiplet_payload,
    design_cost,
    encoder_partition,
)
from .segmentation import SegmentKind, segment_model
from .tiling import plan_gemm_tiling

__all__ = [
    "AnalyticSegment",
    "AnalyticXNN",
    "EncoderBatchEvaluator",
    "encoder_batch_evaluator",
]

_ELEMENT_BYTES = 4  # fp32 everywhere, matching TileMessage's default dtype


@dataclass
class AnalyticSegment(SegmentResult):
    """A :class:`SegmentResult` plus the roofline diagnostics behind it.

    ``uops`` is always 0: the fast model does not build instruction streams
    (that is precisely the work it skips).  The extra fields expose what the
    engine cannot cheaply report -- which resource bounds the segment and how
    busy each one is relative to the estimated span.
    """

    bottleneck: str = ""
    bounds_s: Dict[str, float] = field(default_factory=dict)
    utilization: Dict[str, float] = field(default_factory=dict)
    mapping: str = ""


class _SegmentTally:
    """Accumulates one simulation group's transfers and per-FU work."""

    def __init__(self, config: XNNConfig):
        self.config = config
        self.ddr: MemoryChannelModel = ddr_channel(
            config.spec, bandwidth_scale=config.bandwidth_scale
        )
        self.lpddr: MemoryChannelModel = lpddr_channel(
            config.spec, bandwidth_scale=config.bandwidth_scale
        )
        self.ddr_read_bytes = 0
        self.ddr_read_requests = 0
        self.ddr_write_bytes = 0
        self.ddr_write_requests = 0
        self.lpddr_bytes = 0
        self.lpddr_requests = 0
        self.mme_flops = [0.0] * config.num_mme
        self.memc_flops = [0.0] * config.num_mem_c

    # ------------------------------------------------------------- recording

    def ddr_load(self, nbytes: int, requests: int) -> None:
        self.ddr_read_bytes += nbytes
        self.ddr_read_requests += requests

    def ddr_store(self, nbytes: int, requests: int) -> None:
        self.ddr_write_bytes += nbytes
        self.ddr_write_requests += requests

    def lpddr_load(self, nbytes: int, requests: int) -> None:
        self.lpddr_bytes += nbytes
        self.lpddr_requests += requests

    # ------------------------------------------------------------- resolving

    def roofline(self, mme_rate: float, memc_rate: float) -> ResourceRoofline:
        """Convert the tallies into per-resource busy times.

        Each bound is the exact serial occupancy the event-driven engine
        charges the corresponding FU: the channels' transfer times (including
        the fixed per-request latency), the busiest MME's accumulated tile
        products, and the busiest MemC's fused-operator arithmetic.
        """
        ddr_busy = (
            self.ddr.bulk_read_time(self.ddr_read_bytes, self.ddr_read_requests)
            + self.ddr.bulk_write_time(self.ddr_write_bytes, self.ddr_write_requests)
        )
        lpddr_busy = self.lpddr.bulk_read_time(self.lpddr_bytes, self.lpddr_requests)
        return ResourceRoofline(
            {
                "ddr": ddr_busy,
                "lpddr": lpddr_busy,
                "mme": max(self.mme_flops) / mme_rate,
                "memc": max(self.memc_flops) / memc_rate,
            }
        )

    @property
    def ddr_bytes(self) -> int:
        return self.ddr_read_bytes + self.ddr_write_bytes

    @property
    def lpddr_total_bytes(self) -> int:
        return self.lpddr_bytes


def _memc_flops_per_element(fused_ops: Tuple[FusedOp, ...], residual: bool) -> float:
    """FLOPs/element MemC charges for a GEMM layer's fused operators.

    Mirrors the code generator (softmax is excluded from GEMM layers -- it
    only occurs inside attention) and the MemC kernel's residual add.
    """
    ops = tuple(
        _FUSED_TO_MEMC[op]
        for op in fused_ops
        if op in _FUSED_TO_MEMC and op != FusedOp.SOFTMAX
    )
    per_element = sum(NONMM_FLOPS_PER_ELEMENT.get(op, 1.0) for op in ops)
    if residual:
        per_element += 1.0
    return per_element


class AnalyticXNN:
    """Closed-form latency/traffic/utilisation model of the RSN-XNN overlay.

    Drop-in analytic counterpart of :class:`~repro.xnn.executor.XNNExecutor`:
    same configuration objects, same result dataclasses, no event loop.
    """

    def __init__(
        self,
        config: Optional[XNNConfig] = None,
        options: Optional[CodegenOptions] = None,
    ):
        self.config = config or XNNConfig(carry_data=False)
        self.options = options or CodegenOptions()
        self.aie = AIEArrayModel(
            self.config.spec, MMEGroupPlan(num_groups=self.config.num_mme)
        )
        # Mirror XNNDatapath's feasibility check: the fast model must reject
        # exactly the configurations the engine cannot build, or a design-space
        # search on the analytic proxy could "find" un-buildable winners.
        self.aie.validate_plan()
        #: achieved FLOP/s of one MME FU -- identical to the rate the engine's
        #: MME kernels charge compute with.
        self.mme_rate = self.aie.mme_flops(self.config.mme_tile_shape)

    # -------------------------------------------------------------- tallying

    def _tally_gemm(
        self, tally: _SegmentTally, layer: MatMulLayer, residual: bool = False
    ) -> None:
        """Replay ``ProgramBuilder.add_gemm_layer``'s transfer inventory."""
        if layer.num != 1:
            raise ValueError(
                f"layer {layer.name!r} has num={layer.num}; "
                "multi-instance layers are attention-style"
            )
        options = self.options
        m, k, n = layer.m, layer.k, layer.n
        tiling = plan_gemm_tiling(
            m,
            k,
            n,
            num_mme=self.config.num_mme,
            tile_m=options.tile_m,
            tile_k=options.tile_k,
            super_n=options.super_n,
        )
        n_m = len(tiling.m_blocks)
        n_k = len(tiling.k_blocks)
        n_j = len(tiling.n_super_blocks)
        active_total = sum(len(columns) for columns in tiling.mme_columns)

        # LHS tiles: reloaded once per output super-column, one transfer per
        # (row block, super-column, K step).
        tally.ddr_load(m * k * _ELEMENT_BYTES * n_j, n_m * n_j * n_k)
        if residual:
            # One residual tile per (row block, super-column, active MME).
            tally.ddr_load(m * n * _ELEMENT_BYTES, n_m * active_total)
        # Output stores: one per (row block, super-column, active MME).
        tally.ddr_store(m * n * _ELEMENT_BYTES, n_m * active_total)
        # RHS weights from LPDDR: reloaded once per row block, one transfer
        # per (row block, super-column, K step, active MME).
        tally.lpddr_load(k * n * _ELEMENT_BYTES * n_m, n_m * n_k * active_total)

        memc_per_element = _memc_flops_per_element(layer.fused_ops, residual)
        for columns in tiling.mme_columns:
            for g, column in enumerate(columns):
                # Accumulated over all row blocks: 2*m*k FLOPs per output
                # column element; MemC g post-processes MME g's columns.
                tally.mme_flops[g] += 2.0 * m * k * column.size
                tally.memc_flops[g] += memc_per_element * m * column.size

    def _tally_attention(
        self, tally: _SegmentTally, seq_len: int, head_dim: int, num_heads: int
    ) -> None:
        """Replay ``ProgramBuilder.add_attention``'s transfer inventory."""
        head_tile = seq_len * head_dim * _ELEMENT_BYTES
        score_tile = seq_len * seq_len * _ELEMENT_BYTES
        mm_flops = 2.0 * seq_len * head_dim * seq_len   # MM1 == MM2 FLOPs
        softmax_flops = (
            (NONMM_FLOPS_PER_ELEMENT["scale"] + NONMM_FLOPS_PER_ELEMENT["softmax"])
            * seq_len
            * seq_len
        )
        num_mme = self.config.num_mme

        if self.options.pipeline_attention:
            # Heads run in groups of num_mme//2: head slot i computes MM1 on
            # MME i and MM2 on MME half+i; scores never leave the chip.
            half = max(1, num_mme // 2)
            mm2_base = half if num_mme >= 2 * half else 0
            tally.ddr_load(3 * num_heads * head_tile, 3 * num_heads)  # Q, K, V
            tally.ddr_store(num_heads * head_tile, num_heads)
            for head in range(num_heads):
                slot = head % half
                tally.mme_flops[slot] += mm_flops
                tally.mme_flops[mm2_base + slot] += mm_flops
                tally.memc_flops[slot] += softmax_flops
        else:
            # Task-by-task: every head's scores round-trip through DDR.
            tally.ddr_load(2 * num_heads * head_tile, 2 * num_heads)  # Q, K
            tally.ddr_store(num_heads * score_tile, num_heads)
            tally.ddr_load(num_heads * (score_tile + head_tile), 2 * num_heads)
            tally.ddr_store(num_heads * head_tile, num_heads)
            for head in range(num_heads):
                g = head % num_mme
                tally.mme_flops[g] += 2.0 * mm_flops
                tally.memc_flops[g] += softmax_flops

    # ------------------------------------------------------------- resolving

    def _close_segment(
        self, tally: _SegmentTally, name: str, flops: float, mapping: str = ""
    ) -> AnalyticSegment:
        roofline = tally.roofline(self.mme_rate, MEMC_COMPUTE_THROUGHPUT)
        return AnalyticSegment(
            name=name,
            latency_s=roofline.latency_s,
            flops=flops,
            ddr_bytes=tally.ddr_bytes,
            lpddr_bytes=tally.lpddr_total_bytes,
            uops=0,
            bottleneck=roofline.bottleneck,
            bounds_s=dict(roofline.busy_s),
            utilization=roofline.utilizations(),
            mapping=mapping,
        )

    def _fresh_tally(self) -> _SegmentTally:
        return _SegmentTally(self.config)

    # ------------------------------------------------------------ single GEMM

    def run_gemm(
        self, m: int, k: int, n: int, fused_ops: Tuple[FusedOp, ...] = ()
    ) -> AnalyticSegment:
        """Estimate one GEMM layer end to end (the Table 6b path)."""
        layer = MatMulLayer("gemm", m=m, k=k, n=n, fused_ops=fused_ops)
        tally = self._fresh_tally()
        self._tally_gemm(tally, layer)
        return self._close_segment(
            tally, "gemm", layer.flops, mapping=MappingType.TASK_PARALLEL.value
        )

    # --------------------------------------------------------------- encoder

    def encoder_segments(
        self, batch: int = 6, seq_len: int = 512, config: BertConfig = BERT_LARGE
    ) -> Tuple[str, List[Tuple[str, "_SegmentTally", float, str]]]:
        """Tally the encoder's three simulation groups without resolving them.

        Returns ``(model name, [(segment name, tally, flops, mapping), ...])``.
        This is the bandwidth-independent half of :meth:`run_encoder`: the
        tallies depend on the workload shape, the tiling/mapping options, and
        the FU counts, but *not* on channel bandwidths -- which is what lets
        :class:`EncoderBatchEvaluator` share them across design points that
        differ only in bandwidth or scratchpad depth.
        """
        spec = bert_large_encoder(batch=batch, seq_len=seq_len, config=config)
        layer = {lyr.name: lyr for lyr in spec.layers}

        pipelined_pairs = {
            tuple(lyr.name for lyr in segment.layers)
            for segment in segment_model(spec, self.config.spec)
            if segment.kind is SegmentKind.PIPELINED
        }
        attention_pipelined = (
            self.options.pipeline_attention
            and ("attention_mm1", "attention_mm2") in pipelined_pairs
        )
        mapping = attention_mapping_type(attention_pipelined).value
        segments: List[Tuple[str, _SegmentTally, float, str]] = []

        # ---- group 1: Key / Query / Value projections --------------------
        tally = self._fresh_tally()
        for name in ("query", "key", "value"):
            self._tally_gemm(tally, layer[name])
        qkv_flops = sum(layer[n].flops for n in ("query", "key", "value"))
        segments.append(("qkv", tally, qkv_flops, ""))

        # ---- group 2: attention heads + dense projection ------------------
        tally = self._fresh_tally()
        self._tally_attention(
            tally,
            seq_len=seq_len,
            head_dim=config.head_dim,
            num_heads=batch * config.heads,
        )
        self._tally_gemm(tally, layer["dense"], residual=True)
        attention_flops = (
            layer["attention_mm1"].flops
            + layer["attention_mm2"].flops
            + layer["dense"].flops
        )
        segments.append(("attention+dense", tally, attention_flops, mapping))

        # ---- group 3: feed-forward network --------------------------------
        tally = self._fresh_tally()
        self._tally_gemm(tally, layer["ffn_mm1"])
        self._tally_gemm(tally, layer["ffn_mm2"], residual=True)
        ffn_flops = layer["ffn_mm1"].flops + layer["ffn_mm2"].flops
        segments.append(("ffn", tally, ffn_flops, ""))
        return spec.name, segments

    def run_encoder(
        self, batch: int = 6, seq_len: int = 512, config: BertConfig = BERT_LARGE
    ) -> EncoderResult:
        """Estimate one transformer encoder layer, segment by segment.

        The three simulation groups mirror the engine executor exactly (QKV
        projections, attention + dense, feed-forward), so per-segment traffic
        is comparable byte for byte.  The attention segment is labelled with
        the Fig. 3 mapping type the codegen options select, cross-checked
        against the model-segmentation decision (the pipelined mapping is only
        meaningful when the segmenter would pipeline the attention pair).
        """
        name, segments = self.encoder_segments(
            batch=batch, seq_len=seq_len, config=config
        )
        result = EncoderResult(name=name, batch=batch)
        for segment_name, tally, flops, mapping in segments:
            result.segments.append(
                self._close_segment(tally, segment_name, flops, mapping=mapping)
            )
        return result

    # ----------------------------------------------------------- plain models

    def run_feedforward_model(self, model: ModelSpec) -> EncoderResult:
        """Estimate a pure-GEMM model (NCF, MLP): layers chained through DDR."""
        tally = self._fresh_tally()
        total_flops = 0.0
        for model_layer in model.layers:
            self._tally_gemm(tally, model_layer)
            total_flops += model_layer.flops
        result = EncoderResult(name=model.name, batch=model.batch)
        result.segments.append(self._close_segment(tally, model.name, total_flops))
        return result


# ------------------------------------------------------------ batch evaluation


@dataclass(frozen=True)
class _FrozenTally:
    """The numbers of one :class:`_SegmentTally`, detached for safe sharing."""

    ddr_read_bytes: int
    ddr_read_requests: int
    ddr_write_bytes: int
    ddr_write_requests: int
    lpddr_bytes: int
    lpddr_requests: int
    mme_flops_max: float
    memc_flops_max: float

    @classmethod
    def freeze(cls, tally: _SegmentTally) -> "_FrozenTally":
        return cls(
            ddr_read_bytes=tally.ddr_read_bytes,
            ddr_read_requests=tally.ddr_read_requests,
            ddr_write_bytes=tally.ddr_write_bytes,
            ddr_write_requests=tally.ddr_write_requests,
            lpddr_bytes=tally.lpddr_bytes,
            lpddr_requests=tally.lpddr_requests,
            mme_flops_max=max(tally.mme_flops),
            memc_flops_max=max(tally.memc_flops),
        )


@dataclass(frozen=True)
class _SegmentSet:
    """One memoized encoder evaluation's bandwidth-independent half.

    Everything :meth:`AnalyticXNN.run_encoder` derives per segment except the
    roofline resolution: the frozen tallies, the segment names and mapping
    labels, the per-segment FLOP counts, and their list-order fold into the
    encoder total.
    """

    model_name: str
    names: Tuple[str, ...]
    mappings: Tuple[str, ...]
    tallies: Tuple[_FrozenTally, ...]
    flops: Tuple[float, ...]
    total_flops: float


def _busy_grids(
    tallies_per_point: Sequence[Sequence[_FrozenTally]],
    ddr_models: Sequence[MemoryChannelModel],
    lpddr_models: Sequence[MemoryChannelModel],
    mme_rate_column: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-(point, segment) resource busy times.

    Exactly :meth:`_SegmentTally.roofline`'s expressions evaluated
    elementwise over a whole generation: the channels' bulk transfer times
    (including the per-request latency and the empty-transfer zero), the
    busiest MME's accumulated FLOPs over its rate, and the busiest MemC's
    arithmetic over the MemC throughput.  Elementwise IEEE-754 float64 ops
    are bit-exact either way, so each cell equals the scalar busy time.
    """
    count = len(tallies_per_point)
    segments = len(tallies_per_point[0])
    shape = (count, segments)

    def grid(attr: str) -> np.ndarray:
        return np.array(
            [
                [getattr(tally, attr) for tally in tallies]
                for tallies in tallies_per_point
            ],
            dtype=np.float64,
        )

    def column(attr: str, models: Sequence[MemoryChannelModel]) -> np.ndarray:
        return np.array(
            [getattr(model, attr) for model in models], dtype=np.float64
        ).reshape(count, 1)

    read_bytes = grid("ddr_read_bytes")
    read_requests = grid("ddr_read_requests")
    write_bytes = grid("ddr_write_bytes")
    write_requests = grid("ddr_write_requests")
    lpddr_bytes = grid("lpddr_bytes")
    lpddr_requests = grid("lpddr_requests")
    mme_max = grid("mme_flops_max")
    memc_max = grid("memc_flops_max")

    ddr_read_bw = column("effective_read_bw", ddr_models)
    ddr_write_bw = column("effective_write_bw", ddr_models)
    ddr_latency = column("request_latency", ddr_models)
    lpddr_bw = column("effective_read_bw", lpddr_models)
    lpddr_latency = column("request_latency", lpddr_models)

    def bulk_time(
        nbytes: np.ndarray,
        requests: np.ndarray,
        bandwidth: np.ndarray,
        latency: np.ndarray,
    ) -> np.ndarray:
        # MemoryChannelModel._bulk_time, elementwise: latency + nbytes/bw
        # + (requests-1)*latency, and exactly 0.0 for empty transfers.
        busy = latency + nbytes / bandwidth + (requests - 1.0) * latency
        return np.where((nbytes == 0.0) | (requests == 0.0), np.zeros(shape), busy)

    ddr_busy = (
        bulk_time(read_bytes, read_requests, ddr_read_bw, ddr_latency)
        + bulk_time(write_bytes, write_requests, ddr_write_bw, ddr_latency)
    )
    lpddr_busy = bulk_time(lpddr_bytes, lpddr_requests, lpddr_bw, lpddr_latency)
    mme_busy = mme_max / mme_rate_column
    memc_busy = memc_max / MEMC_COMPUTE_THROUGHPUT
    return ddr_busy, lpddr_busy, mme_busy, memc_busy


#: the ``dse_encoder`` runner defaults, mirrored so the batch path resolves
#: partially specified design points exactly like the scalar runner signature.
_DSE_DEFAULTS: Dict[str, Any] = {
    "batch": 1,
    "seq_len": 128,
    "model": "bert_large",
    "num_mme": 6,
    "mem_b_bytes": 1024 * 1024,
    "bandwidth_scale": 1.0,
    "pipeline_attention": True,
    "tile_m": 768,
    "tile_k": 128,
    "super_n": 1024,
}

#: the ``dse_chiplet`` runner defaults: everything ``dse_encoder`` takes,
#: plus the scale-out axes (chip count and inter-chip link parameters).
_CHIPLET_DEFAULTS: Dict[str, Any] = dict(_DSE_DEFAULTS)
_CHIPLET_DEFAULTS.update(
    {
        "num_chips": 1,
        "link_gbs": 64.0,
        "link_hop_us": 1.0,
        "link_serialization_us": 0.0,
    }
)

#: the chiplet-only keys, stripped before the shared single-chip evaluation
#: (none of them changes a tally or a per-segment roofline).
_CHIPLET_ONLY = ("num_chips", "link_gbs", "link_hop_us", "link_serialization_us")


@dataclass
class _BatchRows:
    """The shared per-generation state behind one batched evaluation.

    Everything the payload constructors need, per point: the resolved
    parameters, the (feasible) probe config and its memo key, the frozen
    tallies, and the vectorized roofline results -- plus the per-call memo
    tables of the values many points share (encoder configs by model name,
    ``design_cost`` results).  The tables live as long as the batch call, so
    memory stays bounded by one generation's distinct keys.
    """

    params: List[Dict[str, Any]]
    probes: List[XNNConfig]
    probe_keys: List[Tuple[Any, ...]]
    tallies_per_point: List[List[_FrozenTally]]
    total_flops: np.ndarray
    peak_flops: np.ndarray
    num_mme_column: List[int]
    segment_latency: np.ndarray
    latency: np.ndarray
    achieved: np.ndarray
    utilization: np.ndarray
    encoders: Dict[str, BertConfig]
    costs: Dict[Tuple[Any, ...], Tuple[float, float]] = field(default_factory=dict)

    def cost(
        self,
        index: int,
        per_chip_peak: float,
        num_chips: int = 1,
        link: Optional[InterChipLink] = None,
    ) -> Tuple[float, float]:
        """:func:`design_cost` of one point, once per (probe, peak, chip
        count, link) key of the batch."""
        key = (self.probe_keys[index], per_chip_peak, num_chips, link)
        cost = self.costs.get(key)
        if cost is None:
            cost = self.costs[key] = design_cost(
                self.probes[index], per_chip_peak, num_chips=num_chips, link=link
            )
        return cost


class EncoderBatchEvaluator:
    """Vectorized evaluation of whole generations of encoder design points.

    The scalar proxy path costs milliseconds per point: every evaluation
    materialises an ad-hoc scenario, re-validates the MME plan, re-builds the
    workload, and re-walks the tiling loops -- even though a search generation
    contains many points that differ only in bandwidth scale or scratchpad
    depth, neither of which changes a single tally.  This evaluator splits
    the work accordingly:

    1. **Memoized tallies** -- :meth:`AnalyticXNN.encoder_segments` runs once
       per unique (workload shape, tiling/mapping options, MME count) and is
       shared by every point of the generation (and of later generations:
       the evaluator is long-lived).  Because the memo stores the *result* of
       the exact scalar code path, accumulation order -- and therefore every
       floating-point bit -- matches the scalar evaluation.
    2. **Per-call invariants** -- the probe config and channel models, the
       codegen options, the encoder config, and (for chiplet points) the
       partition, link and ``design_cost`` are each built once per distinct
       value of the parameters they read, in tables that live for one batch
       call.
    3. **Vectorized rooflines** -- the per-point, bandwidth-dependent half
       (channel busy times, resource maxima, latency/utilisation payload
       arithmetic) is evaluated as NumPy float64 arrays over the whole
       generation, expression-for-expression identical to the scalar
       formulas (elementwise IEEE-754 ops are bit-exact either way).

    The contract -- every payload equals the scalar path's payload exactly --
    is pinned by ``tests/differential/test_batched_analytic.py``.
    """

    def __init__(self):
        #: (spec, num_mme, num_mem_c, tile_shape, options) -> AnalyticXNN
        self._models: Dict[Tuple[Any, ...], AnalyticXNN] = {}
        #: (model key, batch, seq_len, bert config) -> frozen segment data
        self._segments: Dict[Tuple[Any, ...], _SegmentSet] = {}
        #: (model key, m, k, n) -> frozen single-GEMM tally + FLOPs
        self._gemm_tallies: Dict[Tuple[Any, ...], Tuple[_FrozenTally, float]] = {}
        #: hits/misses of the segment-tally memo, for benchmarks and tests.
        self.tally_hits = 0
        self.tally_misses = 0

    # ------------------------------------------------------------ resolution

    def _model_for(
        self,
        spec,
        num_mme: int,
        num_mem_c: int,
        mme_tile_shape: Tuple[int, int, int],
        options: CodegenOptions,
    ) -> AnalyticXNN:
        key = (spec, num_mme, num_mem_c, mme_tile_shape, options)
        model = self._models.get(key)
        if model is None:
            config = XNNConfig(
                num_mme=num_mme,
                num_mem_c=num_mem_c,
                mme_tile_shape=mme_tile_shape,
                carry_data=False,
                spec=spec,
            )
            # AnalyticXNN.__init__ validates the MME plan; only *feasible*
            # models are memoized, so infeasible points raise identically
            # to the scalar path on every evaluation.
            model = AnalyticXNN(config=config, options=options)
            self._models[key] = model
        return model

    def _segments_for(
        self, model: AnalyticXNN, batch: int, seq_len: int, config: BertConfig
    ) -> _SegmentSet:
        key = (
            model.config.spec,
            model.config.num_mme,
            model.config.num_mem_c,
            model.config.mme_tile_shape,
            model.options,
            batch,
            seq_len,
            config,
        )
        cached = self._segments.get(key)
        if cached is not None:
            self.tally_hits += 1
            return cached
        self.tally_misses += 1
        model_name, segments = model.encoder_segments(
            batch=batch, seq_len=seq_len, config=config
        )
        flops = tuple(segment_flops for _, _, segment_flops, _ in segments)
        # result.flops is sum(segment.flops) -- fold in list order so the
        # scalar EncoderResult sum is reproduced bit for bit.
        total_flops = 0.0
        for segment_flops in flops:
            total_flops += segment_flops
        cached = _SegmentSet(
            model_name=model_name,
            names=tuple(name for name, _, _, _ in segments),
            mappings=tuple(mapping for _, _, _, mapping in segments),
            tallies=tuple(_FrozenTally.freeze(tally) for _, tally, _, _ in segments),
            flops=flops,
            total_flops=total_flops,
        )
        self._segments[key] = cached
        return cached

    def _gemm_tally_for(
        self, model: AnalyticXNN, m: int, k: int, n: int
    ) -> Tuple[_FrozenTally, float]:
        """The frozen tally and FLOP count of one bare GEMM, memoized."""
        key = (
            model.config.spec,
            model.config.num_mme,
            model.config.num_mem_c,
            model.config.mme_tile_shape,
            model.options,
            m,
            k,
            n,
        )
        cached = self._gemm_tallies.get(key)
        if cached is not None:
            self.tally_hits += 1
            return cached
        self.tally_misses += 1
        # The exact layer AnalyticXNN.run_gemm builds (the runner layer never
        # passes fused ops), tallied through the same code path.
        layer = MatMulLayer("gemm", m=m, k=k, n=n)
        tally = model._fresh_tally()
        model._tally_gemm(tally, layer)
        cached = (_FrozenTally.freeze(tally), layer.flops)
        self._gemm_tallies[key] = cached
        return cached

    # ------------------------------------------------------------ evaluation

    def _rows(
        self, param_sets: Sequence[Mapping[str, Any]], encoder_config
    ) -> _BatchRows:
        """Resolve parameters and run the vectorized rooflines for one batch.

        The shared core of :meth:`evaluate_batch` and
        :meth:`evaluate_chiplet_batch`: every array it fills is computed with
        exactly the expressions the scalar path uses (see the class
        docstring for why that makes the results bit-identical).  The probe
        config and channel models are built once per ``(num_mme,
        mem_b_bytes, bandwidth_scale)``, the codegen options once per tiling
        tuple, and the encoder config once per model name.
        """
        count = len(param_sets)
        resolved: List[Dict[str, Any]] = []
        probes: List[XNNConfig] = []
        probe_keys: List[Tuple[Any, ...]] = []
        tallies_per_point: List[List[_FrozenTally]] = []
        total_flops = np.empty(count)
        mme_rate = np.empty(count)
        peak_flops = np.empty(count)
        num_mme_column = []
        ddr_models: List[MemoryChannelModel] = []
        lpddr_models: List[MemoryChannelModel] = []
        # Per-call memo tables, keyed by the parameters each value reads.
        options_by_tiling: Dict[Tuple[Any, ...], CodegenOptions] = {}
        channels_by_probe: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        encoders: Dict[str, BertConfig] = {}
        for index, raw in enumerate(param_sets):
            params = dict(_DSE_DEFAULTS)
            params.update(raw)
            # Same validated construction hooks as the scalar _dse_design:
            # with_overrides rejects unknown knobs, XNNConfig.__post_init__
            # rejects bad counts/depths, AnalyticXNN validates the MME plan.
            tiling = (
                params["pipeline_attention"],
                params["tile_m"],
                params["tile_k"],
                params["super_n"],
            )
            options = options_by_tiling.get(tiling)
            if options is None:
                options = options_by_tiling[tiling] = CodegenOptions.with_overrides(
                    pipeline_attention=tiling[0],
                    tile_m=tiling[1],
                    tile_k=tiling[2],
                    super_n=tiling[3],
                )
            num_mme = params["num_mme"]
            probe_key = (num_mme, params["mem_b_bytes"], params["bandwidth_scale"])
            channels = channels_by_probe.get(probe_key)
            if channels is None:
                probe = XNNConfig(
                    num_mme=num_mme,
                    num_mem_c=num_mme,
                    mem_b_bytes=params["mem_b_bytes"],
                    bandwidth_scale=params["bandwidth_scale"],
                    carry_data=False,
                )
                channels = channels_by_probe[probe_key] = (
                    probe,
                    ddr_channel(probe.spec, bandwidth_scale=probe.bandwidth_scale),
                    lpddr_channel(probe.spec, bandwidth_scale=probe.bandwidth_scale),
                )
            probe, ddr_model, lpddr_model = channels
            model = self._model_for(
                probe.spec, num_mme, num_mme, probe.mme_tile_shape, options
            )
            model_name = params["model"]
            encoder = encoders.get(model_name)
            if encoder is None:
                encoder = encoders[model_name] = encoder_config(model_name)
            segment_set = self._segments_for(
                model, params["batch"], params["seq_len"], encoder
            )
            resolved.append(params)
            probes.append(probe)
            probe_keys.append(probe_key)
            tallies_per_point.append(list(segment_set.tallies))
            total_flops[index] = segment_set.total_flops
            mme_rate[index] = model.mme_rate
            peak_flops[index] = num_mme * model.mme_rate
            num_mme_column.append(num_mme)
            ddr_models.append(ddr_model)
            lpddr_models.append(lpddr_model)

        segments = len(tallies_per_point[0])
        ddr_busy, lpddr_busy, mme_busy, memc_busy = _busy_grids(
            tallies_per_point, ddr_models, lpddr_models, mme_rate.reshape(count, 1)
        )

        # ResourceRoofline.latency_s: the max over resources (order-free).
        segment_latency = np.maximum(
            np.maximum(ddr_busy, lpddr_busy), np.maximum(mme_busy, memc_busy)
        )
        # EncoderResult.latency_s: sum over segments in list order; float
        # addition starting from 0.0 folds identically to a left-to-right
        # pairwise chain, so cumulative add matches sum() exactly.
        latency = np.zeros(count)
        for segment_index in range(segments):
            latency = latency + segment_latency[:, segment_index]

        with np.errstate(divide="ignore", invalid="ignore"):
            achieved = np.where(latency > 0.0, total_flops / latency / 1e12, 0.0)
            utilization = np.where(
                latency > 0.0, total_flops / latency / peak_flops, 0.0
            )

        return _BatchRows(
            params=resolved,
            probes=probes,
            probe_keys=probe_keys,
            tallies_per_point=tallies_per_point,
            total_flops=total_flops,
            peak_flops=peak_flops,
            num_mme_column=num_mme_column,
            segment_latency=segment_latency,
            latency=latency,
            achieved=achieved,
            utilization=utilization,
            encoders=encoders,
        )

    @staticmethod
    def _traffic(rows: _BatchRows, index: int) -> Tuple[int, int]:
        """(ddr, lpddr) byte totals of one point, summed like the scalar path."""
        ddr_bytes_total = 0
        lpddr_bytes_total = 0
        for tally in rows.tallies_per_point[index]:
            ddr_bytes_total += tally.ddr_read_bytes + tally.ddr_write_bytes
            lpddr_bytes_total += tally.lpddr_bytes
        return ddr_bytes_total, lpddr_bytes_total

    def _encoder_payload(self, rows: _BatchRows, index: int) -> Dict[str, Any]:
        """One point's ``dse_encoder`` payload from the shared batch rows."""
        ddr_bytes_total, lpddr_bytes_total = self._traffic(rows, index)
        latency_s = float(rows.latency[index])
        power_w, area_luts = rows.cost(index, float(rows.peak_flops[index]))
        batch = rows.params[index]["batch"]
        return {
            "latency_s": latency_s,
            "latency_ms": float(rows.latency[index] * 1e3),
            "flops": float(rows.total_flops[index]),
            "ddr_bytes": ddr_bytes_total,
            "lpddr_bytes": lpddr_bytes_total,
            "offchip_bytes": ddr_bytes_total + lpddr_bytes_total,
            "achieved_tflops": float(rows.achieved[index]),
            "utilization": float(rows.utilization[index]),
            "num_mme": rows.num_mme_column[index],
            "pipeline_tasks_per_s": (batch / latency_s) if latency_s else 0.0,
            "power_w": power_w,
            "area_luts": area_luts,
            "energy_j": power_w * latency_s,
        }

    def evaluate_batch(
        self, param_sets: Sequence[Mapping[str, Any]], encoder_config
    ) -> List[Dict[str, Any]]:
        """Evaluate many ``dse_encoder`` parameter sets in one pass.

        ``encoder_config`` maps a model name to its :class:`BertConfig`
        (injected by the runner layer so the supported-model catalogue cannot
        diverge between the scalar and batched paths).  Returns one payload
        dict per parameter set, in order, each exactly equal to what the
        scalar ``dse_encoder`` analytic runner returns for the same params.
        """
        if not param_sets:
            return []
        rows = self._rows(param_sets, encoder_config)
        return [
            self._encoder_payload(rows, index) for index in range(len(rows.params))
        ]

    def evaluate_chiplet_batch(
        self, param_sets: Sequence[Mapping[str, Any]], encoder_config
    ) -> List[Dict[str, Any]]:
        """Evaluate many ``dse_chiplet`` parameter sets in one pass.

        The chiplet-only axes (chip count, link parameters) change no tally
        and no per-segment roofline, so all points share the single-chip
        vectorized evaluation; the multi-chip combination on top is the same
        pure-float :func:`~repro.xnn.partition.chiplet_payload` call the
        scalar runners make, fed a partition built once per ``(batch,
        seq_len, model, num_chips)``, a link once per link triple, and a
        ``design_cost`` once per ``(probe, peak, num_chips, link)``.
        ``num_chips=1`` rows take the exact ``dse_encoder`` payload path,
        preserving the single-chip byte-identity contract through the
        batched proxy as well.
        """
        if not param_sets:
            return []
        resolved: List[Dict[str, Any]] = []
        base_sets: List[Dict[str, Any]] = []
        for raw in param_sets:
            params = dict(_CHIPLET_DEFAULTS)
            params.update(raw)
            resolved.append(params)
            base_sets.append(
                {
                    key: value
                    for key, value in params.items()
                    if key not in _CHIPLET_ONLY
                }
            )
        rows = self._rows(base_sets, encoder_config)
        partitions: Dict[Tuple[Any, ...], EncoderPartition] = {}
        links: Dict[Tuple[Any, ...], InterChipLink] = {}
        payloads: List[Dict[str, Any]] = []
        for index, params in enumerate(resolved):
            num_chips = params["num_chips"]
            if num_chips == 1:
                payloads.append(self._encoder_payload(rows, index))
                continue
            link_key = (
                params["link_gbs"],
                params["link_hop_us"],
                params["link_serialization_us"],
            )
            link = links.get(link_key)
            if link is None:
                link = links[link_key] = InterChipLink.from_design(*link_key)
            batch = params["batch"]
            shape_key = (batch, params["seq_len"], params["model"], num_chips)
            partition = partitions.get(shape_key)
            if partition is None:
                partition = partitions[shape_key] = encoder_partition(
                    batch,
                    params["seq_len"],
                    num_chips,
                    config=rows.encoders[params["model"]],
                )
            per_chip_peak = float(rows.peak_flops[index])
            ddr_bytes_total, lpddr_bytes_total = self._traffic(rows, index)
            payloads.append(
                chiplet_payload(
                    segment_latency_s=rows.segment_latency[index].tolist(),
                    flops=float(rows.total_flops[index]),
                    ddr_bytes=ddr_bytes_total,
                    lpddr_bytes=lpddr_bytes_total,
                    batch=batch,
                    partition=partition,
                    num_mme=rows.num_mme_column[index],
                    per_chip_peak_flops=per_chip_peak,
                    link=link,
                    cost=rows.cost(index, per_chip_peak, num_chips, link),
                )
            )
        return payloads

    def batch_size_costs(
        self, base_params: Mapping[str, Any], batch_sizes: Sequence[int], encoder_config
    ) -> Dict[int, Dict[str, Any]]:
        """Cost one design point across a range of serving batch sizes.

        The serving simulator's per-dispatch cost function: every batch a
        batching policy forms is priced as one ``dse_encoder`` evaluation of
        ``base_params`` with ``batch`` overridden.  All sizes are evaluated
        in a single :meth:`evaluate_batch` pass (shared tallies, one
        vectorized roofline), so a whole cost table for a serving run is a
        handful of milliseconds warm.  Returns ``{batch_size: payload}`` with
        payloads exactly equal to the scalar ``dse_encoder`` runner's.
        """
        sizes = sorted(set(int(size) for size in batch_sizes))
        if any(size < 1 for size in sizes):
            raise ValueError(f"batch sizes must be >= 1, got {sizes}")
        param_sets = [{**dict(base_params), "batch": size} for size in sizes]
        payloads = self.evaluate_batch(param_sets, encoder_config)
        return dict(zip(sizes, payloads))

    # --------------------------------------------- catalogue-kind evaluation

    def _roofline_at(
        self,
        busy: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        index: int,
        position: int,
    ) -> ResourceRoofline:
        """One (point, segment) cell resolved through the scalar roofline.

        Constructing the same ``{ddr, lpddr, mme, memc}`` mapping the scalar
        :meth:`_SegmentTally.roofline` builds -- from bit-identical busy
        times -- reproduces not just the latency but the *bottleneck
        tie-break* (first maximum in mapping order) and the utilization dict
        exactly.
        """
        ddr_busy, lpddr_busy, mme_busy, memc_busy = busy
        return ResourceRoofline(
            {
                "ddr": float(ddr_busy[index, position]),
                "lpddr": float(lpddr_busy[index, position]),
                "mme": float(mme_busy[index, position]),
                "memc": float(memc_busy[index, position]),
            }
        )

    def encoder_results(
        self,
        points: Sequence[Tuple[XNNConfig, CodegenOptions, int, int, BertConfig]],
    ) -> List[EncoderResult]:
        """Batched ``xnn_encoder`` evaluation, one :class:`EncoderResult` each.

        ``points`` holds ``(config, options, batch, seq_len, bert_config)``
        tuples -- exactly the objects the scalar analytic runner constructs.
        The bandwidth-independent tallies are memoized across points and
        calls; the busy times are vectorized; each segment is then resolved
        through the scalar :class:`ResourceRoofline`, so every
        :class:`AnalyticSegment` (names, mappings, diagnostics included)
        equals :meth:`AnalyticXNN.run_encoder`'s float for float.
        """
        if not points:
            return []
        count = len(points)
        segment_sets: List[_SegmentSet] = []
        ddr_models: List[MemoryChannelModel] = []
        lpddr_models: List[MemoryChannelModel] = []
        mme_rate_column = np.empty((count, 1))
        for index, (config, options, batch, seq_len, bert_config) in enumerate(
            points
        ):
            model = self._model_for(
                config.spec,
                config.num_mme,
                config.num_mem_c,
                config.mme_tile_shape,
                options,
            )
            segment_sets.append(
                self._segments_for(model, batch, seq_len, bert_config)
            )
            mme_rate_column[index, 0] = model.mme_rate
            ddr_models.append(
                ddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
            )
            lpddr_models.append(
                lpddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
            )
        busy = _busy_grids(
            [list(segment_set.tallies) for segment_set in segment_sets],
            ddr_models,
            lpddr_models,
            mme_rate_column,
        )
        results: List[EncoderResult] = []
        for index, (config, options, batch, seq_len, bert_config) in enumerate(
            points
        ):
            segment_set = segment_sets[index]
            result = EncoderResult(name=segment_set.model_name, batch=batch)
            for position, segment_name in enumerate(segment_set.names):
                roofline = self._roofline_at(busy, index, position)
                tally = segment_set.tallies[position]
                result.segments.append(
                    AnalyticSegment(
                        name=segment_name,
                        latency_s=roofline.latency_s,
                        flops=segment_set.flops[position],
                        ddr_bytes=tally.ddr_read_bytes + tally.ddr_write_bytes,
                        lpddr_bytes=tally.lpddr_bytes,
                        uops=0,
                        bottleneck=roofline.bottleneck,
                        bounds_s=dict(roofline.busy_s),
                        utilization=roofline.utilizations(),
                        mapping=segment_set.mappings[position],
                    )
                )
            results.append(result)
        return results

    def gemm_results(
        self,
        points: Sequence[Tuple[XNNConfig, CodegenOptions, int, int, int]],
    ) -> List[AnalyticSegment]:
        """Batched ``xnn_gemm`` evaluation, one :class:`AnalyticSegment` each.

        ``points`` holds ``(config, options, m, k, n)`` tuples.  Same split
        as :meth:`encoder_results`: memoized tallies, vectorized busy times,
        scalar roofline resolution -- every segment equals
        :meth:`AnalyticXNN.run_gemm`'s exactly.
        """
        if not points:
            return []
        count = len(points)
        frozen: List[_FrozenTally] = []
        flops: List[float] = []
        ddr_models: List[MemoryChannelModel] = []
        lpddr_models: List[MemoryChannelModel] = []
        mme_rate_column = np.empty((count, 1))
        for index, (config, options, m, k, n) in enumerate(points):
            model = self._model_for(
                config.spec,
                config.num_mme,
                config.num_mem_c,
                config.mme_tile_shape,
                options,
            )
            tally, layer_flops = self._gemm_tally_for(model, m, k, n)
            frozen.append(tally)
            flops.append(layer_flops)
            mme_rate_column[index, 0] = model.mme_rate
            ddr_models.append(
                ddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
            )
            lpddr_models.append(
                lpddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
            )
        busy = _busy_grids(
            [[tally] for tally in frozen], ddr_models, lpddr_models, mme_rate_column
        )
        segments: List[AnalyticSegment] = []
        for index, tally in enumerate(frozen):
            roofline = self._roofline_at(busy, index, 0)
            segments.append(
                AnalyticSegment(
                    name="gemm",
                    latency_s=roofline.latency_s,
                    flops=flops[index],
                    ddr_bytes=tally.ddr_read_bytes + tally.ddr_write_bytes,
                    lpddr_bytes=tally.lpddr_bytes,
                    uops=0,
                    bottleneck=roofline.bottleneck,
                    bounds_s=dict(roofline.busy_s),
                    utilization=roofline.utilizations(),
                    mapping=MappingType.TASK_PARALLEL.value,
                )
            )
        return segments


#: the process-wide batch evaluator (its memo is the whole point: later
#: generations and later explorations reuse earlier tallies -- including
#: successive chunk jobs executed by one long-lived work-queue worker,
#: which all funnel through this singleton and so share tallies across
#: chunks exactly as the serial batched path shares them across points).
_BATCH_EVALUATOR: Optional[EncoderBatchEvaluator] = None


def encoder_batch_evaluator() -> EncoderBatchEvaluator:
    """The process-wide :class:`EncoderBatchEvaluator` singleton."""
    global _BATCH_EVALUATOR
    if _BATCH_EVALUATOR is None:
        _BATCH_EVALUATOR = EncoderBatchEvaluator()
    return _BATCH_EVALUATOR
