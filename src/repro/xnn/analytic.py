"""The analytic fast-model backend: roofline estimates, no event loop.

The model evaluates a closed-form *multi-resource roofline* per segment
instead of simulating the datapath, in two halves:

* **Tallies** (:class:`AnalyticXNN`) replay the code generator's tiling
  decisions (:func:`~repro.xnn.tiling.plan_gemm_tiling`) and attention
  mapping (:func:`~repro.xnn.mapping.attention_mapping_type`) purely
  arithmetically, counting exactly the off-chip transfers, MME tile
  products, and MemC fused operators the generated program would issue --
  the DDR/LPDDR byte counts are *identical* to the event-driven engine's
  channel counters.  Tallies depend on the workload shape, the
  tiling/mapping options and the FU counts, never on bandwidth.
* **Resolution** (:class:`EncoderBatchEvaluator`, the only place results
  are resolved) converts each tallied resource (the DDR channel, the LPDDR
  channel, the busiest MME, the busiest MemC) to serial busy time with the
  same platform models the engine charges time with
  (:class:`~repro.hardware.memory.MemoryChannelModel` including the
  per-request latency, :meth:`~repro.hardware.aie.AIEArrayModel.mme_flops`)
  in :func:`_busy_grids`, as NumPy arrays over a whole batch of points; the
  segment latency is the maximum over resources
  (:class:`~repro.analysis.roofline.ResourceRoofline`).  A single scenario
  is a batch of one.

Because every FU in the event-driven engine executes its uOPs serially, the
engine's end time can never be smaller than any single FU's total charged
time; the analytic latency is therefore a **certified lower bound** on the
cycle-level result.  What it deliberately omits -- pipeline fill/drain,
channel back-pressure, load/store ordering stalls -- is exactly the gap the
differential-validation suite (``tests/differential/``) measures and pins per
scenario; ``tests/differential/test_analytic_golden.py`` pins every payload
bit.  In exchange, a full scenario evaluation costs microseconds instead of
seconds, which is what makes 1000-point design-space sweeps interactive
(``benchmarks/bench_backend_speed.py`` quantifies the speedup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.roofline import ResourceRoofline
from ..analysis.table import ColumnTable, exact_column
from ..hardware.aie import AIEArrayModel, MMEGroupPlan
from ..hardware.link import InterChipLink
from ..hardware.memory import MemoryChannelModel, ddr_channel, lpddr_channel
from ..workloads.bert import BERT_LARGE, BertConfig, bert_large_encoder
from ..workloads.layers import FusedOp, MatMulLayer, ModelSpec
from .codegen import _FUSED_TO_MEMC, CodegenOptions
from .datapath import XNNConfig
from .executor import EncoderResult, SegmentResult
from .fus.scratchpad import MEMC_COMPUTE_THROUGHPUT, NONMM_FLOPS_PER_ELEMENT
from .mapping import attention_mapping_type
from .partition import (
    EncoderPartition,
    _pair_table,
    _resolve_columns,
    design_cost,
    dse_design,
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
    """Tallies the RSN-XNN overlay's work for one hardware/codegen design.

    Validates the MME plan, fixes the MME rate, and replays the code
    generator's transfer and FU-work inventory per segment; the
    :class:`EncoderBatchEvaluator` resolves the tallies into latencies.
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

    def _fresh_tally(self) -> _SegmentTally:
        return _SegmentTally(self.config)

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

    # ------------------------------------------------------------ tally sets

    def encoder_segments(
        self, batch: int = 6, seq_len: int = 512, config: BertConfig = BERT_LARGE
    ) -> _SegmentSet:
        """Tally one transformer encoder layer's three simulation groups.

        The groups mirror the engine executor exactly (QKV projections,
        attention + dense, feed-forward), so per-segment traffic is
        comparable byte for byte.  The attention segment is labelled with
        the Fig. 3 mapping type the codegen options select, cross-checked
        against the model-segmentation decision (the pipelined mapping is
        only meaningful when the segmenter would pipeline the attention
        pair).
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
        return _SegmentSet.of(spec.name, batch, segments)

    def feedforward_segments(self, model: ModelSpec, mapping: str = "") -> _SegmentSet:
        """Tally a pure-GEMM model (NCF, MLP, one bare GEMM) chained through
        DDR: one segment named after the model."""
        tally = self._fresh_tally()
        total_flops = 0.0
        for model_layer in model.layers:
            self._tally_gemm(tally, model_layer)
            total_flops += model_layer.flops
        return _SegmentSet.of(
            model.name, model.batch, [(model.name, tally, total_flops, mapping)]
        )


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
    """One workload's tallies on one model: an evaluation's
    bandwidth-independent half.

    The frozen tallies, the segment names and mapping labels, the
    per-segment FLOP counts and their list-order fold into the workload
    total -- everything but the roofline resolution, and the name and batch
    of the :class:`EncoderResult` it resolves to.
    """

    name: str
    batch: int
    names: Tuple[str, ...]
    mappings: Tuple[str, ...]
    tallies: Tuple[_FrozenTally, ...]
    flops: Tuple[float, ...]
    total_flops: float

    @classmethod
    def of(
        cls,
        name: str,
        batch: int,
        segments: Sequence[Tuple[str, _SegmentTally, float, str]],
    ) -> "_SegmentSet":
        """Freeze ``[(segment name, tally, flops, mapping), ...]``."""
        flops = tuple(segment_flops for _, _, segment_flops, _ in segments)
        # EncoderResult.flops is sum(segment.flops) -- fold in list order.
        total_flops = 0.0
        for segment_flops in flops:
            total_flops += segment_flops
        return cls(
            name=name,
            batch=batch,
            names=tuple(segment_name for segment_name, _, _, _ in segments),
            mappings=tuple(mapping for _, _, _, mapping in segments),
            tallies=tuple(_FrozenTally.freeze(tally) for _, tally, _, _ in segments),
            flops=flops,
            total_flops=total_flops,
        )


def _busy_grids(
    tallies: Sequence[Sequence[_FrozenTally]],
    ddr_models: Sequence[MemoryChannelModel],
    lpddr_models: Sequence[MemoryChannelModel],
    mme_rate_column: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-(design, segment) resource busy times, vectorized.

    The roofline's one definition.  Each bound is the exact serial occupancy
    the event-driven engine charges the corresponding FU: the channels' bulk
    transfer times (including the per-request latency and the
    empty-transfer zero), the busiest MME's accumulated tile products over
    its rate, and the busiest MemC's fused-operator arithmetic over the MemC
    throughput.  Elementwise IEEE-754 float64 ops, so a cell does not depend
    on which other rows share the batch.

    One row per distinct design and workload of a batch (its tallies, its
    channel models and its MME rate): the caller gathers the points' rows
    with an index array, since a batch holds far fewer distinct designs
    than points.
    """
    count = len(tallies)
    shape = (count, len(tallies[0]))

    def grid(attr: str) -> np.ndarray:
        return np.array(
            [[getattr(tally, attr) for tally in row] for row in tallies],
            dtype=np.float64,
        )

    def columns(models: Sequence[MemoryChannelModel], *attrs: str) -> List[np.ndarray]:
        return [
            np.array([getattr(model, attr) for model in models], dtype=np.float64)
            .reshape(count, 1)
            for attr in attrs
        ]

    read_bytes = grid("ddr_read_bytes")
    read_requests = grid("ddr_read_requests")
    write_bytes = grid("ddr_write_bytes")
    write_requests = grid("ddr_write_requests")
    lpddr_bytes = grid("lpddr_bytes")
    lpddr_requests = grid("lpddr_requests")
    mme_max = grid("mme_flops_max")
    memc_max = grid("memc_flops_max")

    ddr_read_bw, ddr_write_bw, ddr_latency = columns(
        ddr_models, "effective_read_bw", "effective_write_bw", "request_latency"
    )
    lpddr_bw, lpddr_latency = columns(
        lpddr_models, "effective_read_bw", "request_latency"
    )

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


#: a DSE point's design key: the probe fields the
#: :func:`~repro.xnn.partition.dse_design` config reads (first, so
#: ``_DESIGN_KEYS[:3]`` is the probe key), then the tiling fields its options
#: read.
_DESIGN_KEYS = (
    "num_mme",
    "mem_b_bytes",
    "bandwidth_scale",
    "pipeline_attention",
    "tile_m",
    "tile_k",
    "super_n",
)

#: a DSE point's workload shape.
_SHAPE_KEYS = ("batch", "seq_len", "model")

#: a multi-chip DSE point's link triple.
_LINK_KEYS = ("link_gbs", "link_hop_us", "link_serialization_us")


def _factorize(column: np.ndarray) -> np.ndarray:
    """Number the distinct values of ``column`` in order of first
    occurrence, telling values apart as Python dict keys do (``1``,
    ``1.0`` and ``True`` are one value): each cell's value number."""
    if column.dtype == object:
        numbers: Dict[Any, int] = {}
        return np.array(
            [numbers.setdefault(value, len(numbers)) for value in column.tolist()],
            dtype=np.intp,
        )
    if column.dtype.kind not in "iu" or len(column) == 0 or column.min() < 0:
        column = np.unique(column, return_inverse=True)[1].reshape(-1)
    size = int(column.max()) + 1 if len(column) else 0
    if size > 4 * len(column) + 64:
        column = np.unique(column, return_inverse=True)[1].reshape(-1)
        size = int(column.max()) + 1
    # ``column`` now numbers the values 0 .. size-1; renumber them by the
    # row each first occurs in.
    first = np.full(size, len(column), dtype=np.intp)
    np.minimum.at(first, column, np.arange(len(column), dtype=np.intp))
    present = np.flatnonzero(first < len(column))
    renumber = np.empty(size, dtype=np.intp)
    renumber[present[np.argsort(first[present])]] = np.arange(len(present))
    return renumber[column]


def _key_codes(*codes: np.ndarray) -> np.ndarray:
    """The value numbers of the tuples of several value-number columns, in
    order of first occurrence (as :func:`_factorize`)."""
    combined = codes[0]
    for code in codes[1:]:
        combined = _factorize(combined * (int(code.max(initial=0)) + 1) + code)
    return combined


def _firsts(codes: np.ndarray) -> np.ndarray:
    """The row where each value number of :func:`_factorize` first occurs,
    in value-number order -- which is row order."""
    running = np.maximum.accumulate(codes) if len(codes) else codes
    return np.flatnonzero(np.diff(running, prepend=-1) > 0)


def _cell(column: np.ndarray, row: int) -> Any:
    """One cell of a parameter column, as the Python value it was."""
    value = column[row]
    return value.item() if isinstance(value, np.generic) else value


def _exact(column: np.ndarray) -> np.ndarray:
    """``column`` as :func:`exact_column` would hold its cells: an object
    column whose cells share one type narrows to that type's dtype."""
    return exact_column(column.tolist()) if column.dtype == object else column


@dataclass
class _BatchRows:
    """The shared per-call state behind one batched DSE evaluation.

    Everything the payload columns need, per point: its design's number
    (one config per design), its probe-key number, the design's per-chip
    peak, the vectorized segment latencies, and the FLOP and traffic
    totals of its segment set -- plus each point's workload-shape number
    and the encoder configs by model name.  It lives as long as the batch
    call, so memory stays bounded by one generation.
    """

    configs: List[XNNConfig]
    design_codes: np.ndarray
    probe_codes: np.ndarray
    shape_codes: np.ndarray
    peak_flops: np.ndarray
    segment_latency: np.ndarray
    flops: np.ndarray
    ddr_bytes: np.ndarray
    lpddr_bytes: np.ndarray
    encoders: Dict[str, BertConfig]


def _totals(segment_set: _SegmentSet) -> Tuple[float, int, int]:
    """(flops, ddr bytes, lpddr bytes) of one segment set, traffic summed in
    segment order."""
    ddr_bytes_total = 0
    lpddr_bytes_total = 0
    for tally in segment_set.tallies:
        ddr_bytes_total += tally.ddr_read_bytes + tally.ddr_write_bytes
        lpddr_bytes_total += tally.lpddr_bytes
    return segment_set.total_flops, ddr_bytes_total, lpddr_bytes_total


class EncoderBatchEvaluator:
    """Vectorized analytic evaluation of whole batches of points.

    The only place analytic results are resolved: :meth:`results` for the
    ``xnn_*`` kinds, :meth:`evaluate_batch` / :meth:`evaluate_chiplet_batch`
    for the design-space kinds; a single scenario is a batch of one.  A
    search generation contains many points that differ only in bandwidth
    scale or scratchpad depth, neither of which changes a single tally, so
    the work splits accordingly:

    1. **Memoized tallies** -- :class:`AnalyticXNN` tallies a workload once
       per unique (workload shape, tiling/mapping options, FU counts) and
       every point of the batch shares the frozen result (and so do later
       batches: the evaluator is long-lived).
    2. **Per-call invariants** -- the design (config and codegen options,
       from the engine runner's :func:`~repro.xnn.partition.dse_design`),
       its channel models, the encoder config, and (for chiplet points) the
       partition, link and ``design_cost`` are each built once per distinct
       value of the parameters they read, in tables that live for one batch
       call.
    3. **Vectorized rooflines** -- the per-point, bandwidth-dependent half
       (channel busy times, resource maxima, latency fold) is evaluated as
       NumPy float64 arrays over the whole batch (:func:`_busy_grids`).
    4. **Column payloads** -- the DSE payloads are computed key by key as
       NumPy columns (:func:`~repro.xnn.partition.chiplet_table`) and
       returned as a :class:`~repro.analysis.table.ColumnTable`: a row is
       built only where one is read.

    Neither the memo nor the batch composition changes a bit of any
    payload: the differential suite checks a fresh evaluator per point
    against a shared one over whole spaces
    (``tests/differential/test_batched_analytic.py``), and
    ``tests/differential/test_analytic_golden.py`` pins the payloads.
    """

    def __init__(self):
        #: (spec, num_mme, num_mem_c, tile_shape, options) -> AnalyticXNN
        self._models: Dict[Tuple[Any, ...], AnalyticXNN] = {}
        #: (model key, workload) -> frozen segment data
        self._segments: Dict[Tuple[Any, ...], _SegmentSet] = {}

    # ------------------------------------------------------------ resolution

    def _tallied(
        self, config: XNNConfig, options: CodegenOptions, workload: Tuple[Any, ...]
    ) -> Tuple[AnalyticXNN, _SegmentSet]:
        """The (memoized) model of ``config``/``options`` and its tallies of
        ``workload`` -- ``("encoder", batch, seq_len, bert_config)`` or
        ``("feedforward", model_spec, mapping)``."""
        model_key = (
            config.spec,
            config.num_mme,
            config.num_mem_c,
            config.mme_tile_shape,
            options,
        )
        model = self._models.get(model_key)
        if model is None:
            # AnalyticXNN.__init__ validates the MME plan; only *feasible*
            # models are memoized, so infeasible points raise on every
            # evaluation.
            model = self._models[model_key] = AnalyticXNN(
                config=XNNConfig(
                    num_mme=config.num_mme,
                    num_mem_c=config.num_mem_c,
                    mme_tile_shape=config.mme_tile_shape,
                    carry_data=False,
                    spec=config.spec,
                ),
                options=options,
            )
        key = (model_key, workload)
        segment_set = self._segments.get(key)
        if segment_set is None:
            kind, *args = workload
            tally = (
                model.encoder_segments
                if kind == "encoder"
                else model.feedforward_segments
            )
            segment_set = self._segments[key] = tally(*args)
        return model, segment_set

    def _gather(
        self,
        designs: Sequence[Tuple[XNNConfig, CodegenOptions, Tuple[Any, ...]]],
        index: np.ndarray,
    ) -> Tuple[List[_SegmentSet], np.ndarray, Tuple[np.ndarray, ...]]:
        """Tally distinct ``(config, options, workload)`` designs and run
        their vectorized busy grids: the one tally loop of both resolvers.

        Each design gets one tally lookup, one pair of DDR and LPDDR
        channel models and one row of busy grids; point ``i`` is design
        ``index[i]``.  Returns the designs' segment sets, each point's MME
        rate, and the per-point ``(ddr, lpddr, mme, memc)`` busy grids.
        """
        segment_sets: List[_SegmentSet] = []
        rates: List[float] = []
        ddr_models: List[MemoryChannelModel] = []
        lpddr_models: List[MemoryChannelModel] = []
        for config, options, workload in designs:
            model, segment_set = self._tallied(config, options, workload)
            segment_sets.append(segment_set)
            rates.append(model.mme_rate)
            ddr_models.append(
                ddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
            )
            lpddr_models.append(
                lpddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
            )
        mme_rate = np.array(rates, dtype=np.float64)
        busy = _busy_grids(
            [segment_set.tallies for segment_set in segment_sets],
            ddr_models,
            lpddr_models,
            mme_rate.reshape(-1, 1),
        )
        return segment_sets, mme_rate[index], tuple(grid[index] for grid in busy)

    def results(
        self, points: Sequence[Tuple[XNNConfig, CodegenOptions, Tuple[Any, ...]]]
    ) -> List[EncoderResult]:
        """Resolve ``(config, options, workload)`` points, one
        :class:`EncoderResult` of :class:`AnalyticSegment` each.

        ``workload`` is ``("encoder", batch, seq_len, bert_config)`` or
        ``("feedforward", model_spec, mapping)`` (a bare GEMM is a one-layer
        feed-forward model); all points of one call have the same segment
        count.  Points made of the same config, options and workload
        objects are one design.  Tallies are memoized across points and
        calls, busy times are vectorized, and each (point, segment) cell is
        resolved through :class:`ResourceRoofline`, which sets the latency,
        the bottleneck (first maximum in ``ddr, lpddr, mme, memc`` order)
        and the utilization dict.
        """
        if not points:
            return []
        numbers: Dict[Tuple[int, int, int], int] = {}
        designs = []
        index = []
        for point in points:
            key = (id(point[0]), id(point[1]), id(point[2]))
            number = numbers.get(key)
            if number is None:
                number = numbers[key] = len(designs)
                designs.append(point)
            index.append(number)
        segment_sets, _, busy = self._gather(designs, np.array(index, dtype=np.intp))
        ddr_busy, lpddr_busy, mme_busy, memc_busy = busy
        results: List[EncoderResult] = []
        for point, design in enumerate(index):
            segment_set = segment_sets[design]
            result = EncoderResult(name=segment_set.name, batch=segment_set.batch)
            for position, tally in enumerate(segment_set.tallies):
                roofline = ResourceRoofline(
                    {
                        "ddr": float(ddr_busy[point, position]),
                        "lpddr": float(lpddr_busy[point, position]),
                        "mme": float(mme_busy[point, position]),
                        "memc": float(memc_busy[point, position]),
                    }
                )
                result.segments.append(
                    AnalyticSegment(
                        name=segment_set.names[position],
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

    # ------------------------------------------------------------ evaluation

    def _rows(self, columns: Mapping[str, np.ndarray], encoder_config) -> _BatchRows:
        """Tally and run the vectorized rooflines for a batch of DSE points
        given as resolved parameter columns.

        The design and shape keys are factorised from the columns.  Each
        design's config and codegen options come from
        :func:`~repro.xnn.partition.dse_design`, the engine runner's
        constructor, called once per design key; the workload, with its
        encoder config, once per ``(batch, seq_len, model)``; the FLOP and
        traffic totals once per tallied design.  Constructors run in the
        order of the points that first need them, so an infeasible point
        raises what the per-point loop would raise first.
        """
        codes = {key: _factorize(columns[key]) for key in _DESIGN_KEYS + _SHAPE_KEYS}
        design_codes = _key_codes(*(codes[key] for key in _DESIGN_KEYS))
        shape_codes = _key_codes(*(codes[key] for key in _SHAPE_KEYS))
        pair_codes = _key_codes(design_codes, shape_codes)
        designs: Dict[int, Tuple[XNNConfig, CodegenOptions]] = {}
        workloads: Dict[int, Tuple[Any, ...]] = {}
        encoders: Dict[str, BertConfig] = {}
        points: List[Tuple[XNNConfig, CodegenOptions, Tuple[Any, ...]]] = []
        for row in _firsts(pair_codes).tolist():
            design_code = int(design_codes[row])
            design = designs.get(design_code)
            if design is None:
                params = {key: _cell(columns[key], row) for key in _DESIGN_KEYS}
                design = designs[design_code] = dse_design(params)
            shape_code = int(shape_codes[row])
            workload = workloads.get(shape_code)
            if workload is None:
                batch, seq_len, model_name = (
                    _cell(columns[key], row) for key in _SHAPE_KEYS
                )
                encoder = encoders[model_name] = encoder_config(model_name)
                workload = workloads[shape_code] = ("encoder", batch, seq_len, encoder)
            points.append((*design, workload))

        segment_sets, mme_rate, busy = self._gather(points, pair_codes)
        ddr_busy, lpddr_busy, mme_busy, memc_busy = busy
        # ResourceRoofline.latency_s: the max over resources (order-free).
        segment_latency = np.maximum(
            np.maximum(ddr_busy, lpddr_busy), np.maximum(mme_busy, memc_busy)
        )
        flops, ddr_bytes, lpddr_bytes = (
            exact_column(list(column))[pair_codes]
            for column in zip(*map(_totals, segment_sets))
        )
        return _BatchRows(
            configs=[designs[code][0] for code in range(len(designs))],
            design_codes=design_codes,
            probe_codes=_key_codes(*(codes[key] for key in _DESIGN_KEYS[:3])),
            shape_codes=shape_codes,
            peak_flops=columns["num_mme"].astype(np.float64) * mme_rate,
            segment_latency=segment_latency,
            flops=flops,
            ddr_bytes=ddr_bytes,
            lpddr_bytes=lpddr_bytes,
            encoders=encoders,
        )

    def _evaluate(
        self, param_sets: Sequence[Mapping[str, Any]], encoder_config, kind: str
    ) -> ColumnTable:
        """The payload table of DSE kind ``kind``'s parameter sets (a
        :class:`~repro.analysis.table.ColumnTable` or any sequence of
        mappings): every DSE point is resolved against the kind's one
        defaults table (a key outside it raises ``TypeError``), column by
        column, and the payload columns are
        :func:`~repro.xnn.partition.chiplet_table`'s -- the arithmetic
        behind the engine runner's payloads.

        The chiplet-only axes change no tally and no per-segment roofline,
        so every point shares the single-chip vectorized rows; the
        multi-chip combination on top is fed a partition built once per
        ``(batch, seq_len, model, num_chips)``, a link once per link
        triple, and a ``design_cost`` once per ``(probe, peak, num_chips,
        link)`` -- each key factorised from the columns, each value built
        in the order of the points that first need it.
        """
        if not len(param_sets):
            return ColumnTable()
        columns = _resolve_columns(param_sets, kind)
        rows = self._rows(columns, encoder_config)
        count = len(rows.design_codes)
        chips = columns.get("num_chips")
        multi = np.zeros(count, dtype=bool)
        if chips is not None:
            multi = np.asarray(chips != 1, dtype=bool)
        # A one-chip point has no partition or link (number 0 of each) and
        # costs as one chip; the rows to visit are the first of each cost
        # key and of each multi-chip partition key.
        cost_keys = [rows.probe_codes, _factorize(rows.peak_flops)]
        visit = np.zeros(count, dtype=bool)
        link_codes = partition_codes = np.zeros(count, dtype=np.intp)
        if multi.any():
            chip_codes = _factorize(chips)
            triples = _key_codes(*(_factorize(columns[key]) for key in _LINK_KEYS))
            link_codes = np.where(multi, triples + 1, 0)
            shapes = _key_codes(rows.shape_codes, chip_codes)
            firsts = _firsts(shapes)
            visit[firsts[multi[firsts]]] = True
            partition_codes = np.where(multi, shapes + 1, 0)
            cost_keys += [np.where(multi, chip_codes + 1, 0), link_codes]
        cost_codes = _key_codes(*cost_keys)
        visit[_firsts(cost_codes)] = True

        links: Dict[int, Optional[InterChipLink]] = {0: None}
        partitions: Dict[int, Optional[EncoderPartition]] = {0: None}
        cost_memo: Dict[Tuple[Any, ...], Tuple[float, float]] = {}
        costs: List[Tuple[float, float]] = []
        for row in np.flatnonzero(visit).tolist():
            link_code = int(link_codes[row])
            if link_code not in links:
                links[link_code] = InterChipLink.from_design(
                    *(_cell(columns[key], row) for key in _LINK_KEYS)
                )
            partition_code = int(partition_codes[row])
            num_chips = _cell(chips, row) if partition_code else 1
            if partition_code not in partitions:
                batch, seq_len, model = (
                    _cell(columns[key], row) for key in _SHAPE_KEYS
                )
                partitions[partition_code] = encoder_partition(
                    batch, seq_len, num_chips, config=rows.encoders[model]
                )
            if cost_codes[row] == len(costs):
                peak = float(rows.peak_flops[row])
                link = links[link_code]
                # design_cost once per (probe, peak, chip count, link): links
                # that compare equal share a cost, as dict keys would.
                key = (int(rows.probe_codes[row]), peak, num_chips, link)
                cost = cost_memo.get(key)
                if cost is None:
                    config = rows.configs[rows.design_codes[row]]
                    cost = cost_memo[key] = design_cost(
                        config, peak, num_chips=num_chips, link=link
                    )
                costs.append(cost)
        power_w, area_luts = (exact_column(list(values)) for values in zip(*costs))

        pair_codes = _key_codes(partition_codes, link_codes)
        pairs = [
            (partitions[int(partition_codes[row])], links[int(link_codes[row])])
            for row in _firsts(pair_codes).tolist()
        ]
        return _pair_table(
            pairs,
            pair_codes,
            segment_latency_s=rows.segment_latency,
            flops=rows.flops,
            ddr_bytes=rows.ddr_bytes,
            lpddr_bytes=rows.lpddr_bytes,
            batch=_exact(columns["batch"]),
            num_mme=columns["num_mme"].tolist(),
            per_chip_peak_flops=rows.peak_flops,
            power_w=power_w[cost_codes],
            area_luts=area_luts[cost_codes],
        )

    def evaluate_batch(
        self, param_sets: Sequence[Mapping[str, Any]], encoder_config
    ) -> ColumnTable:
        """Evaluate many ``dse_encoder`` parameter sets in one pass.

        ``encoder_config`` maps a model name to its :class:`BertConfig`
        (injected by the runner layer so the supported-model catalogue cannot
        diverge between the backends).  Returns a
        :class:`~repro.analysis.table.ColumnTable` with one payload row per
        parameter set, in order; a row is built only when it is read.
        """
        return self._evaluate(param_sets, encoder_config, "dse_encoder")

    def evaluate_chiplet_batch(
        self, param_sets: Sequence[Mapping[str, Any]], encoder_config
    ) -> ColumnTable:
        """Evaluate many ``dse_chiplet`` parameter sets in one pass, like
        :meth:`evaluate_batch`; ``num_chips=1`` points get the exact
        ``dse_encoder`` payload."""
        return self._evaluate(param_sets, encoder_config, "dse_chiplet")

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
        payloads exactly equal to the ``dse_encoder`` analytic runner's.
        """
        sizes = sorted(set(int(size) for size in batch_sizes))
        if any(size < 1 for size in sizes):
            raise ValueError(f"batch sizes must be >= 1, got {sizes}")
        param_sets = [{**dict(base_params), "batch": size} for size in sizes]
        payloads = self.evaluate_batch(param_sets, encoder_config)
        return dict(zip(sizes, payloads))


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
