"""Multi-chip partitioning of encoder segments and the DSE payloads.

The scale-out axis runs one encoder layer as a *pipeline over chips*: the
three simulation groups (``qkv``, ``attention+dense``, ``ffn``) are split
contiguously across ``num_chips`` devices, and the boundary activations
cross an :class:`~repro.hardware.link.InterChipLink` between consecutive
chips.  This module holds everything both backends and the batched analytic
evaluator share, so that the certified contracts hold *by construction*:

* The ``dse_encoder`` / ``dse_chiplet`` parameters and defaults are defined
  once, in ``_DSE_DEFAULTS`` / ``_CHIPLET_DEFAULTS``; both backends resolve
  a point against them and build its config and codegen options with
  :func:`dse_design`, so a point names the same design on either backend.
* ``num_chips=1`` points have no partition and take the single-chip
  ``dse_encoder`` payload (:func:`dse_table`) -- which is what makes their
  payloads byte-identical to that kind's.
* For ``num_chips>1``, the partition is chosen from backend-independent
  segment FLOP counts (:func:`encoder_segment_flops`), the link terms are
  identical pure-float arithmetic on both backends, and the only
  backend-dependent inputs are the per-segment latencies -- each of which is
  already a certified lower bound analytic-vs-engine.  Sums and maxima of
  lower bounds are lower bounds, so the chiplet analytic latency inherits
  the contract.  Off-chip traffic is untouched by partitioning (every chip
  keeps its segments' DDR/LPDDR transfers), so byte-identity also carries
  over unchanged.
* :func:`dse_table` and :func:`chiplet_table` hold the payload arithmetic,
  once, as NumPy columns over a batch of points: the batched analytic
  evaluator calls them on a whole generation, and the engine runner calls
  :func:`chiplet_payload`, their batch of one.  The shape-only
  :class:`EncoderPartition` (:func:`encoder_partition`) and the
  :func:`design_cost` input are computed by the caller: once per point on
  the engine, once per distinct key of what they read in the evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.table import ColumnTable, exact_column
from ..hardware.cost import design_area_luts, design_power_w
from ..hardware.link import InterChipLink
from ..workloads.bert import BERT_LARGE, BertConfig, bert_large_encoder
from .codegen import CodegenOptions
from .datapath import XNNConfig
from .fus.scratchpad import MEMC_COMPUTE_THROUGHPUT

__all__ = [
    "ENCODER_SEGMENT_NAMES",
    "EncoderPartition",
    "chiplet_payload",
    "chiplet_table",
    "design_cost",
    "dse_design",
    "dse_table",
    "encoder_boundary_bytes",
    "encoder_partition",
    "encoder_segment_flops",
    "partition_segments",
]

_ELEMENT_BYTES = 4  # fp32 activations, matching the rest of the stack

#: the encoder's simulation groups, in execution order (the unit of
#: partitioning: chips own contiguous runs of these).
ENCODER_SEGMENT_NAMES = ("qkv", "attention+dense", "ffn")


def encoder_boundary_bytes(
    batch: int, seq_len: int, config: BertConfig = BERT_LARGE
) -> Tuple[int, ...]:
    """Activation bytes crossing each segment boundary, in execution order.

    Backend-independent by construction: the tensors that cross a boundary
    are fixed by the workload shape, not by tiling or simulation.  Boundary
    0 (``qkv`` -> ``attention+dense``) carries the Q, K and V projections;
    boundary 1 (``attention+dense`` -> ``ffn``) carries one hidden-state
    tensor.
    """
    if batch <= 0 or seq_len <= 0:
        raise ValueError("batch and seq_len must be positive")
    activation = batch * seq_len * config.hidden * _ELEMENT_BYTES
    return (3 * activation, activation)


def encoder_segment_flops(
    batch: int, seq_len: int, config: BertConfig = BERT_LARGE
) -> Tuple[float, ...]:
    """FLOPs of each simulation group, grouped exactly like the executors.

    Used to *choose* the partition, so it must be identical for both
    backends -- it therefore derives from the workload's layer inventory
    alone, never from a simulation result.
    """
    spec = bert_large_encoder(batch=batch, seq_len=seq_len, config=config)
    layer = {lyr.name: lyr for lyr in spec.layers}
    qkv = sum(layer[name].flops for name in ("query", "key", "value"))
    attention = (
        layer["attention_mm1"].flops
        + layer["attention_mm2"].flops
        + layer["dense"].flops
    )
    ffn = layer["ffn_mm1"].flops + layer["ffn_mm2"].flops
    return (qkv, attention, ffn)


def partition_segments(
    segment_flops: Sequence[float], num_chips: int
) -> Tuple[int, ...]:
    """Contiguous partition of segments over chips, balancing FLOPs.

    Returns the cut positions: a strictly increasing tuple of indices in
    ``1..len(segment_flops)-1``, where cut ``c`` means "chip boundary before
    segment ``c``".  ``num_chips=1`` returns ``()``.  The partition minimises
    the maximum per-chip FLOP load; ties resolve to the lexicographically
    smallest cut tuple, so the choice is deterministic and shared by every
    evaluation path.
    """
    count = len(segment_flops)
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    if num_chips > count:
        raise ValueError(
            f"cannot split {count} segments across {num_chips} chips; "
            "every chip needs at least one segment"
        )
    best_cuts: Tuple[int, ...] = ()
    best_load = float("inf")
    for cuts in itertools.combinations(range(1, count), num_chips - 1):
        edges = (0,) + cuts + (count,)
        load = max(
            sum(segment_flops[start:end]) for start, end in zip(edges, edges[1:])
        )
        if load < best_load:
            best_load = load
            best_cuts = cuts
    return best_cuts


@dataclass(frozen=True)
class EncoderPartition:
    """The shape-only half of a multi-chip evaluation: where the chips cut.

    A function of the workload shape (batch, sequence length, encoder
    hyper-parameters) and the chip count alone -- no tiling, MME count,
    bandwidth or link enters it -- so every design point of one shape and
    chip count shares it.
    """

    num_chips: int
    #: FLOPs of each simulation group (:func:`encoder_segment_flops`).
    segment_flops: Tuple[float, ...]
    #: chip boundaries (:func:`partition_segments`).
    cuts: Tuple[int, ...]
    #: activation bytes per segment boundary (:func:`encoder_boundary_bytes`).
    boundary_bytes: Tuple[int, ...]


def encoder_partition(
    batch: int, seq_len: int, num_chips: int, config: BertConfig = BERT_LARGE
) -> EncoderPartition:
    """Partition one encoder workload shape over ``num_chips`` chips."""
    segment_flops = encoder_segment_flops(batch=batch, seq_len=seq_len, config=config)
    return EncoderPartition(
        num_chips=num_chips,
        segment_flops=segment_flops,
        cuts=partition_segments(segment_flops, num_chips),
        boundary_bytes=encoder_boundary_bytes(
            batch=batch, seq_len=seq_len, config=config
        ),
    )


def _link_terms(
    cuts: Sequence[int], boundary_bytes: Sequence[int], link: InterChipLink
) -> Tuple[int, float, Tuple[float, ...]]:
    """``(link_bytes, link_s, per-link busy)`` of one partition on one
    link: pure float arithmetic, once per distinct (partition, link)."""
    link_bytes = 0
    link_s = 0.0
    link_busy: List[float] = []
    for cut in cuts:
        nbytes = boundary_bytes[cut - 1]
        link_bytes += nbytes
        link_s += link.transfer_time(nbytes)
        link_busy.append(link.occupancy_time(nbytes))
    return link_bytes, link_s, tuple(link_busy)


def _fold(grid: np.ndarray) -> np.ndarray:
    """Row sums of ``grid`` folded left to right from ``0.0`` -- the same
    fold as ``EncoderResult.latency_s`` -- over a whole batch."""
    total = np.zeros(len(grid))
    for index in range(grid.shape[1]):
        total = total + grid[:, index]
    return total


def _stages(
    segment_latency_s: np.ndarray, cuts: Sequence[int], link_busy: np.ndarray
) -> Tuple[List[str], List[np.ndarray]]:
    """The pipeline stages of points that share ``cuts``: per-chip busy
    times (each chip's segments folded from ``0.0``) then per-link busy
    times: each chip and each link is one contended pipeline resource.
    Raises ``ValueError`` for a negative busy time, as
    :class:`~repro.analysis.roofline.ResourceRoofline` does.
    """
    edges = (0,) + tuple(cuts) + (segment_latency_s.shape[1],)
    names = [f"chip{index}" for index in range(len(edges) - 1)]
    stages = [
        _fold(segment_latency_s[:, start:end]) for start, end in zip(edges, edges[1:])
    ]
    names += [f"link{index}" for index in range(link_busy.shape[1])]
    stages += [link_busy[:, index] for index in range(link_busy.shape[1])]
    negative = np.zeros(len(segment_latency_s), dtype=bool)
    for stage in stages:
        negative |= stage < 0
    if negative.any():
        row = int(np.argmax(negative))
        name = next(name for name, stage in zip(names, stages) if stage[row] < 0)
        raise ValueError(f"resource {name!r} has negative busy time")
    return names, stages


def _stage_max(stages: Sequence[np.ndarray]) -> np.ndarray:
    """The busiest stage per point, folded like Python's ``max``: a later
    stage wins only when strictly greater."""
    busiest = stages[0]
    for stage in stages[1:]:
        busiest = np.where(stage > busiest, stage, busiest)
    return busiest


#: the ``dse_encoder`` parameters and their defaults.  Both backends
#: resolve a (possibly partial) point against this one table, so a point
#: names the same design on either backend.
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

#: the ``dse_chiplet`` parameters: everything ``dse_encoder`` takes, plus
#: the scale-out axes (chip count and inter-chip link parameters).  A
#: single-chip design is the one-chip case of this space.
_CHIPLET_DEFAULTS: Dict[str, Any] = {
    **_DSE_DEFAULTS,
    "num_chips": 1,
    "link_gbs": 64.0,
    "link_hop_us": 1.0,
    "link_serialization_us": 0.0,
}

_KIND_DEFAULTS = {"dse_encoder": _DSE_DEFAULTS, "dse_chiplet": _CHIPLET_DEFAULTS}


def _resolve_params(raw: Mapping[str, Any], kind: str) -> Dict[str, Any]:
    """DSE kind ``kind``'s defaults overlaid with ``raw``; a key outside
    them raises ``TypeError``, as an unexpected keyword argument would."""
    defaults = _KIND_DEFAULTS[kind]
    if not defaults.keys() >= raw.keys():
        unknown = sorted(set(raw) - set(defaults))
        raise TypeError(f"{kind} got unexpected parameter(s) {unknown}")
    params = dict(defaults)
    params.update(raw)
    return params


def _resolve_columns(
    param_sets: Sequence[Mapping[str, Any]], kind: str
) -> Dict[str, np.ndarray]:
    """:func:`_resolve_params` of a whole batch, column by column: each of
    DSE kind ``kind``'s parameters as one array (see
    :func:`~repro.analysis.table.exact_column`), its default where a point
    leaves it out.  ``param_sets`` is a
    :class:`~repro.analysis.table.ColumnTable` or any sequence of
    mappings; a key outside the defaults raises ``TypeError``."""
    defaults = _KIND_DEFAULTS[kind]
    table = ColumnTable.of(param_sets)
    unknown = sorted(str(key) for key in table.keys() if key not in defaults)
    if unknown:
        raise TypeError(f"{kind} got unexpected parameter(s) {unknown}")
    return {key: table.column(key, default) for key, default in defaults.items()}


def dse_design(params: Mapping[str, Any]) -> Tuple[XNNConfig, CodegenOptions]:
    """One resolved DSE point's hardware config and codegen options.

    The design constructor of both backends.  The validated
    :meth:`~repro.xnn.datapath.XNNConfig.for_design` /
    :meth:`~repro.xnn.codegen.CodegenOptions.with_overrides` hooks reject
    an infeasible point before either backend spends any time on it.
    """
    config = XNNConfig.for_design(
        num_mme=params["num_mme"],
        mem_b_bytes=params["mem_b_bytes"],
        bandwidth_scale=params["bandwidth_scale"],
    )
    options = CodegenOptions.with_overrides(
        pipeline_attention=params["pipeline_attention"],
        tile_m=params["tile_m"],
        tile_k=params["tile_k"],
        super_n=params["super_n"],
    )
    return config, options


def design_cost(
    config: XNNConfig,
    per_chip_peak_flops: float,
    num_chips: int = 1,
    link: Optional[InterChipLink] = None,
) -> Tuple[float, float]:
    """``(power_w, area_luts)`` of one design point.

    The single adapter from an :class:`XNNConfig` to the scalar cost models
    in :mod:`repro.hardware.cost`, shared by the engine runners and the
    batched evaluator so the cost keys cannot drift between backends.
    """
    scratchpad_mb = (
        config.num_mem_a * config.mem_a_bytes
        + config.num_mem_b * config.mem_b_bytes
        + config.num_mem_c * config.mem_c_bytes
    ) / float(1 << 20)
    offchip_gbs = (
        (
            config.spec.ddr_read_bw
            + config.spec.ddr_write_bw
            + config.spec.lpddr_read_bw
        )
        * config.bandwidth_scale
        / 1e9
    )
    power_w = design_power_w(
        num_mme=config.num_mme,
        num_mem_c=config.num_mem_c,
        peak_tflops=per_chip_peak_flops / 1e12,
        memc_tflops=config.num_mem_c * (MEMC_COMPUTE_THROUGHPUT / 1e12),
        scratchpad_mb=scratchpad_mb,
        offchip_gbs=offchip_gbs,
        num_chips=num_chips,
        link=link,
    )
    area_luts = design_area_luts(config.num_mme, config.num_mem_c, num_chips=num_chips)
    return power_w, area_luts


def _batch_column(values: Any) -> Any:
    """A per-point input as an array (arrays pass through)."""
    return values if isinstance(values, np.ndarray) else exact_column(list(values))


def _divide(numerator: Any, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator if denominator else 0.0`` per point."""
    nonzero = denominator != 0
    return np.where(nonzero, numerator / np.where(nonzero, denominator, 1.0), 0.0)


def _dse_columns(
    *,
    latency_s: Any,
    flops: Any,
    ddr_bytes: Any,
    lpddr_bytes: Any,
    batch: Any,
    num_mme: Sequence[Any],
    peak_flops: Any,
    power_w: Any,
    area_luts: Any,
    interval_s: Optional[np.ndarray] = None,
) -> Dict[str, Any]:
    """The ``dse_encoder`` payload columns: the one definition of the
    payload arithmetic (see :func:`dse_table`)."""
    latency_s = _batch_column(latency_s)
    flops = _batch_column(flops)
    ddr_bytes = _batch_column(ddr_bytes)
    lpddr_bytes = _batch_column(lpddr_bytes)
    power_w = _batch_column(power_w)
    rate = _divide(flops, latency_s)
    return {
        "latency_s": latency_s,
        "latency_ms": latency_s * 1e3,
        "flops": flops,
        "ddr_bytes": ddr_bytes,
        "lpddr_bytes": lpddr_bytes,
        "offchip_bytes": ddr_bytes + lpddr_bytes,
        "achieved_tflops": rate / 1e12,
        "utilization": np.where(latency_s != 0, rate / _batch_column(peak_flops), 0.0),
        "num_mme": list(num_mme),
        "pipeline_tasks_per_s": _divide(
            _batch_column(batch), latency_s if interval_s is None else interval_s
        ),
        "power_w": power_w,
        "area_luts": _batch_column(area_luts),
        "energy_j": power_w * latency_s,
    }


def dse_table(**columns: Any) -> ColumnTable:
    """The ``dse_encoder`` payloads of a batch of points, one column per
    key.

    Every argument holds one value per point: ``latency_s``, ``flops``,
    ``ddr_bytes``, ``lpddr_bytes``, ``batch``, ``num_mme`` (copied
    verbatim), the design's ``peak_flops``, and its :func:`design_cost`
    ``power_w`` and ``area_luts``.  ``utilization`` is the achieved
    fraction of the design's *own* peak (so points with different MME
    counts share one Pareto axis); the pipeline rate divides ``batch`` by
    ``interval_s``, the steady-state interval, which is the latency itself
    unless a multi-chip pipeline (:func:`chiplet_table`) gives its busiest
    stage.
    """
    return ColumnTable(_dse_columns(**columns))


#: the multi-chip diagnostics a partitioned point's payload adds, in order.
_CHIPLET_KEYS = (
    "num_chips",
    "cuts",
    "link_bytes",
    "link_s",
    "max_stage_s",
    "stage_bounds_s",
)


def chiplet_table(
    *,
    segment_latency_s: np.ndarray,
    flops: Any,
    ddr_bytes: Any,
    lpddr_bytes: Any,
    batch: Any,
    num_mme: Sequence[Any],
    per_chip_peak_flops: Any,
    partitions: Sequence[Optional[EncoderPartition]],
    links: Sequence[Optional[InterChipLink]],
    power_w: Any,
    area_luts: Any,
) -> ColumnTable:
    """The ``dse_chiplet`` payloads of a batch of points.

    ``segment_latency_s`` holds one row of per-segment latencies per point;
    the other arguments hold one value per point, as for :func:`dse_table`.
    A point whose partition is ``None`` runs on one chip: its payload is
    the :func:`dse_table` row of its serial latency, the thirteen
    ``dse_encoder`` keys only.  A point with a partition
    (:func:`encoder_partition`) and a link gets the same thirteen keys
    computed the same way -- with the chiplet end-to-end latency and the
    all-chip peak substituted and the pipeline rate taken from the busiest
    stage -- plus the multi-chip diagnostics.  Link terms are computed once
    per distinct (partition, link) and stage folds once per distinct
    partition, vectorised over its points.
    """
    pairs: Dict[Tuple[int, int], int] = {}
    firsts: List[Tuple[Optional[EncoderPartition], Optional[InterChipLink]]] = []
    index = []
    for pair in zip(partitions, links):
        key = (id(pair[0]), id(pair[1]))
        position = pairs.get(key)
        if position is None:
            position = pairs[key] = len(firsts)
            firsts.append(pair)
        index.append(position)
    return _pair_table(
        firsts,
        np.array(index, dtype=np.intp),
        segment_latency_s=segment_latency_s,
        flops=flops,
        ddr_bytes=ddr_bytes,
        lpddr_bytes=lpddr_bytes,
        batch=batch,
        num_mme=num_mme,
        per_chip_peak_flops=per_chip_peak_flops,
        power_w=power_w,
        area_luts=area_luts,
    )


def _pair_table(
    firsts: Sequence[Tuple[Optional[EncoderPartition], Optional[InterChipLink]]],
    pair_index: np.ndarray,
    *,
    segment_latency_s: np.ndarray,
    flops: Any,
    ddr_bytes: Any,
    lpddr_bytes: Any,
    batch: Any,
    num_mme: Sequence[Any],
    per_chip_peak_flops: Any,
    power_w: Any,
    area_luts: Any,
) -> ColumnTable:
    """:func:`chiplet_table` of points given as their distinct ``(partition,
    link)`` pairs, ``firsts`` (``(None, None)`` for one chip), and each
    point's pair number, ``pair_index`` -- what the batched evaluator
    factorises from its parameter columns."""
    count, segments = segment_latency_s.shape
    terms: List[Tuple[int, float, Tuple[float, ...]]] = []
    for partition, link in firsts:
        if partition is None:
            terms.append((0, 0.0, ()))
            continue
        if len(partition.segment_flops) != segments:
            raise ValueError(
                f"{segments} segment latencies for "
                f"{len(partition.segment_flops)} encoder segments"
            )
        terms.append(_link_terms(partition.cuts, partition.boundary_bytes, link))
    link_s = np.array([term[1] for term in terms], dtype=np.float64)[pair_index]
    latency_s = _fold(segment_latency_s) + link_s
    multi = np.array([partition is not None for partition, _ in firsts])[pair_index]
    columns = dict(
        latency_s=latency_s,
        flops=flops,
        ddr_bytes=ddr_bytes,
        lpddr_bytes=lpddr_bytes,
        batch=batch,
        num_mme=num_mme,
        power_w=power_w,
        area_luts=area_luts,
    )
    if not multi.any():
        return dse_table(peak_flops=per_chip_peak_flops, **columns)

    # The stages of each distinct partition, folded over its points; a
    # one-chip point's steady-state interval is its latency.
    chips = max(len(p.cuts) + 1 for p, _ in firsts if p is not None)
    names = [f"chip{i}" for i in range(chips)] + [f"link{i}" for i in range(chips - 1)]
    stage_bounds = {name: np.zeros(count) for name in names}
    stage_masks = {name: np.zeros(count, dtype=bool) for name in names}
    interval_s = latency_s.copy()
    groups: Dict[int, List[int]] = {}
    for position, (partition, _) in enumerate(firsts):
        if partition is not None:
            groups.setdefault(id(partition), []).append(position)
    for positions in groups.values():
        partition = firsts[positions[0]][0]
        # Each point's pair, numbered within the group (-1: not in it).
        local = np.full(len(firsts), -1)
        local[positions] = np.arange(len(positions))
        member = local[pair_index]
        rows = np.flatnonzero(member >= 0)
        busy = np.array([terms[position][2] for position in positions])
        group_names, stages = _stages(
            segment_latency_s[rows], partition.cuts, busy[member[rows]]
        )
        interval_s[rows] = _stage_max(stages)
        for name, stage in zip(group_names, stages):
            stage_bounds[name][rows] = stage
            stage_masks[name][rows] = True
    pair_chips = [1 if p is None else p.num_chips for p, _ in firsts]
    pair_cuts = [() if p is None else p.cuts for p, _ in firsts]
    index = pair_index.tolist()
    payload = _dse_columns(
        peak_flops=np.array(pair_chips, dtype=np.float64)[pair_index]
        * _batch_column(per_chip_peak_flops),
        interval_s=interval_s,
        **columns,
    )
    payload.update(
        num_chips=[pair_chips[position] for position in index],
        cuts=[pair_cuts[position] for position in index],
        link_bytes=exact_column([term[0] for term in terms])[pair_index],
        link_s=link_s,
        max_stage_s=interval_s,
        stage_bounds_s=ColumnTable(stage_bounds, stage_masks),
    )
    return ColumnTable(payload, {key: multi for key in _CHIPLET_KEYS})


def chiplet_payload(
    *,
    segment_latency_s: Sequence[float],
    flops: float,
    ddr_bytes: int,
    lpddr_bytes: int,
    batch: int,
    num_mme: int,
    per_chip_peak_flops: float,
    cost: Tuple[float, float],
    partition: Optional[EncoderPartition] = None,
    link: Optional[InterChipLink] = None,
) -> Dict[str, Any]:
    """The ``dse_encoder`` or ``dse_chiplet`` payload of one design point:
    :func:`chiplet_table` on a batch of one.

    The engine runner feeds it the engine's per-segment latencies and
    traffic, the shape-only ``partition`` (:func:`encoder_partition`) and
    ``link`` of a multi-chip point (``None`` for one chip), and the
    ``cost`` (:func:`design_cost` of the point's config, per-chip peak,
    chip count and ``link``).  Its containers are built fresh on every
    call.
    """
    power_w, area_luts = cost
    return chiplet_table(
        segment_latency_s=np.array([list(segment_latency_s)], dtype=np.float64),
        flops=[flops],
        ddr_bytes=[ddr_bytes],
        lpddr_bytes=[lpddr_bytes],
        batch=[batch],
        num_mme=[num_mme],
        per_chip_peak_flops=[per_chip_peak_flops],
        partitions=[partition],
        links=[link],
        power_w=[power_w],
        area_luts=[area_luts],
    )[0]
