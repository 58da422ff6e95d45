"""The scenario catalogue: every benchmark table/figure point as data.

Importing this module populates :data:`repro.runner.scenarios.REGISTRY` with

* the runner functions for each scenario *kind* (end-to-end GEMM, encoder
  run, CHARM baseline point, mapping-type estimate, ...), and
* one named scenario per benchmark data point (``table6b/gemm-1024``,
  ``fig18/rsn-b6``, ``table11/bw-2x``, ...), tagged by the table or figure
  it reproduces.

Every kind declares the execution backends it supports.  Simulation kinds
(``xnn_*``, ``dse_*``, ``engine_chain``) register two implementations: the
event-driven ``engine`` backend and the closed-form ``analytic`` backend,
whose latency is a certified lower bound on the engine's result (pinned by
``tests/differential/``).  Kinds that are analytical by nature (CHARM,
mapping estimates, GPU rooflines, ...) register one backend-independent
function for both.

Runner functions take only JSON-able keyword parameters and return JSON-able
dicts, so every scenario can be executed in a worker process and cached on
disk byte-for-byte (:mod:`repro.runner.sweep`, :mod:`repro.runner.cache`).

The analytic roofline kinds (``xnn_gemm``, ``xnn_encoder``,
``xnn_feedforward``, ``dse_encoder``, ``dse_chiplet``) have one
implementation each: a *batch runner* over a whole list of parameter sets,
resolved by :class:`~repro.xnn.analytic.EncoderBatchEvaluator`
(``_analytic_kind``).  Their scalar runner is that batch runner applied to
one parameter set.  Batch runners are what sharded **chunk jobs** execute
-- a distributed sweep or exploration ships a contiguous slice of a
generation as a single job, and the worker runs the slice through the batch
runner in one call (:func:`repro.runner.sweep.evaluate_chunked`,
:mod:`repro.runner.worker`), so per-job overhead amortises over the whole
chunk while results stay byte-identical to the serial batched path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .scenarios import REGISTRY

__all__ = ["REGISTRY"]


# --------------------------------------------------------------------- helpers


def _codegen_options(options: Optional[Dict[str, Any]]):
    from repro.xnn import CodegenOptions

    return CodegenOptions(**(options or {}))


def _xnn_config(bandwidth_scale: float = 1.0, **overrides):
    from repro.xnn import XNNConfig

    return XNNConfig(carry_data=False, bandwidth_scale=bandwidth_scale, **overrides)


def _encoder_config(model: str):
    """Encoder hyper-parameters by name, shared by both backends of the
    ``xnn_encoder`` kind so their supported models cannot diverge."""
    from repro.workloads.bert import BERT_LARGE
    from repro.workloads.vit import VIT_BASE

    configs = {"bert_large": BERT_LARGE, "vit_base": VIT_BASE}
    if model not in configs:
        raise KeyError(f"unknown encoder model {model!r}; known: {sorted(configs)}")
    return configs[model]


def _feedforward_builder(model: str):
    """Feed-forward model builder by name, shared by both backends."""
    from repro.workloads import mlp_model, ncf_model

    builders = {"ncf": ncf_model, "mlp": mlp_model}
    if model not in builders:
        raise KeyError(
            f"unknown feedforward model {model!r}; known: {sorted(builders)}"
        )
    return builders[model]


def _segment_dict(segment) -> Dict[str, Any]:
    return {
        "name": segment.name,
        "latency_s": segment.latency_s,
        "flops": segment.flops,
        "ddr_bytes": segment.ddr_bytes,
        "lpddr_bytes": segment.lpddr_bytes,
        "uops": segment.uops,
    }


def _encoder_dict(result) -> Dict[str, Any]:
    return {
        "name": result.name,
        "batch": result.batch,
        "latency_s": result.latency_s,
        "latency_ms": result.latency_ms,
        "flops": result.flops,
        "ddr_bytes": result.ddr_bytes,
        "lpddr_bytes": result.lpddr_bytes,
        "offchip_bytes": result.offchip_bytes,
        "achieved_tflops": result.achieved_tflops,
        "throughput_tasks_per_s": result.throughput_tasks_per_s,
        "segments": [_segment_dict(s) for s in result.segments],
    }


def _analytic_segment_dict(segment) -> Dict[str, Any]:
    payload = _segment_dict(segment)
    payload["bottleneck"] = segment.bottleneck
    payload["bounds_s"] = dict(segment.bounds_s)
    payload["utilization"] = dict(segment.utilization)
    if segment.mapping:
        payload["mapping"] = segment.mapping
    return payload


def _analytic_encoder_dict(result) -> Dict[str, Any]:
    payload = _encoder_dict(result)
    payload["segments"] = [_analytic_segment_dict(s) for s in result.segments]
    return payload


def _analytic_kind(name: str):
    """Register ``fn(param_sets, evaluator) -> payloads`` as the only
    analytic implementation of kind ``name``.

    The batch runner evaluates on the process-wide
    :func:`~repro.xnn.analytic.encoder_batch_evaluator`, whose memoized
    tallies outlive one generation or chunk.  The scalar runner is the same
    function applied to ``[params]`` on a fresh
    :class:`~repro.xnn.analytic.EncoderBatchEvaluator`, so one scenario's
    payload never depends on what the process evaluated before it.
    """

    def register(fn):
        def scalar(**params) -> dict:
            from repro.xnn.analytic import EncoderBatchEvaluator

            return fn([params], EncoderBatchEvaluator())[0]

        def batch(param_sets: List[Dict[str, Any]]) -> List[dict]:
            from repro.xnn.analytic import encoder_batch_evaluator

            return fn(param_sets, encoder_batch_evaluator())

        REGISTRY.kind(name, backend="analytic")(scalar)
        REGISTRY.batch_kind(name, backend="analytic")(batch)
        return fn

    return register


# ---------------------------------------------------------------- kind runners


@REGISTRY.kind("aie_gemm", backend=("engine", "analytic"))
def run_aie_gemm(shape: List[int]) -> dict:
    """Single-kernel AIE-array GEMM throughput for one tile shape (Table 6a)."""
    from repro.hardware.aie import AIEArrayModel

    aie = AIEArrayModel()
    flops = aie.array_gemm_flops(tuple(shape))
    return {"shape": list(shape), "gflops": flops / 1e9}


@REGISTRY.kind("xnn_gemm")
def run_xnn_gemm(
    m: int,
    k: int,
    n: int,
    options: Optional[Dict[str, Any]] = None,
    bandwidth_scale: float = 1.0,
) -> dict:
    """End-to-end square/rectangular GEMM on the simulated datapath (Table 6b)."""
    from repro.xnn import XNNExecutor

    executor = XNNExecutor(
        config=_xnn_config(bandwidth_scale), options=_codegen_options(options)
    )
    result, _ = executor.run_gemm(m, k, n)
    payload = _segment_dict(result)
    payload["gflops"] = (
        result.flops / result.latency_s / 1e9 if result.latency_s else 0.0
    )
    return payload


def _gemm_point(
    m: int,
    k: int,
    n: int,
    options: Optional[Dict[str, Any]] = None,
    bandwidth_scale: float = 1.0,
):
    """One ``xnn_gemm`` parameter set as an evaluator point: a one-layer
    feed-forward model, labelled with the task-parallel mapping.  Same
    signature as the engine runner, so unknown or missing parameters fail
    identically on either backend."""
    from repro.workloads.layers import MatMulLayer, ModelSpec
    from repro.xnn.mapping import MappingType

    gemm = ModelSpec("gemm", (MatMulLayer("gemm", m=m, k=k, n=n),))
    return (
        _xnn_config(bandwidth_scale),
        _codegen_options(options),
        ("feedforward", gemm, MappingType.TASK_PARALLEL.value),
    )


@_analytic_kind("xnn_gemm")
def estimate_xnn_gemm(param_sets: List[Dict[str, Any]], evaluator) -> List[dict]:
    """Analytic lower-bound estimate of the end-to-end GEMM (Table 6b)."""
    points = [_gemm_point(**params) for params in param_sets]
    payloads = []
    for result in evaluator.results(points):
        segment = result.segments[0]
        payload = _analytic_segment_dict(segment)
        payload["gflops"] = (
            segment.flops / segment.latency_s / 1e9 if segment.latency_s else 0.0
        )
        payloads.append(payload)
    return payloads


@REGISTRY.kind("xnn_encoder")
def run_xnn_encoder(
    batch: int,
    seq_len: int,
    model: str = "bert_large",
    options: Optional[Dict[str, Any]] = None,
    bandwidth_scale: float = 1.0,
) -> dict:
    """One transformer encoder layer on the simulated datapath."""
    from repro.xnn import XNNExecutor

    executor = XNNExecutor(
        config=_xnn_config(bandwidth_scale), options=_codegen_options(options)
    )
    result = executor.run_encoder(
        batch=batch, seq_len=seq_len, config=_encoder_config(model)
    )
    return _encoder_dict(result)


def _encoder_point(
    batch: int,
    seq_len: int,
    model: str = "bert_large",
    options: Optional[Dict[str, Any]] = None,
    bandwidth_scale: float = 1.0,
):
    """One ``xnn_encoder`` parameter set as an evaluator point.  Same
    signature as the engine runner, so unknown or missing parameters fail
    identically on either backend."""
    return (
        _xnn_config(bandwidth_scale),
        _codegen_options(options),
        ("encoder", batch, seq_len, _encoder_config(model)),
    )


@_analytic_kind("xnn_encoder")
def estimate_xnn_encoder(param_sets: List[Dict[str, Any]], evaluator) -> List[dict]:
    """Analytic lower-bound estimate of encoder layers, per segment."""
    points = [_encoder_point(**params) for params in param_sets]
    return [_analytic_encoder_dict(result) for result in evaluator.results(points)]


@REGISTRY.kind("xnn_feedforward")
def run_xnn_feedforward(
    model: str, batch: int, options: Optional[Dict[str, Any]] = None
) -> dict:
    """A pure-GEMM model (NCF / MLP) chained through DDR (Table 7)."""
    from repro.xnn import XNNExecutor

    executor = XNNExecutor(config=_xnn_config(), options=_codegen_options(options))
    result = executor.run_feedforward_model(_feedforward_builder(model)(batch=batch))
    return _encoder_dict(result)


def _feedforward_point(
    model: str, batch: int, options: Optional[Dict[str, Any]] = None
):
    """One ``xnn_feedforward`` parameter set as an evaluator point."""
    spec = _feedforward_builder(model)(batch=batch)
    return (_xnn_config(), _codegen_options(options), ("feedforward", spec, ""))


@_analytic_kind("xnn_feedforward")
def estimate_xnn_feedforward(param_sets: List[Dict[str, Any]], evaluator) -> List[dict]:
    """Analytic lower-bound estimate of pure-GEMM models (Table 7)."""
    points = [_feedforward_point(**params) for params in param_sets]
    return [_analytic_encoder_dict(result) for result in evaluator.results(points)]


@REGISTRY.kind("charm_gemm", backend=("engine", "analytic"))
def run_charm_gemm(size: int) -> dict:
    """CHARM baseline end-to-end square-MM throughput (Table 6b column)."""
    from repro.baselines import CharmModel

    return {"size": size, "gflops": CharmModel().gemm_throughput_gflops(size)}


@REGISTRY.kind("charm_encoder", backend=("engine", "analytic"))
def run_charm_encoder(batch: int, seq_len: int) -> dict:
    """CHARM BERT-Large encoder point with six-batch scheduling (Fig. 18)."""
    from repro.baselines import CharmModel
    from repro.workloads import bert_large_encoder

    charm = CharmModel()
    scheduled = max(batch, charm.schedule_batch)
    encoder = bert_large_encoder(batch=scheduled, seq_len=seq_len)
    return {
        "batch": batch,
        "scheduled_batch": scheduled,
        "latency_ms": charm.model_latency(encoder) * 1e3,
        "throughput_tasks_per_s": charm.throughput_tasks_per_s(
            encoder, useful_tasks=batch
        ),
    }


@REGISTRY.kind("mapping_types", backend=("engine", "analytic"))
def run_mapping_types(batch: int, seq_len: int) -> dict:
    """Latency estimates of the four mapping types on BERT attention (Table 3)."""
    from repro.workloads import bert_large_encoder
    from repro.xnn.mapping import compare_mapping_types

    encoder = bert_large_encoder(batch=batch, seq_len=seq_len)
    estimates = compare_mapping_types(
        encoder.layer("attention_mm1"), encoder.layer("attention_mm2")
    )
    return {
        mapping.value: {
            "bandwidth_bound_s": estimate.bandwidth_bound_s,
            "compute_bound_s": estimate.compute_bound_s,
            "used_aie_fraction": estimate.used_aie_fraction,
            "final_latency_ms": estimate.final_latency_ms,
        }
        for mapping, estimate in estimates.items()
    }


@REGISTRY.kind("fu_properties", backend=("engine", "analytic"))
def run_fu_properties() -> dict:
    """Per-FU compute/memory/bandwidth inventory of the datapath (Fig. 16)."""
    from repro.xnn import XNNDatapath

    xnn = XNNDatapath(_xnn_config())
    return {"rows": xnn.fu_properties()}


#: physical constants of the synthetic engine-chain pipeline, shared by the
#: engine implementation and its analytic twin so they cannot drift apart.
_CHAIN_MSG_BYTES = 64
_CHAIN_CHANNEL_BW = 1e9
_CHAIN_DELAY_S = 1e-9


@REGISTRY.kind("engine_chain")
def run_engine_chain(
    n_msgs: int = 2000,
    stages: int = 2,
    capacity: int = 4,
    fast_zero_delay: bool = True,
) -> dict:
    """A synthetic producer->relay->consumer pipeline on the raw engine.

    Used by the determinism tests and the CI smoke sweep: cheap, exercises the
    read/write fast path, and its stats are exactly reproducible.
    """
    from repro.core import Delay, Read, Simulator, StreamChannel, Write

    class _Msg:
        __slots__ = ("nbytes",)

        def __init__(self) -> None:
            self.nbytes = _CHAIN_MSG_BYTES

    sim = Simulator(fast_zero_delay=fast_zero_delay)
    channels = [
        StreamChannel(f"c{i}", capacity=capacity, bandwidth=_CHAIN_CHANNEL_BW)
        for i in range(stages + 1)
    ]

    def producer():
        # Requests are immutable: hoist the per-iteration constants so the
        # loop measures engine throughput, not dataclass allocation.
        delay = Delay(_CHAIN_DELAY_S)
        first = channels[0]
        for _ in range(n_msgs):
            yield delay
            yield Write(first, _Msg())

    def relay(index: int):
        read_in = Read(channels[index])
        out = channels[index + 1]
        for _ in range(n_msgs):
            message = yield read_in
            yield Write(out, message)

    def consumer():
        read_last = Read(channels[stages])
        for _ in range(n_msgs):
            yield read_last

    sim.add_process("producer", producer())
    for index in range(stages):
        sim.add_process(f"relay{index}", relay(index))
    sim.add_process("consumer", consumer())
    stats = sim.run()
    return {
        "events": stats.events,
        "end_time": stats.end_time,
        "processes": stats.processes,
    }


@REGISTRY.kind("engine_chain", backend="analytic")
def estimate_engine_chain(
    n_msgs: int = 2000,
    stages: int = 2,
    capacity: int = 4,
    fast_zero_delay: bool = True,
) -> dict:
    """Closed-form lower bound on the synthetic pipeline's end time.

    The producer must serially pay ``n_msgs`` delays plus ``n_msgs`` channel
    transfers; the final message must then traverse the remaining ``stages``
    relays, one transfer each.  Event counts are an artefact of the engine's
    scheduling and are not modelled (``None``).
    """
    transfer_s = _CHAIN_MSG_BYTES / _CHAIN_CHANNEL_BW
    end_time = n_msgs * (_CHAIN_DELAY_S + transfer_s) + stages * transfer_s
    return {"events": None, "end_time": end_time, "processes": stages + 2}


def _dse_design(
    num_mme: int,
    mem_b_bytes: int,
    bandwidth_scale: float,
    pipeline_attention: bool,
    tile_m: int,
    tile_k: int,
    super_n: int,
):
    """Materialise one design point's hardware config and codegen options.

    The validated :meth:`~repro.xnn.datapath.XNNConfig.for_design` /
    :meth:`~repro.xnn.codegen.CodegenOptions.with_overrides` hooks reject
    infeasible points before the engine spends any time on them (the
    analytic evaluator builds its probe configs through the same checks).
    """
    from repro.xnn import CodegenOptions, XNNConfig

    config = XNNConfig.for_design(
        num_mme=num_mme, mem_b_bytes=mem_b_bytes, bandwidth_scale=bandwidth_scale
    )
    options = CodegenOptions.with_overrides(
        pipeline_attention=pipeline_attention,
        tile_m=tile_m,
        tile_k=tile_k,
        super_n=super_n,
    )
    return config, options


def _engine_design_point(batch: int, seq_len: int, model: str, **design):
    """One encoder design point on the cycle-level engine.

    Returns ``(result, config, per-chip peak FLOP/s)`` -- what the DSE
    payload constructors of :mod:`repro.xnn.partition` need besides the
    cost.
    """
    from repro.hardware.aie import AIEArrayModel, MMEGroupPlan
    from repro.xnn import XNNExecutor

    config, options = _dse_design(**design)
    executor = XNNExecutor(config=config, options=options)
    result = executor.run_encoder(
        batch=batch, seq_len=seq_len, config=_encoder_config(model)
    )
    aie = AIEArrayModel(config.spec, MMEGroupPlan(num_groups=config.num_mme))
    return result, config, config.num_mme * aie.mme_flops(config.mme_tile_shape)


@REGISTRY.kind("dse_encoder")
def run_dse_encoder(
    batch: int = 1,
    seq_len: int = 128,
    model: str = "bert_large",
    num_mme: int = 6,
    mem_b_bytes: int = 1024 * 1024,
    bandwidth_scale: float = 1.0,
    pipeline_attention: bool = True,
    tile_m: int = 768,
    tile_k: int = 128,
    super_n: int = 1024,
) -> dict:
    """Cycle-level evaluation of one encoder design point (DSE verification)."""
    from repro.xnn.partition import design_cost, dse_payload

    result, config, peak_flops = _engine_design_point(
        batch,
        seq_len,
        model,
        num_mme=num_mme,
        mem_b_bytes=mem_b_bytes,
        bandwidth_scale=bandwidth_scale,
        pipeline_attention=pipeline_attention,
        tile_m=tile_m,
        tile_k=tile_k,
        super_n=super_n,
    )
    return dse_payload(
        latency_s=result.latency_s,
        flops=result.flops,
        ddr_bytes=result.ddr_bytes,
        lpddr_bytes=result.lpddr_bytes,
        batch=batch,
        num_mme=config.num_mme,
        peak_flops=peak_flops,
        cost=design_cost(config, peak_flops),
    )


@_analytic_kind("dse_encoder")
def estimate_dse_encoder(param_sets: List[Dict[str, Any]], evaluator) -> List[dict]:
    """Analytic-proxy evaluation of encoder design points (DSE search)."""
    return evaluator.evaluate_batch(param_sets, _encoder_config)


@REGISTRY.kind("dse_chiplet")
def run_dse_chiplet(
    batch: int = 1,
    seq_len: int = 128,
    model: str = "bert_large",
    num_mme: int = 6,
    mem_b_bytes: int = 1024 * 1024,
    bandwidth_scale: float = 1.0,
    pipeline_attention: bool = True,
    tile_m: int = 768,
    tile_k: int = 128,
    super_n: int = 1024,
    num_chips: int = 1,
    link_gbs: float = 64.0,
    link_hop_us: float = 1.0,
    link_serialization_us: float = 0.0,
) -> dict:
    """Cycle-level evaluation of one multi-chip encoder design point.

    ``num_chips=1`` delegates to the single-chip ``dse_encoder`` runner
    verbatim, so the payload is byte-identical by construction (the certified
    contract the chiplet differential suite pins).  For more chips, the
    engine supplies the per-segment latencies and traffic; the partition,
    link terms, cost and payload arithmetic are the same
    :func:`~repro.xnn.partition.chiplet_payload` call the analytic evaluator
    makes, so the chiplet analytic latency inherits the per-segment
    lower-bound contract and the traffic stays byte-identical.
    """
    design = dict(
        num_mme=num_mme,
        mem_b_bytes=mem_b_bytes,
        bandwidth_scale=bandwidth_scale,
        pipeline_attention=pipeline_attention,
        tile_m=tile_m,
        tile_k=tile_k,
        super_n=super_n,
    )
    if num_chips == 1:
        return run_dse_encoder(batch=batch, seq_len=seq_len, model=model, **design)
    from repro.hardware.link import InterChipLink
    from repro.xnn.partition import chiplet_payload, design_cost, encoder_partition

    result, config, per_chip_peak = _engine_design_point(
        batch, seq_len, model, **design
    )
    link = InterChipLink.from_design(link_gbs, link_hop_us, link_serialization_us)
    return chiplet_payload(
        segment_latency_s=[segment.latency_s for segment in result.segments],
        flops=result.flops,
        ddr_bytes=result.ddr_bytes,
        lpddr_bytes=result.lpddr_bytes,
        batch=batch,
        partition=encoder_partition(
            batch, seq_len, num_chips, config=_encoder_config(model)
        ),
        num_mme=config.num_mme,
        per_chip_peak_flops=per_chip_peak,
        link=link,
        cost=design_cost(config, per_chip_peak, num_chips=num_chips, link=link),
    )


@_analytic_kind("dse_chiplet")
def estimate_dse_chiplet(param_sets: List[Dict[str, Any]], evaluator) -> List[dict]:
    """Analytic-proxy evaluation of multi-chip encoder design points."""
    return evaluator.evaluate_chiplet_batch(param_sets, _encoder_config)


@REGISTRY.kind("gpu_roofline", backend=("engine", "analytic"))
def run_gpu_roofline(gpu: str, batch: int, seq_len: int = 384) -> dict:
    """Roofline latency estimate of full BERT-Large on a Table 10 GPU.

    Purely analytical (the paper never runs on these GPUs either): combines
    the :class:`~repro.hardware.gpu.GPUModel` roofline with the BERT-Large
    layer inventory, next to the published measurement for that batch size.
    """
    from repro.hardware.gpu import GPU_SPECS, GPUModel
    from repro.workloads.bert import bert_large_model

    if gpu not in GPU_SPECS:
        raise KeyError(f"unknown GPU {gpu!r}; known: {sorted(GPU_SPECS)}")
    spec = GPU_SPECS[gpu]
    model = GPUModel(spec)
    workload = bert_large_model(batch=batch, seq_len=seq_len)
    latency_s = model.estimate_latency(
        flops=workload.total_flops,
        dram_bytes=float(workload.total_offchip_bytes),
        batch=batch,
        num_kernels=len(workload.layers),
    )
    return {
        "gpu": spec.key,
        "batch": batch,
        "seq_len": seq_len,
        "latency_s": latency_s,
        "latency_ms": latency_s * 1e3,
        "published_latency_ms": spec.published_latency_ms.get(batch),
        "memory_bound": model.is_memory_bound(
            workload.total_flops, float(workload.total_offchip_bytes), batch
        ),
        "sequences_per_joule": model.sequences_per_joule(batch, latency_s),
    }


# ------------------------------------------------------------------ catalogue


def _register_catalogue() -> None:
    # Table 6a: single-kernel AIE GEMM throughput per tile shape.
    for shape in ((32, 16, 32), (32, 32, 16), (32, 32, 32)):
        REGISTRY.add(
            f"table6a/aie-{'x'.join(map(str, shape))}",
            "aie_gemm",
            {"shape": list(shape)},
            tags=("table6", "table6a", "analytic"),
            description="AIE-only GEMM throughput (Table 6a)",
        )

    # Table 6b: end-to-end square MM with DRAM, vs the CHARM model.
    for size in (1024, 3072, 6144):
        REGISTRY.add(
            f"table6b/gemm-{size}",
            "xnn_gemm",
            {"m": size, "k": size, "n": size},
            tags=("table6", "table6b", "sim"),
            description="End-to-end square GEMM throughput (Table 6b)",
        )
        REGISTRY.add(
            f"table6b/charm-{size}",
            "charm_gemm",
            {"size": size},
            tags=("table6", "table6b", "charm", "analytic"),
            description="CHARM end-to-end GEMM model point (Table 6b)",
        )

    # Table 9: the optimisation-knob ablation on the BERT-Large encoder.
    table9_variants = {
        "no-optimize": {
            "interleave_load_store": False,
            "pipeline_attention": False,
            "overlap_prolog_epilog": False,
        },
        "bw-optimized": {
            "interleave_load_store": True,
            "pipeline_attention": False,
            "overlap_prolog_epilog": False,
        },
        "pipeline-attention": {
            "interleave_load_store": False,
            "pipeline_attention": True,
            "overlap_prolog_epilog": False,
        },
        "all-optimizations": {
            "interleave_load_store": True,
            "pipeline_attention": True,
            "overlap_prolog_epilog": True,
        },
    }
    for variant, options in table9_variants.items():
        REGISTRY.add(
            f"table9/{variant}",
            "xnn_encoder",
            {"batch": 6, "seq_len": 512, "options": options},
            tags=("table9", "sim"),
            description="BERT-Large encoder, B=6 L=512 (Table 9 ablation)",
        )

    # Table 11: off-chip bandwidth sensitivity, L=384 B=8.
    for scale in (0.5, 1.0, 2.0, 3.0):
        REGISTRY.add(
            f"table11/bw-{scale:g}x",
            "xnn_encoder",
            {"batch": 8, "seq_len": 384, "bandwidth_scale": scale},
            tags=("table11", "sim"),
            description="BERT-Large encoder with scaled off-chip BW (Table 11)",
        )

    # Fig. 18: latency/throughput across batch sizes, RSN vs CHARM.
    for batch in (1, 2, 3, 6, 12, 24):
        REGISTRY.add(
            f"fig18/rsn-b{batch}",
            "xnn_encoder",
            {"batch": batch, "seq_len": 512},
            tags=("fig18", "sim"),
            description="BERT-Large encoder across batch sizes (Fig. 18)",
        )
        REGISTRY.add(
            f"fig18/charm-b{batch}",
            "charm_encoder",
            {"batch": batch, "seq_len": 512},
            tags=("fig18", "charm", "analytic"),
            description="CHARM encoder model across batch sizes (Fig. 18)",
        )

    # Table 7: latency per task at maximum throughput for four models.
    REGISTRY.add(
        "table7/bert",
        "xnn_encoder",
        {"batch": 6, "seq_len": 512},
        tags=("table7", "sim"),
        description="BERT-Large encoder, B=6 L=512 (Table 7)",
    )
    REGISTRY.add(
        "table7/vit",
        "xnn_encoder",
        {"batch": 6, "seq_len": 208, "model": "vit_base"},
        tags=("table7", "sim"),
        description="ViT-Base encoder, B=6 L=208 (Table 7)",
    )
    REGISTRY.add(
        "table7/ncf",
        "xnn_feedforward",
        {"model": "ncf", "batch": 16384},
        tags=("table7", "sim"),
        description="NCF MLP tower (Table 7)",
    )
    REGISTRY.add(
        "table7/mlp",
        "xnn_feedforward",
        {"model": "mlp", "batch": 3072},
        tags=("table7", "sim"),
        description="5-layer MLP (Table 7)",
    )

    # Table 8 reuses the BERT peak-throughput run; register the point under
    # its own name so the table can be regenerated in isolation.
    REGISTRY.add(
        "table8/encoder-peak",
        "xnn_encoder",
        {"batch": 6, "seq_len": 512},
        tags=("table8", "sim"),
        description="BERT-Large encoder peak-throughput point (Table 8)",
    )

    # Table 10: GPU comparison runs, L=384 across batch sizes.
    for batch in (1, 2, 4, 8):
        REGISTRY.add(
            f"table10/l384-b{batch}",
            "xnn_encoder",
            {"batch": batch, "seq_len": 384},
            tags=("table10", "sim"),
            description="BERT-Large encoder, L=384 (Table 10 GPU comparison)",
        )

    # Table 10: GPU roofline estimates next to the published latencies.
    for gpu in ("T4-fp32", "V100-fp32", "A100-fp32", "A100-fp16", "L4-fp32"):
        for batch in (1, 8):
            REGISTRY.add(
                f"table10/{gpu.lower()}-b{batch}",
                "gpu_roofline",
                {"gpu": gpu, "batch": batch, "seq_len": 384},
                tags=("table10", "gpu", "analytic"),
                description="GPU roofline, full BERT-Large L=384 (Table 10)",
            )

    # Table 3: mapping-type estimates; Fig. 16: FU property inventory.
    REGISTRY.add(
        "table3/mapping-types",
        "mapping_types",
        {"batch": 6, "seq_len": 512},
        tags=("table3", "analytic"),
        description="Mapping-type latency estimates (Table 3)",
    )
    REGISTRY.add(
        "fig16/fu-properties",
        "fu_properties",
        {},
        tags=("fig16", "table4", "analytic"),
        description="Per-FU compute/memory/BW inventory (Fig. 16 / Table 4)",
    )

    # Chiplet scale-out reference points.  The first two are the certified
    # identity pair: a num_chips=1 dse_chiplet point and the dse_encoder
    # point with the same parameters must produce byte-identical payloads.
    chiplet_base = {"batch": 1, "seq_len": 128, "num_mme": 6}
    REGISTRY.add(
        "chiplet/1chip-identity",
        "dse_chiplet",
        {**chiplet_base, "num_chips": 1},
        tags=("chiplet", "smoke", "sim"),
        description="Single-chip chiplet point (byte-identical to dse_encoder)",
    )
    REGISTRY.add(
        "chiplet/encoder-reference",
        "dse_encoder",
        dict(chiplet_base),
        tags=("chiplet", "smoke", "sim"),
        description="dse_encoder reference for the num_chips=1 identity",
    )
    REGISTRY.add(
        "chiplet/2chip-64gbs",
        "dse_chiplet",
        {**chiplet_base, "num_chips": 2, "link_gbs": 64.0},
        tags=("chiplet", "smoke", "sim"),
        description="Two-chip encoder pipeline over a 64 GB/s link",
    )
    REGISTRY.add(
        "chiplet/3chip-16gbs",
        "dse_chiplet",
        {**chiplet_base, "num_chips": 3, "link_gbs": 16.0},
        tags=("chiplet", "smoke", "sim"),
        description="Three-chip encoder pipeline over a slow 16 GB/s link",
    )

    # Cheap synthetic engine scenarios for smoke tests and determinism checks.
    REGISTRY.add(
        "smoke/engine-chain",
        "engine_chain",
        {"n_msgs": 2000, "stages": 2},
        tags=("smoke",),
        description="Synthetic engine pipeline (CI smoke / determinism)",
    )
    REGISTRY.add(
        "smoke/engine-chain-deep",
        "engine_chain",
        {"n_msgs": 500, "stages": 6},
        tags=("smoke",),
        description="Deeper synthetic engine pipeline (CI smoke)",
    )


_register_catalogue()

# The serving-layer kind (``serve_sim``) and its named scenarios live with
# the simulator; importing them here means every registry consumer -- the
# CLI, sweeps, and detached work-queue workers -- sees them.
from ..serve import simulate as _serve_simulate  # noqa: E402,F401
