"""End-to-end execution of DNN workloads on the simulated RSN-XNN overlay.

:class:`XNNExecutor` is the equivalent of the paper's host program: it places
tensors in (simulated) off-chip memory, generates the RSN instructions for a
workload with the chosen optimisation options, runs the event-driven datapath
simulation, and collects latency, traffic, and utilisation.

A transformer encoder is executed as three simulation groups, split exactly at
the LayerNorm boundaries the paper's Table 9 also uses to group segments:

1. the Key/Query/Value projections,
2. the attention heads plus the dense projection,
3. the two feed-forward MMs.

Within a group the instruction stream is continuous, so load/store
interleaving and prolog/epilog overlap act across layer boundaries; between
groups the executor applies LayerNorm on the assembled off-chip tensor (the
mean/variance reduction spans the full hidden dimension, wider than one MemC
tile -- the time for it is charged inside MemC, the arithmetic is applied
here; see DESIGN.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workloads import reference, tensors
from ..workloads.bert import BERT_LARGE, BertConfig, bert_large_encoder
from ..workloads.layers import FusedOp, MatMulLayer, ModelSpec
from .codegen import CodegenOptions, ProgramBuilder
from .datapath import XNNConfig, XNNDatapath

__all__ = ["SegmentResult", "EncoderResult", "XNNExecutor"]


@dataclass
class SegmentResult:
    """Latency and traffic of one simulation group (or standalone segment)."""

    name: str
    latency_s: float
    flops: float
    ddr_bytes: int
    lpddr_bytes: int
    uops: int

    @property
    def achieved_tflops(self) -> float:
        if not self.latency_s:
            return 0.0
        return self.flops / self.latency_s / 1e12

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


@dataclass
class EncoderResult:
    """Aggregate result of running a workload on RSN-XNN."""

    name: str
    batch: int
    segments: List[SegmentResult] = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        return sum(segment.latency_s for segment in self.segments)

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def flops(self) -> float:
        return sum(segment.flops for segment in self.segments)

    @property
    def ddr_bytes(self) -> int:
        return sum(segment.ddr_bytes for segment in self.segments)

    @property
    def lpddr_bytes(self) -> int:
        return sum(segment.lpddr_bytes for segment in self.segments)

    @property
    def offchip_bytes(self) -> int:
        return self.ddr_bytes + self.lpddr_bytes

    @property
    def achieved_tflops(self) -> float:
        if not self.latency_s:
            return 0.0
        return self.flops / self.latency_s / 1e12

    @property
    def throughput_tasks_per_s(self) -> float:
        """Tasks (sequences through this workload) completed per second."""
        if not self.latency_s:
            return 0.0
        return self.batch / self.latency_s

    def segment(self, name: str) -> SegmentResult:
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise KeyError(f"no segment named {name!r}")


#: sentinel: "use the process-wide segment memo" (the default).
_PROCESS_MEMO = object()


# ------------------------------------------------------------ segment workloads
#
# A segment is described *before* any codegen runs as an ordered list of
# builder operations.  Each op knows how to (a) serialise itself into a
# JSON-able descriptor -- the basis of the segment-memo workload key --
# and (b) replay itself onto a :class:`ProgramBuilder` when the simulation
# actually has to happen.  The descriptor mirrors the builder-call arguments
# exactly (layer shapes, fused ops, operand names, attention geometry), so
# equal descriptors under equal ``XNNConfig``/``CodegenOptions``/code version
# are guaranteed to generate byte-identical uOP streams.


@dataclass(frozen=True)
class _GemmOp:
    """One ``add_gemm_layer`` call, deferred."""

    layer: MatMulLayer
    lhs: str
    rhs: str
    out: str
    bias: Optional[str] = None
    residual: Optional[str] = None

    def describe(self) -> Dict[str, object]:
        return {
            "op": "gemm",
            "layer": asdict(self.layer),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "out": self.out,
            "bias": self.bias,
            "residual": self.residual,
        }

    def apply(self, builder: ProgramBuilder) -> None:
        builder.add_gemm_layer(
            self.layer,
            lhs=self.lhs,
            rhs=self.rhs,
            out=self.out,
            bias=self.bias,
            residual=self.residual,
        )


@dataclass(frozen=True)
class _AttentionOp:
    """One ``add_attention`` call, deferred."""

    seq_len: int
    head_dim: int
    num_heads: int
    heads_per_sample: int
    query: str
    key: str
    value: str
    out: str

    def describe(self) -> Dict[str, object]:
        return {
            "op": "attention",
            "seq_len": self.seq_len,
            "head_dim": self.head_dim,
            "num_heads": self.num_heads,
            "heads_per_sample": self.heads_per_sample,
            "query": self.query,
            "key": self.key,
            "value": self.value,
            "out": self.out,
        }

    def apply(self, builder: ProgramBuilder) -> None:
        builder.add_attention(
            seq_len=self.seq_len,
            head_dim=self.head_dim,
            num_heads=self.num_heads,
            heads_per_sample=self.heads_per_sample,
            query=self.query,
            key=self.key,
            value=self.value,
            out=self.out,
        )


class XNNExecutor:
    """Runs workloads on a freshly built RSN-XNN datapath per simulation group.

    Parameters
    ----------
    config / options:
        Hardware configuration and codegen options, as before.
    segment_memo:
        A :class:`~repro.runner.cache.SegmentMemo` caching per-segment
        simulation results, ``None`` to disable memoization entirely, or
        the default sentinel to share the process-wide memo.  Memoization
        only applies to timing-only runs (``carry_data=False``): a
        functional run must execute the event loop to produce its tensor
        outputs.  The memo is keyed by :meth:`_workload_key`, computed
        before any :class:`ProgramBuilder` is constructed, so a hit skips
        codegen and simulation alike.  Memoized results are byte-identical
        to fresh simulation, which
        ``tests/differential/test_segment_memo_contract.py`` pins.
    """

    def __init__(
        self,
        config: Optional[XNNConfig] = None,
        options: Optional[CodegenOptions] = None,
        segment_memo=_PROCESS_MEMO,
    ):
        self.config = config or XNNConfig(carry_data=False)
        self.options = options or CodegenOptions()
        if segment_memo is _PROCESS_MEMO:
            from ..runner.cache import process_segment_memo
            segment_memo = process_segment_memo()
        self.segment_memo = segment_memo

    # ----------------------------------------------------------- primitives

    def _workload_key(self, ops: Sequence) -> str:
        """Segment-memo key: hash of the workload descriptor, not the uOPs.

        Everything the generated program is a function of appears in the
        hash -- the ordered builder-op descriptors (layer shapes, fused ops,
        operand names, attention geometry), the datapath configuration, the
        codegen options, and the code version -- so equal keys guarantee
        byte-identical uOP streams and therefore byte-identical simulations
        (pinned against fresh simulation across the catalogue by the
        differential suite).
        """
        from ..runner.cache import code_version  # runtime import: no cycle
        payload = {
            "code_version": code_version(),
            "config": asdict(self.config),
            "options": asdict(self.options),
            "workload": [op.describe() for op in ops],
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return "workload-" + hashlib.sha256(encoded.encode()).hexdigest()

    @staticmethod
    def _memoized_result(name: str, flops: float, payload: Dict) -> SegmentResult:
        return SegmentResult(
            name=name,
            latency_s=payload["latency_s"],
            flops=flops,
            ddr_bytes=payload["ddr_bytes"],
            lpddr_bytes=payload["lpddr_bytes"],
            uops=payload["uops"],
        )

    def _simulate(
        self, xnn: XNNDatapath, ops: Sequence, name: str, flops: float
    ) -> SegmentResult:
        """Simulate one segment described by ``ops``, memoized by workload.

        A memo hit on :meth:`_workload_key` returns before a
        :class:`ProgramBuilder` is even constructed (zero codegen); a miss
        generates the program, simulates it, and stores the payload under
        that key.
        """
        memo = self.segment_memo if not xnn.memory.carry_data else None
        key = None
        if memo is not None:
            key = self._workload_key(ops)
            hit = memo.load(key)
            if hit is not None:
                return self._memoized_result(name, flops, hit)
        builder = ProgramBuilder(xnn, self.options)
        for op in ops:
            op.apply(builder)
        builder.load_programs()
        uops = builder.uop_count()
        simulator = xnn.datapath.build_simulator()
        stats = simulator.run()
        result = SegmentResult(
            name=name,
            latency_s=stats.end_time,
            flops=flops,
            ddr_bytes=xnn.ddr.total_bytes,
            lpddr_bytes=xnn.lpddr.total_bytes,
            uops=uops,
        )
        if memo is not None:
            payload = {
                "latency_s": result.latency_s,
                "ddr_bytes": result.ddr_bytes,
                "lpddr_bytes": result.lpddr_bytes,
                "uops": result.uops,
            }
            memo.store(key, payload)
        return result

    def _fresh_datapath(self) -> XNNDatapath:
        return XNNDatapath(self.config)

    # ------------------------------------------------------------ single GEMM

    def run_gemm(
        self,
        m: int,
        k: int,
        n: int,
        lhs_data: Optional[np.ndarray] = None,
        rhs_data: Optional[np.ndarray] = None,
        fused_ops: Tuple[FusedOp, ...] = (),
        bias_data: Optional[np.ndarray] = None,
    ) -> Tuple[SegmentResult, Optional[np.ndarray]]:
        """Run one GEMM layer end to end; returns the result and the output."""
        xnn = self._fresh_datapath()
        memory = xnn.memory
        if lhs_data is not None and rhs_data is not None:
            memory.add("lhs", lhs_data)
            memory.add("rhs", rhs_data)
        else:
            memory.add("lhs", (m, k))
            memory.add("rhs", (k, n))
        bias_name = None
        if bias_data is not None:
            memory.add("bias", np.atleast_2d(bias_data))
            bias_name = "bias"
        memory.allocate("out", (m, n))
        layer = MatMulLayer("gemm", m=m, k=k, n=n, fused_ops=fused_ops)
        ops = [_GemmOp(layer, lhs="lhs", rhs="rhs", out="out", bias=bias_name)]
        result = self._simulate(xnn, ops, "gemm", layer.flops)
        output = memory.array("out") if memory.carry_data else None
        return result, output

    # --------------------------------------------------------------- encoder

    def _setup_encoder_memory(
        self, xnn: XNNDatapath, batch: int, seq_len: int, config: BertConfig, seed: int
    ) -> Dict[str, np.ndarray]:
        """Place encoder inputs, weights, and intermediate tensors off-chip."""
        memory = xnn.memory
        tokens = batch * seq_len
        hidden, ffn = config.hidden, config.ffn_hidden
        weights: Dict[str, np.ndarray] = {}
        if memory.carry_data:
            rng = tensors.make_rng(seed)
            weights = tensors.encoder_weights(hidden, ffn, rng)
            hidden_input = tensors.activation((tokens, hidden), rng)
            memory.add("input", hidden_input)
            for key in ("wq", "wk", "wv", "wo", "w1", "w2"):
                memory.add(key, weights[key])
            for key in ("bq", "bk", "bv", "bo", "b1", "b2"):
                memory.add(key, weights[key].reshape(1, -1))
        else:
            memory.add("input", (tokens, hidden))
            for key, shape in (
                ("wq", (hidden, hidden)),
                ("wk", (hidden, hidden)),
                ("wv", (hidden, hidden)),
                ("wo", (hidden, hidden)),
                ("w1", (hidden, ffn)),
                ("w2", (ffn, hidden)),
            ):
                memory.add(key, shape)
            for key, size in (
                ("bq", hidden),
                ("bk", hidden),
                ("bv", hidden),
                ("bo", hidden),
                ("b1", ffn),
                ("b2", hidden),
            ):
                memory.add(key, (1, size))
        for name, shape in (
            ("query", (tokens, hidden)),
            ("key", (tokens, hidden)),
            ("value", (tokens, hidden)),
            ("attn_context", (tokens, hidden)),
            ("attn_out", (tokens, hidden)),
            ("attn_norm", (tokens, hidden)),
            ("ffn_inter", (tokens, config.ffn_hidden)),
            ("ffn_out", (tokens, hidden)),
            ("encoder_out", (tokens, hidden)),
        ):
            memory.allocate(name, shape)
        return weights

    def run_encoder(
        self,
        batch: int = 6,
        seq_len: int = 512,
        config: BertConfig = BERT_LARGE,
        seed: int = tensors.DEFAULT_SEED,
    ) -> EncoderResult:
        """Run one transformer encoder layer (the paper's primary workload)."""
        spec = bert_large_encoder(batch=batch, seq_len=seq_len, config=config)
        layer = {lyr.name: lyr for lyr in spec.layers}
        result = EncoderResult(name=spec.name, batch=batch)
        self._last_heads = config.heads
        self._last_batch = batch

        # ---- group 1: Key / Query / Value projections --------------------
        xnn = self._fresh_datapath()
        weights = self._setup_encoder_memory(xnn, batch, seq_len, config, seed)
        qkv_ops = [
            _GemmOp(layer["query"], lhs="input", rhs="wq", out="query", bias="bq"),
            _GemmOp(layer["key"], lhs="input", rhs="wk", out="key", bias="bk"),
            _GemmOp(layer["value"], lhs="input", rhs="wv", out="value", bias="bv"),
        ]
        qkv_flops = sum(layer[n].flops for n in ("query", "key", "value"))
        result.segments.append(self._simulate(xnn, qkv_ops, "qkv", qkv_flops))
        memory = xnn.memory

        # ---- group 2: attention heads + dense projection ------------------
        xnn2 = self._fresh_datapath()
        self._carry_tensors(
            memory, xnn2.memory, ("input", "query", "key", "value", "wo", "bo")
        )
        for name in ("attn_context", "attn_out", "attn_norm"):
            xnn2.memory.allocate(name, memory.shape(name))
        attention_ops = [
            _AttentionOp(
                seq_len=seq_len,
                head_dim=config.head_dim,
                num_heads=batch * config.heads,
                heads_per_sample=config.heads,
                query="query",
                key="key",
                value="value",
                out="attn_context",
            ),
            _GemmOp(
                layer["dense"],
                lhs="attn_context",
                rhs="wo",
                out="attn_out",
                bias="bo",
                residual="input",
            ),
        ]
        attention_flops = (
            layer["attention_mm1"].flops
            + layer["attention_mm2"].flops
            + layer["dense"].flops
        )
        result.segments.append(
            self._simulate(xnn2, attention_ops, "attention+dense", attention_flops)
        )
        if xnn2.memory.carry_data:
            attn_out = xnn2.memory.array("attn_out")
            xnn2.memory.array("attn_norm")[:] = reference.layer_norm(
                attn_out, weights["ln1_gamma"], weights["ln1_beta"]
            )

        # ---- group 3: feed-forward network --------------------------------
        xnn3 = self._fresh_datapath()
        self._carry_tensors(xnn2.memory, xnn3.memory, ("attn_norm",))
        self._carry_tensors(memory, xnn3.memory, ("w1", "b1", "w2", "b2"))
        for name in ("ffn_inter", "ffn_out", "encoder_out"):
            xnn3.memory.allocate(name, memory.shape(name))
        ffn_ops = [
            _GemmOp(
                layer["ffn_mm1"], lhs="attn_norm", rhs="w1", out="ffn_inter", bias="b1"
            ),
            _GemmOp(
                layer["ffn_mm2"],
                lhs="ffn_inter",
                rhs="w2",
                out="ffn_out",
                bias="b2",
                residual="attn_norm",
            ),
        ]
        ffn_flops = layer["ffn_mm1"].flops + layer["ffn_mm2"].flops
        result.segments.append(self._simulate(xnn3, ffn_ops, "ffn", ffn_flops))
        if xnn3.memory.carry_data:
            ffn_out = xnn3.memory.array("ffn_out")
            xnn3.memory.array("encoder_out")[:] = reference.layer_norm(
                ffn_out, weights["ln2_gamma"], weights["ln2_beta"]
            )
            self._final_memory = xnn3.memory
        else:
            self._final_memory = xnn3.memory
        self._weights = weights
        self._input_memory = memory
        return result

    @staticmethod
    def _carry_tensors(source, destination, names) -> None:
        """Copy tensors (or just shapes) from one group's memory to the next."""
        for name in names:
            if source.carry_data:
                destination.add(name, source.array(name))
            else:
                destination.add(name, source.shape(name))

    def encoder_output(self) -> np.ndarray:
        """The final encoder output of the last :meth:`run_encoder` call."""
        return self._final_memory.array("encoder_out")

    def reference_encoder_output(self) -> np.ndarray:
        """NumPy reference output for the same inputs/weights (validation).

        The reference applies attention per sequence, so the stored input is
        processed sample by sample using the batch/sequence split of the last
        :meth:`run_encoder` call.
        """
        hidden_input = self._input_memory.array("input")
        tokens = hidden_input.shape[0]
        seq_len = tokens // self._last_batch
        outputs = []
        for sample in range(self._last_batch):
            rows = slice(sample * seq_len, (sample + 1) * seq_len)
            outputs.append(
                reference.encoder_layer(
                    hidden_input[rows], self._weights, self._last_heads
                )
            )
        return np.concatenate(outputs, axis=0)

    # ----------------------------------------------------------- plain models

    def run_feedforward_model(
        self, model: ModelSpec, seed: int = tensors.DEFAULT_SEED
    ) -> EncoderResult:
        """Run a pure-GEMM model (NCF, MLP): layers chained through DDR."""
        xnn = self._fresh_datapath()
        memory = xnn.memory
        rng = tensors.make_rng(seed)
        first = model.layers[0]
        if memory.carry_data:
            memory.add("act0", tensors.activation((first.m, first.k), rng))
        else:
            memory.add("act0", (first.m, first.k))
        ops: List[_GemmOp] = []
        total_flops = 0.0
        for index, layer in enumerate(model.layers):
            weight_name, bias_name = f"w{index}", f"b{index}"
            out_name = f"act{index + 1}"
            if memory.carry_data:
                memory.add(weight_name, tensors.weight((layer.k, layer.n), rng))
                memory.add(bias_name, tensors.bias(layer.n, rng).reshape(1, -1))
            else:
                memory.add(weight_name, (layer.k, layer.n))
                memory.add(bias_name, (1, layer.n))
            memory.allocate(out_name, (layer.m, layer.n))
            ops.append(
                _GemmOp(
                    layer,
                    lhs=f"act{index}",
                    rhs=weight_name,
                    out=out_name,
                    bias=bias_name if layer.has_fused(FusedOp.BIAS) else None,
                )
            )
            total_flops += layer.flops
        segment = self._simulate(xnn, ops, model.name, total_flops)
        result = EncoderResult(name=model.name, batch=model.batch)
        result.segments.append(segment)
        self._final_memory = memory
        return result

    # ---------------------------------------------------------------- hooks

    _final_memory = None
    _input_memory = None
    _weights: Dict[str, np.ndarray] = {}
    _last_heads: int = 16
    _last_batch: int = 1
