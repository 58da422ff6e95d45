"""The layer-level data model shared by the overlay, baselines and analyses.

Everything the evaluation runs boils down to sequences of (possibly very many
instances of) matrix multiplications with a few fused elementwise or reduction
operators around them.  :class:`MatMulLayer` captures one such linear layer
the way the paper's tables describe them -- ``M x K x N x Num`` with a list of
combined non-MM operators (Table 9's "Combined non-MMs" column) -- plus where
its operands live, which is what the bandwidth orchestration cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Tuple

__all__ = ["FusedOp", "MatMulLayer", "ModelSpec", "DTYPE_BYTES"]


#: bytes per element for the precisions the paper discusses.
DTYPE_BYTES = {"fp32": 4, "fp16": 2, "int16": 2, "int8": 1}


class FusedOp(str, Enum):
    """Non-MM operators fused with a linear layer (Table 2 / Table 9)."""

    BIAS = "bias"
    SOFTMAX = "softmax"
    GELU = "gelu"
    TRANSPOSE = "transpose"
    LAYER_ADD = "layer_add"
    SCALE_SHIFT = "scale_shift"
    MEAN_VAR_NORM = "mean_var_norm"


@dataclass(frozen=True)
class MatMulLayer:
    """One linear layer: ``Num`` independent ``M x K x N`` matrix multiplies.

    Parameters
    ----------
    name:
        Human-readable layer name (``"attention_mm1"``).
    m, k, n:
        GEMM dimensions of a single instance (LHS is ``m x k``, RHS ``k x n``).
    num:
        Number of independent instances (e.g. 96 attention heads at batch 6).
    fused_ops:
        Non-MM operators executed together with this layer.
    lhs_offchip / rhs_offchip / out_offchip:
        Whether each operand starts/ends in off-chip memory.  Intermediate
        tensors kept on chip by pipelined mappings set these to ``False``.
    rhs_is_weight:
        Weights/biases come from LPDDR; activations come from DDR.
    dtype:
        Element type (``"fp32"`` everywhere in the paper's experiments).
    depends_on:
        Names of layers whose output this layer consumes (data dependences
        used by segmentation and by the mapping-type analysis).
    """

    name: str
    m: int
    k: int
    n: int
    num: int = 1
    fused_ops: Tuple[FusedOp, ...] = ()
    lhs_offchip: bool = True
    rhs_offchip: bool = True
    out_offchip: bool = True
    rhs_is_weight: bool = True
    dtype: str = "fp32"
    depends_on: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0 or self.num <= 0:
            raise ValueError(
                f"layer {self.name!r}: dimensions and num must be positive"
            )
        if self.dtype not in DTYPE_BYTES:
            raise ValueError(f"layer {self.name!r}: unknown dtype {self.dtype!r}")

    # -------------------------------------------------------------- volumes

    @property
    def element_bytes(self) -> int:
        return DTYPE_BYTES[self.dtype]

    @property
    def flops(self) -> float:
        """Total multiply-accumulate FLOPs (2 per MAC) over all instances."""
        return 2.0 * self.m * self.k * self.n * self.num

    @property
    def lhs_bytes(self) -> int:
        return self.m * self.k * self.num * self.element_bytes

    @property
    def rhs_bytes(self) -> int:
        return self.k * self.n * self.num * self.element_bytes

    @property
    def out_bytes(self) -> int:
        return self.m * self.n * self.num * self.element_bytes

    @property
    def offchip_load_bytes(self) -> int:
        """Bytes that must be loaded from off-chip for one execution."""
        total = 0
        if self.lhs_offchip:
            total += self.lhs_bytes
        if self.rhs_offchip:
            total += self.rhs_bytes
        return total

    @property
    def offchip_store_bytes(self) -> int:
        return self.out_bytes if self.out_offchip else 0

    @property
    def offchip_bytes(self) -> int:
        return self.offchip_load_bytes + self.offchip_store_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per off-chip byte (used by the roofline analyses)."""
        offchip = self.offchip_bytes
        if not offchip:
            return float("inf")
        return self.flops / offchip

    # ------------------------------------------------------------ modifiers

    def with_batch(
        self, batch: int, batch_scales_m: bool = True, batch_scales_num: bool = False
    ) -> "MatMulLayer":
        """Scale the layer for a batch size.

        Transformer linear layers grow their M dimension with batch (tokens
        are concatenated), while per-head attention MMs multiply their
        instance count instead.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        layer = self
        if batch_scales_m:
            layer = replace(layer, m=self.m * batch)
        if batch_scales_num:
            layer = replace(layer, num=self.num * batch)
        return layer

    def kept_onchip(
        self, lhs: bool = False, rhs: bool = False, out: bool = False
    ) -> "MatMulLayer":
        """A copy with selected operands marked as staying on chip."""
        return replace(
            self,
            lhs_offchip=self.lhs_offchip and not lhs,
            rhs_offchip=self.rhs_offchip and not rhs,
            out_offchip=self.out_offchip and not out,
        )

    def has_fused(self, op: FusedOp) -> bool:
        return op in self.fused_ops


@dataclass(frozen=True)
class ModelSpec:
    """A full model: an ordered list of linear layers plus metadata.

    ``layers_per_task`` describes what the paper calls a *task* (one encoder
    layer for BERT/ViT, the full network for NCF/MLP); throughput comparisons
    are reported in tasks per second.
    """

    name: str
    layers: Tuple[MatMulLayer, ...]
    batch: int = 1
    sequence_length: Optional[int] = None
    tasks_per_inference: int = 1

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"model {self.name!r} has no layers")

    @property
    def total_flops(self) -> float:
        return sum(layer.flops for layer in self.layers)

    @property
    def total_offchip_bytes(self) -> int:
        return sum(layer.offchip_bytes for layer in self.layers)

    def layer(self, name: str) -> MatMulLayer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"model {self.name!r} has no layer {name!r}")
