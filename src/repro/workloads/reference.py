"""NumPy reference implementations used to validate the simulated datapath.

These are the "python_gold" equivalents of the paper's artifact: straight
NumPy implementations of the operators RSN-XNN executes (tiled GEMM, bias,
softmax, GELU, LayerNorm, the attention block, and a whole encoder layer).
The functional-level simulation of the overlay must reproduce these outputs
bit-for-bit up to floating-point reassociation, which the integration tests
check with tight tolerances.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = [
    "gemm",
    "softmax",
    "gelu",
    "layer_norm",
    "attention_head",
    "multi_head_attention",
    "encoder_layer",
    "tiled_gemm",
]


def gemm(
    lhs: np.ndarray, rhs: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Plain ``lhs @ rhs`` with an optional broadcast bias add."""
    out = lhs @ rhs
    if bias is not None:
        out = out + bias
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU with the tanh approximation used by BERT."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """LayerNorm over the last dimension (the mean/variance/normalisation plus
    scale-and-shift pipeline that MemC and the MMEs split between them)."""
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    normalised = (x - mean) / np.sqrt(var + eps)
    return normalised * gamma + beta


def attention_head(
    query: np.ndarray, key: np.ndarray, value: np.ndarray, scale: Optional[float] = None
) -> np.ndarray:
    """Single attention head: softmax(Q K^T / sqrt(d)) V.

    ``query``/``key``/``value`` are ``(seq, head_dim)``.  This is the MM1 ->
    softmax -> MM2 chain that RSN-XNN pipelines on chip.
    """
    head_dim = query.shape[-1]
    if scale is None:
        scale = 1.0 / np.sqrt(head_dim)
    scores = query @ key.T * scale
    weights = softmax(scores, axis=-1)
    return weights @ value


def multi_head_attention(
    hidden: np.ndarray, weights: Dict[str, np.ndarray], num_heads: int
) -> np.ndarray:
    """Full multi-head self-attention block for one sequence.

    ``hidden`` is ``(seq, hidden)``; ``weights`` holds ``wq/wk/wv/wo`` of shape
    ``(hidden, hidden)`` and ``bq/bk/bv/bo`` of shape ``(hidden,)``.
    """
    seq, width = hidden.shape
    if width % num_heads:
        raise ValueError("hidden width must be divisible by num_heads")
    head_dim = width // num_heads
    query = gemm(hidden, weights["wq"], weights["bq"])
    key = gemm(hidden, weights["wk"], weights["bk"])
    value = gemm(hidden, weights["wv"], weights["bv"])
    context = np.empty_like(query)
    for head in range(num_heads):
        sl = slice(head * head_dim, (head + 1) * head_dim)
        context[:, sl] = attention_head(query[:, sl], key[:, sl], value[:, sl])
    return gemm(context, weights["wo"], weights["bo"])


def encoder_layer(
    hidden: np.ndarray, weights: Dict[str, np.ndarray], num_heads: int
) -> np.ndarray:
    """One transformer encoder layer (attention + FFN, post-LN as in BERT)."""
    attention_out = multi_head_attention(hidden, weights, num_heads)
    attention_out = layer_norm(
        attention_out + hidden, weights["ln1_gamma"], weights["ln1_beta"]
    )
    ffn = gemm(attention_out, weights["w1"], weights["b1"])
    ffn = gelu(ffn)
    ffn = gemm(ffn, weights["w2"], weights["b2"])
    return layer_norm(ffn + attention_out, weights["ln2_gamma"], weights["ln2_beta"])


def tiled_gemm(
    lhs: np.ndarray, rhs: np.ndarray, tile_m: int, tile_k: int, tile_n: int
) -> np.ndarray:
    """Output-stationary tiled GEMM, accumulating along K tile by tile.

    Used by tests to confirm that tiling (the way the overlay streams tiles
    through the MMEs) is numerically equivalent to the whole-matrix product up
    to floating-point reassociation.
    """
    m, k = lhs.shape
    k2, n = rhs.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {k} vs {k2}")
    out = np.zeros((m, n), dtype=np.result_type(lhs, rhs))
    for i in range(0, m, tile_m):
        for j in range(0, n, tile_n):
            accumulator = np.zeros(
                (min(tile_m, m - i), min(tile_n, n - j)), dtype=out.dtype
            )
            for p in range(0, k, tile_k):
                accumulator += (
                    lhs[i : i + tile_m, p : p + tile_k]
                    @ rhs[p : p + tile_k, j : j + tile_n]
                )
            out[i : i + tile_m, j : j + tile_n] = accumulator
    return out
