"""Output-stationary GEMM tiling for RSN-XNN (Section 5.3).

The paper's tiling keeps the output stationary on chip and accumulates
completely along K before storing: the LHS tile is 768x128, the RHS tile is
128x1024, and the output super-tile is 768x1024, "enabling 768x reuse of RHS,
1024x reuse of LHS, and an efficient output accumulation".  The 1024-wide
output super-tile is split column-wise across the MME FUs, each of which
accumulates its own slice and drains it to its MemC.

:func:`plan_gemm_tiling` computes the concrete block boundaries for an
arbitrary ``M x K x N`` layer, shrinking the tile sizes when the layer is
smaller than the defaults and handling non-divisible edges explicitly, so the
code generator can walk the plan without any further arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "Block",
    "GemmTiling",
    "plan_gemm_tiling",
    "DEFAULT_TILE_M",
    "DEFAULT_TILE_K",
    "DEFAULT_SUPER_N",
]


DEFAULT_TILE_M = 768
DEFAULT_TILE_K = 128
DEFAULT_SUPER_N = 1024


@dataclass(frozen=True)
class Block:
    """A half-open index range ``[start, start + size)`` along one dimension."""

    start: int
    size: int

    @property
    def stop(self) -> int:
        return self.start + self.size


def _split(extent: int, tile: int) -> List[Block]:
    """Split ``extent`` into blocks of at most ``tile`` elements."""
    blocks = []
    start = 0
    while start < extent:
        size = min(tile, extent - start)
        blocks.append(Block(start, size))
        start += size
    return blocks


def _split_even(extent: int, parts: int) -> List[Block]:
    """Split ``extent`` into up to ``parts`` contiguous, near-equal blocks."""
    parts = min(parts, extent)
    base = extent // parts
    remainder = extent % parts
    blocks = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        blocks.append(Block(start, size))
        start += size
    return blocks


@dataclass(frozen=True)
class GemmTiling:
    """The complete tiling of one ``M x K x N`` GEMM across the MME FUs.

    Attributes
    ----------
    m_blocks / k_blocks / n_super_blocks:
        Row blocks of the LHS/output, K accumulation steps, and output
        super-column blocks.
    mme_columns:
        For each super-column block, the per-MME column sub-blocks (relative
        to the super-block start they are absolute coordinates into N).
    """

    m: int
    k: int
    n: int
    tile_m: int
    tile_k: int
    super_n: int
    num_mme: int
    m_blocks: Tuple[Block, ...]
    k_blocks: Tuple[Block, ...]
    n_super_blocks: Tuple[Block, ...]
    mme_columns: Tuple[Tuple[Block, ...], ...]

    # ------------------------------------------------------------- queries

    @property
    def k_steps(self) -> int:
        return len(self.k_blocks)

    @property
    def supertile_count(self) -> int:
        return len(self.m_blocks) * len(self.n_super_blocks)

    def active_mmes(self, n_super_index: int) -> int:
        """Number of MMEs that have columns to work on in one super-block."""
        return len(self.mme_columns[n_super_index])

    def lhs_reuse(self) -> float:
        """How many times each loaded LHS element is used (paper: 1024x)."""
        return self.n / len(self.n_super_blocks)

    def rhs_reuse(self) -> float:
        """How many times each loaded RHS element is used (paper: 768x)."""
        return self.m / len(self.m_blocks)


def plan_gemm_tiling(
    m: int,
    k: int,
    n: int,
    num_mme: int = 6,
    tile_m: int = DEFAULT_TILE_M,
    tile_k: int = DEFAULT_TILE_K,
    super_n: int = DEFAULT_SUPER_N,
) -> GemmTiling:
    """Plan the output-stationary tiling of an ``m x k x n`` GEMM.

    Tile sizes are clipped to the layer dimensions; the per-MME column split
    uses as many MMEs as there are columns (small layers simply leave some
    MMEs idle, which is exactly the under-utilisation the mapping analysis of
    Table 3 talks about).
    """
    if min(m, k, n) <= 0:
        raise ValueError(f"GEMM dimensions must be positive, got {(m, k, n)}")
    if num_mme < 1:
        raise ValueError("num_mme must be >= 1")
    tile_m = min(tile_m, m)
    tile_k = min(tile_k, k)
    super_n = min(super_n, n)

    m_blocks = tuple(_split(m, tile_m))
    k_blocks = tuple(_split(k, tile_k))
    n_super_blocks = tuple(_split(n, super_n))
    mme_columns = tuple(
        tuple(
            Block(super_block.start + sub.start, sub.size)
            for sub in _split_even(super_block.size, num_mme)
        )
        for super_block in n_super_blocks
    )
    return GemmTiling(
        m=m,
        k=k,
        n=n,
        tile_m=tile_m,
        tile_k=tile_k,
        super_n=super_n,
        num_mme=num_mme,
        m_blocks=m_blocks,
        k_blocks=k_blocks,
        n_super_blocks=n_super_blocks,
        mme_columns=mme_columns,
    )
