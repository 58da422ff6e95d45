"""The named design-space catalogue.

Four spaces ship with the repository:

* ``encoder`` -- the full RSN-XNN encoder design space the paper's results
  are points in: workload shape (batch, sequence length), GEMM tile sizes,
  the attention mapping (pipelined vs task-by-task, Fig. 3 types D vs B),
  off-chip bandwidth scaling, MemB scratchpad depth, and the MME count.
  A few thousand raw points; the feasibility constraints prune combinations
  whose RHS tile cannot fit the scratchpad and MME counts the AIE array
  cannot group.
* ``encoder-smoke`` -- a 16-point slice of the same space for CI smoke runs
  and the test suite: small sequence lengths so even the engine-verification
  phase completes in seconds.
* ``chiplet-encoder`` -- the multi-chip scale-out axis on top of the encoder
  space: chip count, inter-chip link bandwidth and per-hop latency join the
  per-chip axes, so the search trades chip count vs link bandwidth vs
  per-chip scratchpad -- with area and energy available as weighted
  objectives (``dse_chiplet`` kind).
* ``chiplet-smoke`` -- a 12-point chiplet slice for CI smoke runs.

All evaluate through scenario kinds that support the ``analytic`` backend
(search proxy) and the ``engine`` backend (verification) over identical
parameters.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from .space import Axis, Constraint, DesignSpace

__all__ = ["SPACES", "get_space", "space_names"]

_KIB = 1024

#: fp32 element size; must match the executor/analytic tile arithmetic.
_ELEMENT_BYTES = 4


def _rhs_tile_fits_memb(assignment: Mapping[str, Any]) -> bool:
    """The RHS weight tile (tile_k x super_n) must fit one MemB scratchpad."""
    tile_bytes = assignment["tile_k"] * assignment["super_n"] * _ELEMENT_BYTES
    return tile_bytes <= assignment["mem_b_bytes"]


def _mme_plan_fits(assignment: Mapping[str, Any]) -> bool:
    """The MME grouping must fit the AIE array's tile and stream budgets."""
    from ..xnn import XNNConfig

    try:
        XNNConfig.for_design(num_mme=assignment["num_mme"])
    except ValueError:
        return False
    return True


def _encoder_space() -> DesignSpace:
    return DesignSpace(
        name="encoder",
        kind="dse_encoder",
        description="RSN-XNN BERT-Large encoder layer design space",
        base_params={"model": "bert_large"},
        axes=(
            Axis("batch", (1, 4), "workload batch size"),
            Axis("seq_len", (128, 256, 384), "workload sequence length"),
            Axis(
                "pipeline_attention",
                (False, True),
                "attention mapping: Fig. 3 type B (off-chip scores) vs "
                "type D (pipelined heads)",
            ),
            Axis("tile_m", (384, 768), "LHS/output row-tile extent"),
            Axis("tile_k", (64, 128), "accumulation tile extent"),
            Axis("super_n", (512, 1024), "output super-column extent"),
            Axis("bandwidth_scale", (0.5, 1.0, 2.0), "DDR+LPDDR bandwidth scaling"),
            Axis(
                "mem_b_bytes",
                (256 * _KIB, 1024 * _KIB),
                "MemB weight-scratchpad depth",
            ),
            Axis("num_mme", (3, 4, 6), "MME FU count (AIE groups)"),
        ),
        constraints=(
            Constraint(
                "rhs_tile_fits_memb",
                _rhs_tile_fits_memb,
                "tile_k * super_n * 4B <= mem_b_bytes",
                axes=("tile_k", "super_n", "mem_b_bytes"),
            ),
            Constraint(
                "mme_plan_fits",
                _mme_plan_fits,
                "MME grouping fits the AIE tile/stream budget",
                axes=("num_mme",),
            ),
        ),
    )


def _encoder_smoke_space() -> DesignSpace:
    return DesignSpace(
        name="encoder-smoke",
        kind="dse_encoder",
        description="16-point encoder slice for CI smoke runs",
        base_params={"model": "bert_large", "batch": 1},
        axes=(
            Axis("seq_len", (64, 128)),
            Axis("pipeline_attention", (False, True)),
            Axis("tile_m", (256, 768)),
            Axis("bandwidth_scale", (1.0, 2.0)),
        ),
    )


def _chips_cover_segments(assignment: Mapping[str, Any]) -> bool:
    """Every chip needs at least one of the encoder's simulation groups."""
    from ..xnn.partition import ENCODER_SEGMENT_NAMES

    return assignment["num_chips"] <= len(ENCODER_SEGMENT_NAMES)


def _chiplet_space() -> DesignSpace:
    return DesignSpace(
        name="chiplet-encoder",
        kind="dse_chiplet",
        description="Multi-chip scale-out of the RSN-XNN encoder design space",
        base_params={"model": "bert_large"},
        axes=(
            Axis("batch", (1, 4), "workload batch size"),
            Axis("seq_len", (128, 256), "workload sequence length"),
            Axis(
                "pipeline_attention",
                (False, True),
                "attention mapping: Fig. 3 type B vs type D",
            ),
            Axis("tile_m", (384, 768), "LHS/output row-tile extent"),
            Axis("tile_k", (64, 128), "accumulation tile extent"),
            Axis("super_n", (512, 1024), "output super-column extent"),
            Axis("bandwidth_scale", (1.0, 2.0), "DDR+LPDDR bandwidth scaling"),
            Axis(
                "mem_b_bytes",
                (256 * _KIB, 1024 * _KIB),
                "per-chip MemB weight-scratchpad depth",
            ),
            Axis("num_mme", (3, 6), "per-chip MME FU count (AIE groups)"),
            Axis("num_chips", (1, 2, 3), "chips in the segment pipeline"),
            Axis(
                "link_gbs",
                (16.0, 64.0, 256.0),
                "inter-chip link bandwidth (GB/s)",
            ),
            Axis("link_hop_us", (0.5, 2.0), "per-hop link latency (us)"),
        ),
        constraints=(
            Constraint(
                "rhs_tile_fits_memb",
                _rhs_tile_fits_memb,
                "tile_k * super_n * 4B <= mem_b_bytes",
                axes=("tile_k", "super_n", "mem_b_bytes"),
            ),
            Constraint(
                "mme_plan_fits",
                _mme_plan_fits,
                "MME grouping fits the AIE tile/stream budget",
                axes=("num_mme",),
            ),
            Constraint(
                "chips_cover_segments",
                _chips_cover_segments,
                "num_chips <= encoder simulation-group count",
                axes=("num_chips",),
            ),
        ),
    )


def _chiplet_smoke_space() -> DesignSpace:
    return DesignSpace(
        name="chiplet-smoke",
        kind="dse_chiplet",
        description="12-point chiplet slice for CI smoke runs",
        base_params={"model": "bert_large", "batch": 1},
        axes=(
            Axis("seq_len", (64, 128)),
            Axis("num_chips", (1, 2, 3)),
            Axis("link_gbs", (16.0, 256.0)),
        ),
    )


#: name -> zero-argument space factory.  Factories (not instances) so each
#: caller gets an independent object and import stays cheap.
SPACES = {
    "encoder": _encoder_space,
    "encoder-smoke": _encoder_smoke_space,
    "chiplet-encoder": _chiplet_space,
    "chiplet-smoke": _chiplet_smoke_space,
}


def space_names() -> List[str]:
    return sorted(SPACES)


def get_space(name: str) -> DesignSpace:
    try:
        factory = SPACES[name]
    except KeyError:
        raise KeyError(
            f"unknown design space {name!r}; known: {space_names()}"
        ) from None
    return factory()
