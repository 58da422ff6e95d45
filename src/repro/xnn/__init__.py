"""RSN-XNN: the transformer-encoder overlay case study (Section 4).

The package mirrors the structure of the paper's Section 4:

* :mod:`repro.xnn.fus` -- the functional units of Fig. 10 / Table 2 (MME,
  MemA/B/C, MeshA/B, DDR, LPDDR) implemented as kernel generators over the
  core engine;
* :mod:`repro.xnn.datapath` -- construction of the RSN-XNN datapath on a
  modelled VCK190 (Section 4.1 / 4.2);
* :mod:`repro.xnn.tiling` -- the output-stationary GEMM tiling of Section 5.3;
* :mod:`repro.xnn.codegen` -- instruction generation for GEMM and attention
  segments with the optimisation knobs of Table 9 (fine-grained load/store
  interleaving, attention pipelining, prolog/epilog overlap);
* :mod:`repro.xnn.mapping` -- the mapping-type analysis of Fig. 3 / Table 3;
* :mod:`repro.xnn.bandwidth` -- the Fig. 12 load/store orderings and the
  Table 11 bandwidth sweep helpers;
* :mod:`repro.xnn.segmentation` -- the model-segmentation decision process of
  Section 4.2;
* :mod:`repro.xnn.partition` -- the multi-chip scale-out axis: contiguous
  partitioning of the encoder's simulation groups over chips, the inter-chip
  link accounting, and the shared ``dse_chiplet`` payload constructor;
* :mod:`repro.xnn.executor` -- the end-to-end runner that turns a
  :class:`~repro.workloads.layers.ModelSpec` into simulated latency,
  utilisation, and (optionally) validated numerics.
"""

from .datapath import XNNConfig, XNNDatapath, build_xnn_datapath
from .tiling import GemmTiling, plan_gemm_tiling
from .codegen import CodegenOptions, ProgramBuilder
from .executor import SegmentResult, EncoderResult, XNNExecutor
from .analytic import AnalyticSegment, AnalyticXNN
from .mapping import (
    MappingType,
    MappingEstimate,
    attention_mapping_type,
    estimate_mapping_latency,
    compare_mapping_types,
)
from .bandwidth import (
    LoadStoreOrdering,
    analytic_bandwidth_sweep,
    bandwidth_sweep_latency,
)
from .segmentation import Segment, SegmentKind, segment_model
from .partition import (
    ChipletMetrics,
    EncoderPartition,
    chiplet_metrics,
    chiplet_payload,
    design_cost,
    encoder_boundary_bytes,
    encoder_partition,
    encoder_segment_flops,
    partition_segments,
)

__all__ = [
    "AnalyticSegment",
    "AnalyticXNN",
    "ChipletMetrics",
    "CodegenOptions",
    "EncoderResult",
    "GemmTiling",
    "LoadStoreOrdering",
    "MappingEstimate",
    "MappingType",
    "ProgramBuilder",
    "Segment",
    "SegmentKind",
    "SegmentResult",
    "XNNConfig",
    "XNNDatapath",
    "XNNExecutor",
    "analytic_bandwidth_sweep",
    "attention_mapping_type",
    "bandwidth_sweep_latency",
    "build_xnn_datapath",
    "chiplet_metrics",
    "chiplet_payload",
    "compare_mapping_types",
    "design_cost",
    "encoder_boundary_bytes",
    "encoder_partition",
    "encoder_segment_flops",
    "partition_segments",
    "plan_gemm_tiling",
    "segment_model",
]
