"""Model segmentation: deciding how layers are grouped onto the datapath.

Section 4.2 describes a three-stage decision process whose first stage is
model segmentation: "Compute-bound layers are segmented individually, whereas
multiple memory-bound layers are grouped together and executed in a pipelined
manner to reduce on-chip data accesses", and additionally layers are grouped
to overlap prolog and epilog phases.

:func:`segment_model` applies those rules to a :class:`ModelSpec`:

* a chain of dependent, memory-bound layers whose intermediate tensor fits in
  the on-chip budget becomes one *pipelined* segment (mapping type D) --
  BERT's attention MM1/MM2 pair is the canonical case;
* every other layer becomes its own *single* segment (all MMEs work on that
  one layer at a time), with prolog/epilog overlap applied between consecutive
  segments by the code generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..hardware.vck190 import VCK190, VCK190Spec
from ..workloads.layers import MatMulLayer, ModelSpec

__all__ = ["SegmentKind", "Segment", "segment_model", "is_memory_bound"]


class SegmentKind(str, Enum):
    SINGLE = "single"          # one layer at a time, all MMEs on it
    PIPELINED = "pipelined"    # dependent layers chained through the network


@dataclass(frozen=True)
class Segment:
    """A group of layers executed as one scheduling unit."""

    name: str
    kind: SegmentKind
    layers: Tuple[MatMulLayer, ...]

    @property
    def flops(self) -> float:
        return sum(layer.flops for layer in self.layers)


def is_memory_bound(layer: MatMulLayer, spec: VCK190Spec = VCK190,
                    achieved_flops: float = 6.7e12) -> bool:
    """Is the layer limited by off-chip bandwidth rather than compute?

    Compares the layer's arithmetic intensity against the machine balance
    (achieved FLOP/s divided by aggregate off-chip bandwidth), using the same
    formula the roofline analyses and the analytic backend share.
    """
    from ..analysis.roofline import machine_balance
    balance = machine_balance(achieved_flops, spec.observed_offchip_bw)
    return layer.arithmetic_intensity < balance


def _per_instance_intermediate(layer: MatMulLayer) -> int:
    """On-chip bytes needed to hold one instance's output of ``layer``."""
    return layer.m * layer.n * layer.element_bytes


def segment_model(
    model: ModelSpec,
    spec: VCK190Spec = VCK190,
    onchip_budget_bytes: Optional[int] = None,
    achieved_flops: float = 6.7e12,
) -> List[Segment]:
    """Group a model's layers into single and pipelined segments.

    A dependent pair (producer, consumer) is pipelined when both are
    memory-bound and one instance of the producer's output fits in the on-chip
    budget; otherwise layers run as single segments.  This reproduces the
    paper's decisions for BERT-Large: the attention MM1/MM2 pair is pipelined
    (1 MB per head fits), while the feed-forward pair is not (over 25 MB of
    intermediates would be needed).
    """
    if onchip_budget_bytes is None:
        onchip_budget_bytes = spec.onchip_memory_bytes
    by_name: Dict[str, MatMulLayer] = {layer.name: layer for layer in model.layers}
    consumed: set = set()
    segments: List[Segment] = []

    layers = list(model.layers)
    for index, layer in enumerate(layers):
        if layer.name in consumed:
            continue
        # look for a direct consumer that could be pipelined with this layer.
        consumer = None
        for candidate in layers[index + 1:]:
            if layer.name in candidate.depends_on:
                consumer = candidate
                break
        can_pipeline = (
            consumer is not None
            and consumer.name not in consumed
            and is_memory_bound(layer, spec, achieved_flops)
            and is_memory_bound(consumer, spec, achieved_flops)
            and _per_instance_intermediate(layer) <= onchip_budget_bytes
        )
        if can_pipeline:
            pipelined_producer = layer.kept_onchip(out=True)
            pipelined_consumer = consumer.kept_onchip(lhs=True)
            segments.append(Segment(
                name=f"{layer.name}+{consumer.name}",
                kind=SegmentKind.PIPELINED,
                layers=(pipelined_producer, pipelined_consumer),
            ))
            consumed.add(layer.name)
            consumed.add(consumer.name)
        else:
            segments.append(Segment(name=layer.name, kind=SegmentKind.SINGLE,
                                    layers=(layer,)))
            consumed.add(layer.name)
    return segments
