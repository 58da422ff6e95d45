"""Roofline latency estimation (used by Table 3, Table 11, and sanity checks).

The paper repeatedly reasons with the roofline formula -- latency is the
maximum of compute time at the achievable FLOP rate and transfer time at the
achievable bandwidth.  This module provides that formula once so the mapping
analysis, the bandwidth sweep bounds, and the tests all share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

__all__ = [
    "RooflinePoint",
    "ResourceRoofline",
    "roofline_latency",
    "machine_balance",
]


@dataclass(frozen=True)
class RooflinePoint:
    """One roofline evaluation."""

    flops: float
    bytes: float
    compute_s: float
    memory_s: float

    @property
    def latency_s(self) -> float:
        return max(self.compute_s, self.memory_s)

    @property
    def compute_bound(self) -> bool:
        return self.compute_s >= self.memory_s

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops / self.bytes if self.bytes else float("inf")


@dataclass(frozen=True)
class ResourceRoofline:
    """A multi-resource roofline: per-resource busy time, bottleneck, slack.

    The classic two-term roofline generalises to any number of serially
    occupied resources (the DDR channel, the LPDDR channel, the busiest MME,
    the busiest MemC, ...): each resource must be busy for at least its tallied
    time, so the segment cannot finish before the *maximum* of those times.
    This is the formula the analytic fast-model backend evaluates instead of
    running the event loop, and -- because every tallied time is a true lower
    bound on the corresponding FU's serial occupancy in the event-driven
    engine -- :attr:`latency_s` is a certified lower bound on the engine's
    cycle-level result (the differential test suite pins this contract).
    """

    busy_s: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.busy_s:
            raise ValueError("ResourceRoofline needs at least one resource")
        for resource, seconds in self.busy_s.items():
            if seconds < 0:
                raise ValueError(f"resource {resource!r} has negative busy time")

    @property
    def latency_s(self) -> float:
        return max(self.busy_s.values())

    @property
    def bottleneck(self) -> str:
        """Name of the resource whose busy time sets the latency."""
        return max(self.busy_s, key=lambda resource: self.busy_s[resource])

    def utilization(self, resource: str) -> float:
        """Fraction of the segment's span this resource is busy (1 = bottleneck)."""
        latency = self.latency_s
        if not latency:
            return 0.0
        return self.busy_s[resource] / latency

    def utilizations(self) -> Dict[str, float]:
        return {resource: self.utilization(resource) for resource in self.busy_s}


def machine_balance(achieved_flops: float, bandwidth: float) -> float:
    """FLOPs per byte at which compute and memory time are equal."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return achieved_flops / bandwidth


def roofline_latency(
    flops: float, nbytes: float, achieved_flops: float, bandwidth: float
) -> RooflinePoint:
    """Evaluate the roofline for a kernel of ``flops`` work and ``nbytes`` traffic."""
    if flops < 0 or nbytes < 0:
        raise ValueError("flops and nbytes must be non-negative")
    if achieved_flops <= 0 or bandwidth <= 0:
        raise ValueError("achieved_flops and bandwidth must be positive")
    return RooflinePoint(
        flops=flops,
        bytes=nbytes,
        compute_s=flops / achieved_flops,
        memory_s=nbytes / bandwidth,
    )
