"""Off-chip memory channel models (DDR4 and LPDDR4 on the VCK190).

The paper treats the two off-chip channels asymmetrically: LPDDR only loads
read-only weights and biases, while DDR both loads and stores feature maps and
is therefore the channel whose load/store interleaving the RSN instructions
orchestrate (Section 4.4).  The model here captures what the evaluation
depends on:

* distinct observed read and write bandwidths (21 / 23.5 GB/s for DDR,
  20.5 GB/s for LPDDR reads -- Section 5.3),
* an efficiency penalty for strided accesses, which is why RSN-XNN stores
  data off-chip in a 128x64 blocked layout and converts on-chip,
* a single-port constraint: a channel can only serve one direction at a time,
  which is what makes the *ordering* of loads and stores a software decision
  worth exposing in the ISA.
"""

from __future__ import annotations

from dataclasses import dataclass

from .vck190 import VCK190, VCK190Spec

__all__ = ["MemoryChannelModel", "ddr_channel", "lpddr_channel"]


@dataclass
class MemoryChannelModel:
    """Bandwidth/latency model of one off-chip memory channel.

    Parameters
    ----------
    name:
        Channel name (``"DDR"`` or ``"LPDDR"``).
    read_bw / write_bw:
        Observed sequential read/write bandwidth in bytes per second.
    strided_efficiency:
        Multiplier (0..1] applied to bandwidth when an access is strided
        rather than contiguous/blocked.
    request_latency:
        Fixed latency charged once per request (controller + NoC round trip).
    bandwidth_scale:
        Global scaling knob used by the Table 11 bandwidth-sensitivity sweep
        (0.5x, 1x, 2x, 3x).
    """

    name: str
    read_bw: float
    write_bw: float
    strided_efficiency: float = 0.6
    request_latency: float = 1e-6
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ValueError(f"channel {self.name!r}: bandwidths must be positive")
        if not 0 < self.strided_efficiency <= 1:
            raise ValueError(
                f"channel {self.name!r}: strided_efficiency must be in (0, 1]"
            )
        if self.bandwidth_scale <= 0:
            raise ValueError(f"channel {self.name!r}: bandwidth_scale must be positive")
        #: lifetime counters (bytes actually moved through this model).
        self.bytes_read = 0
        self.bytes_written = 0

    # ----------------------------------------------------------- effective BW

    @property
    def effective_read_bw(self) -> float:
        return self.read_bw * self.bandwidth_scale

    @property
    def effective_write_bw(self) -> float:
        return self.write_bw * self.bandwidth_scale

    # ------------------------------------------------------------- accounting

    def read_time(self, nbytes: int, strided: bool = False) -> float:
        """Seconds to read ``nbytes`` from this channel."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        bw = self.effective_read_bw
        if strided:
            bw *= self.strided_efficiency
        self.bytes_read += nbytes
        return self.request_latency + nbytes / bw

    def write_time(self, nbytes: int, strided: bool = False) -> float:
        """Seconds to write ``nbytes`` to this channel."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        bw = self.effective_write_bw
        if strided:
            bw *= self.strided_efficiency
        self.bytes_written += nbytes
        return self.request_latency + nbytes / bw

    def _bulk_time(
        self, bandwidth: float, nbytes: int, requests: int, strided: bool
    ) -> float:
        if requests < 0:
            raise ValueError("requests must be non-negative")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0 or requests == 0:
            return 0.0
        if strided:
            bandwidth *= self.strided_efficiency
        return (
            self.request_latency
            + nbytes / bandwidth
            + (requests - 1) * self.request_latency
        )

    def bulk_read_time(
        self, nbytes: int, requests: int = 1, strided: bool = False
    ) -> float:
        """Seconds to read ``nbytes`` split across ``requests`` transfers.

        Equals the sum of ``requests`` individual :meth:`read_time` calls with
        a single aggregate bandwidth term -- the per-request fixed latency is
        charged once per transfer, exactly as the event-driven DDR/LPDDR FUs
        charge it.  The scalar form of the channel occupancy the analytic
        backend vectorizes (``repro.xnn.analytic._busy_grids``, checked
        against this method bit for bit); unlike :meth:`read_time` it is a
        pure query and does not touch the ``bytes_read`` traffic counter.
        """
        return self._bulk_time(self.effective_read_bw, nbytes, requests, strided)

    def bulk_write_time(self, nbytes: int, requests: int = 1,
                        strided: bool = False) -> float:
        """Seconds to write ``nbytes`` split across ``requests`` transfers.

        Pure query; does not touch the ``bytes_written`` traffic counter.
        """
        return self._bulk_time(self.effective_write_bw, nbytes, requests, strided)

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0

    def scaled(self, factor: float) -> "MemoryChannelModel":
        """A copy of this channel with its bandwidth scaled (Table 11 sweeps)."""
        return MemoryChannelModel(
            name=self.name,
            read_bw=self.read_bw,
            write_bw=self.write_bw,
            strided_efficiency=self.strided_efficiency,
            request_latency=self.request_latency,
            bandwidth_scale=self.bandwidth_scale * factor,
        )


def ddr_channel(
    spec: VCK190Spec = VCK190, bandwidth_scale: float = 1.0
) -> MemoryChannelModel:
    """The VCK190's DDR4 channel (feature-map loads and stores)."""
    return MemoryChannelModel(
        name="DDR",
        read_bw=spec.ddr_read_bw,
        write_bw=spec.ddr_write_bw,
        bandwidth_scale=bandwidth_scale,
    )


def lpddr_channel(
    spec: VCK190Spec = VCK190, bandwidth_scale: float = 1.0
) -> MemoryChannelModel:
    """The VCK190's LPDDR4 channel (read-only weights and biases)."""
    return MemoryChannelModel(
        name="LPDDR",
        read_bw=spec.lpddr_read_bw,
        write_bw=spec.lpddr_read_bw,
        bandwidth_scale=bandwidth_scale,
    )
