"""Instruction-overhead analysis (Fig. 9 and the Section 5.1 statistics).

Given an RSN program (and, optionally, the execution latency and FLOPs of the
workload it drives), this module computes the quantities the paper reports:

* RSN instruction bytes vs translated uOP bytes per FU type and the resulting
  compression ratios (Fig. 9),
* the number of RSN instructions per FU type (Section 5.1's 1685-instruction
  breakdown),
* the instruction processing rate (bytes of instructions per second of
  execution) and its fraction of off-chip bandwidth, and
* the compute-to-instruction ratio in FLOPs per instruction byte (the paper's
  "1 byte of instruction drives up to 1.6 GFLOPs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core import InstructionSizeReport, RSNProgram
from ..hardware.vck190 import VCK190, VCK190Spec

__all__ = ["InstructionAnalysis", "analyze_program"]


@dataclass
class InstructionAnalysis:
    """Derived instruction-overhead statistics for one program."""

    size_report: InstructionSizeReport
    packet_count: int
    instruction_bytes: int
    uop_bytes: int
    aie_uop_bytes: int = 0
    latency_s: Optional[float] = None
    flops: Optional[float] = None
    spec: VCK190Spec = VCK190

    # ------------------------------------------------------------ per-type

    def compression_ratios(self) -> Dict[str, float]:
        return {fu_type: self.size_report.compression_ratio(fu_type)
                for fu_type in self.size_report.fu_types()}

    # ------------------------------------------------------------- aggregate

    @property
    def instruction_processing_rate(self) -> Optional[float]:
        """Bytes of RSN instructions consumed per second of execution."""
        if not self.latency_s:
            return None
        return self.instruction_bytes / self.latency_s

    @property
    def bandwidth_fraction(self) -> Optional[float]:
        """Instruction traffic as a fraction of total off-chip bandwidth."""
        rate = self.instruction_processing_rate
        if rate is None:
            return None
        return rate / self.spec.total_offchip_bw

    @property
    def flops_per_instruction_byte(self) -> Optional[float]:
        """Compute-to-instruction ratio (includes AIE-local control words)."""
        if self.flops is None:
            return None
        total_bytes = self.instruction_bytes + self.aie_uop_bytes
        if not total_bytes:
            return None
        return self.flops / total_bytes


def analyze_program(program: RSNProgram, latency_s: Optional[float] = None,
                    flops: Optional[float] = None, aie_uop_bytes: int = 0,
                    spec: VCK190Spec = VCK190) -> InstructionAnalysis:
    """Compute the Fig. 9 / Section 5.1 statistics for ``program``."""
    report = program.size_report()
    return InstructionAnalysis(
        size_report=report,
        packet_count=program.packet_count,
        instruction_bytes=program.nbytes,
        uop_bytes=report.total_uop_bytes(),
        aie_uop_bytes=aie_uop_bytes,
        latency_s=latency_s,
        flops=flops,
        spec=spec,
    )
