"""Construction of the RSN-XNN datapath (Fig. 10) on a modelled VCK190.

The datapath has, by default, the FU counts of the paper's design
(``i = 6`` MMEs, ``j = 3`` MemB, ``k = 3`` MemA, ``m = 6`` MemC, one MeshA,
one MeshB, one DDR FU and one LPDDR FU) and the edge set of the block diagram:

* DDR feeds the MemA and MemB scratchpads (feature maps) and the MemC FUs
  (residual inputs), and drains MemC outputs;
* LPDDR feeds the MemB scratchpads (weights and biases);
* MeshA fans LHS tiles from MemA -- or, for chained layers, from MemC -- out
  to the MMEs; MeshB does the same for RHS tiles;
* each MME streams its results to its own MemC ("each MME consistently
  communicates with the same MemC", Section 4.2, which is why no Mesh FU
  exists on the return path).

Channel bandwidths follow the platform model: PL-internal streams are wide
(the paper's MeshB moves 9 Kb per cycle, ~300 GB/s), the PL->AIE streams carry
the per-MME share of the PLIO budget, and off-chip transfer time is charged by
the DDR/LPDDR FUs themselves (their channels are therefore untimed to avoid
double counting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core import Datapath
from ..hardware.aie import AIEArrayModel, MMEGroupPlan
from ..hardware.memory import ddr_channel, lpddr_channel
from ..hardware.vck190 import VCK190, VCK190Spec
from .fus import DDRFU, HostMemory, LPDDRFU, MMEFU, MemAFU, MemBFU, MemCFU, MeshFU

__all__ = ["XNNConfig", "XNNDatapath"]


@dataclass(frozen=True)
class XNNConfig:
    """Configuration of an RSN-XNN datapath instance.

    The defaults reproduce the paper's design point; the counts and capacities
    are exposed so ablations (fewer MMEs, smaller scratchpads, scaled off-chip
    bandwidth) can reuse the same construction code.
    """

    num_mme: int = 6
    num_mem_a: int = 3
    num_mem_b: int = 3
    num_mem_c: int = 6
    mem_a_bytes: int = 1024 * 1024
    mem_b_bytes: int = 1024 * 1024
    mem_c_bytes: int = 1024 * 1024
    mme_tile_shape: tuple = (32, 32, 32)
    carry_data: bool = True
    bandwidth_scale: float = 1.0
    pl_stream_bw: float = 300e9
    channel_capacity: int = 2
    spec: VCK190Spec = VCK190

    def __post_init__(self) -> None:
        if self.num_mme < 1 or self.num_mem_c < self.num_mme:
            raise ValueError("need at least one MME and one MemC per MME")
        if self.num_mem_a < 1 or self.num_mem_b < 1:
            raise ValueError("need at least one MemA and one MemB")
        if self.bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")
        for knob in ("mem_a_bytes", "mem_b_bytes", "mem_c_bytes"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be positive")

    @classmethod
    def for_design(cls, num_mme: int = 6, **overrides) -> "XNNConfig":
        """Build a *validated* config for one design-space point.

        This is the hardware-side mutation hook of :mod:`repro.explore`:
        unlike plain construction it (a) couples the MemC count to the MME
        count (the datapath needs one MemC per MME and the paper's extra
        MemCs carry no work in this model), and (b) checks the MME grouping
        against the AIE array's tile and stream budgets *immediately*, so an
        infeasible design point is rejected identically by the analytic and
        engine backends -- before either spends any time on it.
        """
        from ..hardware.aie import AIEArrayModel, MMEGroupPlan
        overrides.setdefault("num_mem_c", num_mme)
        overrides.setdefault("carry_data", False)
        config = cls(num_mme=num_mme, **overrides)
        AIEArrayModel(config.spec, MMEGroupPlan(num_groups=num_mme)).validate_plan()
        return config


class XNNDatapath:
    """The built RSN-XNN datapath plus the platform models it references."""

    def __init__(self, config: XNNConfig):
        self.config = config
        self.memory = HostMemory(carry_data=config.carry_data)
        self.ddr = ddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
        self.lpddr = lpddr_channel(config.spec, bandwidth_scale=config.bandwidth_scale)
        self.aie = AIEArrayModel(config.spec, MMEGroupPlan(num_groups=config.num_mme))
        self.aie.validate_plan()
        self.datapath = Datapath("rsn-xnn")
        self.mme_names: List[str] = [f"MME{i}" for i in range(config.num_mme)]
        self.mem_a_names: List[str] = [f"MemA{i}" for i in range(config.num_mem_a)]
        self.mem_b_names: List[str] = [f"MemB{i}" for i in range(config.num_mem_b)]
        self.mem_c_names: List[str] = [f"MemC{i}" for i in range(config.num_mem_c)]
        self._build()

    # ------------------------------------------------------------------ build

    def _build(self) -> None:
        config = self.config
        dp = self.datapath
        cap = config.channel_capacity

        mme_flops = self.aie.mme_flops(config.mme_tile_shape)
        plio_in_bw = self.aie.mme_input_bw() / 2.0  # LHS and RHS share the budget
        plio_out_bw = self.aie.mme_output_bw()

        self.ddr_fu = dp.add_fu(DDRFU("DDR", self.ddr, self.memory))
        self.lpddr_fu = dp.add_fu(LPDDRFU("LPDDR", self.lpddr, self.memory))
        self.mesh_a = dp.add_fu(MeshFU("MeshA", fu_type="MeshA"))
        self.mesh_b = dp.add_fu(MeshFU("MeshB", fu_type="MeshB"))
        self.mem_a = [
            dp.add_fu(MemAFU(name, config.mem_a_bytes)) for name in self.mem_a_names
        ]
        self.mem_b = [
            dp.add_fu(MemBFU(name, config.mem_b_bytes)) for name in self.mem_b_names
        ]
        self.mem_c = [
            dp.add_fu(MemCFU(name, self.memory, config.mem_c_bytes))
            for name in self.mem_c_names
        ]
        self.mme = [
            dp.add_fu(MMEFU(name, compute_throughput=mme_flops))
            for name in self.mme_names
        ]

        # DDR <-> scratchpads (off-chip timing charged inside the DDR FU).
        for mem_a in self.mem_a:
            self.ddr_fu.add_output(f"to_{mem_a.name}")
            dp.connect(self.ddr_fu, f"to_{mem_a.name}", mem_a, "from_ddr", capacity=cap)
        for mem_b in self.mem_b:
            self.ddr_fu.add_output(f"to_{mem_b.name}")
            dp.connect(self.ddr_fu, f"to_{mem_b.name}", mem_b, "from_ddr", capacity=cap)
            self.lpddr_fu.add_output(f"to_{mem_b.name}")
            dp.connect(
                self.lpddr_fu, f"to_{mem_b.name}", mem_b, "from_lpddr", capacity=cap
            )
        for mem_c in self.mem_c:
            self.ddr_fu.add_output(f"to_{mem_c.name}")
            dp.connect(self.ddr_fu, f"to_{mem_c.name}", mem_c, "from_ddr", capacity=cap)
            self.ddr_fu.add_input(f"from_{mem_c.name}")
            dp.connect(mem_c, "to_ddr", self.ddr_fu, f"from_{mem_c.name}", capacity=cap)

        # Scratchpads -> meshes (wide PL-internal streams).
        for mem_a in self.mem_a:
            self.mesh_a.add_input(f"from_{mem_a.name}")
            dp.connect(
                mem_a,
                "to_mesh",
                self.mesh_a,
                f"from_{mem_a.name}",
                capacity=cap,
                bandwidth=config.pl_stream_bw,
            )
        for mem_b in self.mem_b:
            self.mesh_b.add_input(f"from_{mem_b.name}")
            dp.connect(
                mem_b,
                "to_mesh",
                self.mesh_b,
                f"from_{mem_b.name}",
                capacity=cap,
                bandwidth=config.pl_stream_bw,
            )
        # MemC -> meshes (dynamic layer chaining).
        for mem_c in self.mem_c:
            self.mesh_a.add_input(f"from_{mem_c.name}")
            dp.connect(
                mem_c,
                "to_mesh_a",
                self.mesh_a,
                f"from_{mem_c.name}",
                capacity=cap,
                bandwidth=config.pl_stream_bw,
            )
            self.mesh_b.add_input(f"from_{mem_c.name}")
            dp.connect(
                mem_c,
                "to_mesh_b",
                self.mesh_b,
                f"from_{mem_c.name}",
                capacity=cap,
                bandwidth=config.pl_stream_bw,
            )

        # Meshes -> MMEs (PLIO streams) and MMEs -> their MemC.
        for index, mme in enumerate(self.mme):
            self.mesh_a.add_output(f"to_{mme.name}")
            dp.connect(
                self.mesh_a,
                f"to_{mme.name}",
                mme,
                "lhs",
                capacity=cap,
                bandwidth=plio_in_bw,
            )
            self.mesh_b.add_output(f"to_{mme.name}")
            dp.connect(
                self.mesh_b,
                f"to_{mme.name}",
                mme,
                "rhs",
                capacity=cap,
                bandwidth=plio_in_bw,
            )
            dp.connect(
                mme,
                "out",
                self.mem_c[index],
                "from_mme",
                capacity=cap,
                bandwidth=plio_out_bw,
            )

    # ------------------------------------------------------------- accessors

    @property
    def fu_names_by_type(self) -> Dict[str, List[str]]:
        return {
            "DDR": ["DDR"],
            "LPDDR": ["LPDDR"],
            "MeshA": ["MeshA"],
            "MeshB": ["MeshB"],
            "MemA": list(self.mem_a_names),
            "MemB": list(self.mem_b_names),
            "MemC": list(self.mem_c_names),
            "MME": list(self.mme_names),
        }

    def mem_c_for(self, mme_name: str) -> str:
        """The MemC wired to a given MME."""
        index = self.mme_names.index(mme_name)
        return self.mem_c_names[index]

    def reset(self) -> None:
        """Clear per-run statistics on the datapath and the off-chip channels."""
        self.datapath.reset_stats()
        self.ddr.reset()
        self.lpddr.reset()

    def fu_properties(self) -> List[Dict[str, object]]:
        """Per-FU compute/memory/bandwidth properties (the Fig. 16 data)."""
        properties = []
        mme_flops = self.aie.mme_flops(self.config.mme_tile_shape)
        for name in self.mme_names:
            properties.append(
                {
                    "fu": name,
                    "tflops": mme_flops / 1e12,
                    "memory_mb": self.aie.mme_local_memory_bytes() / 2**20,
                    "bandwidth_gbs": (
                        self.aie.mme_input_bw() + self.aie.mme_output_bw()
                    )
                    / 1e9,
                }
            )
        for name in self.mem_a_names:
            properties.append(
                {
                    "fu": name,
                    "tflops": 0.0,
                    "memory_mb": self.config.mem_a_bytes / 2**20,
                    "bandwidth_gbs": 2 * self.config.pl_stream_bw / 1e9,
                }
            )
        for name in self.mem_b_names:
            properties.append(
                {
                    "fu": name,
                    "tflops": 0.0,
                    "memory_mb": self.config.mem_b_bytes / 2**20,
                    "bandwidth_gbs": 2 * self.config.pl_stream_bw / 1e9,
                }
            )
        for index, name in enumerate(self.mem_c_names):
            properties.append(
                {
                    "fu": name,
                    "tflops": self.mem_c[index].compute_throughput / 1e12,
                    "memory_mb": self.config.mem_c_bytes / 2**20,
                    "bandwidth_gbs": (
                        self.aie.mme_output_bw() + self.ddr.effective_write_bw
                    )
                    / 1e9,
                }
            )
        for mesh in ("MeshA", "MeshB"):
            properties.append(
                {
                    "fu": mesh,
                    "tflops": 0.0,
                    "memory_mb": 0.0,
                    "bandwidth_gbs": self.config.num_mme
                    * self.aie.mme_input_bw()
                    / 2
                    / 1e9,
                }
            )
        properties.append(
            {
                "fu": "DDR",
                "tflops": 0.0,
                "memory_mb": 0.0,
                "bandwidth_gbs": (
                    self.ddr.effective_read_bw + self.ddr.effective_write_bw
                )
                / 1e9,
            }
        )
        properties.append(
            {
                "fu": "LPDDR",
                "tflops": 0.0,
                "memory_mb": 0.0,
                "bandwidth_gbs": self.lpddr.effective_read_bw / 1e9,
            }
        )
        return properties
