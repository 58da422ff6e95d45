"""The generic layer-serial overlay baseline (von-Neumann, RISC-like ISA).

Two uses in the paper:

* Fig. 6 contrasts an RSN datapath with a vector-ISA overlay on two toy
  applications; the vector overlay serialises on write-after-read hazards
  because its coarse "registers" (whole on-chip buffers) cannot be renamed.
  :class:`VectorOverlayModel` reproduces that behaviour at instruction
  granularity so the Fig. 6 benchmark can show the stall.
* Table 9's "No Optimize" column is RSN-XNN driven like a typical overlay:
  one layer at a time, no fine-grained bandwidth mapping, attention scores
  through DDR.  That baseline is produced by running the real RSN-XNN
  simulator with ``CodegenOptions.baseline()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["VectorOverlayModel"]


@dataclass
class VectorOverlayModel:
    """A cycle-level model of the Fig. 6 baseline overlay.

    The datapath has one load unit, one add unit, one store unit and three
    100-element vector registers (v1 loads, v2 holds the constant, v3 results).
    Instructions execute in order; an instruction may start only when the
    instructions producing its sources have finished *and* no earlier
    instruction still needs the register it overwrites (WAR hazard on v1 --
    exactly the stall discussed in Section 3.1).
    """

    load_cycles: int = 100
    add_cycles: int = 100
    store_cycles: int = 100

    def run(self, program: Sequence[Tuple[str, str, Tuple[str, ...]]]) -> int:
        """Execute ``(op, dest_register, source_registers)`` tuples; return cycles.

        ``op`` is one of ``load``, ``add``, ``store`` (``store`` has no dest).
        """
        duration = {"load": self.load_cycles, "add": self.add_cycles,
                    "store": self.store_cycles}
        register_ready: Dict[str, int] = {}
        register_last_read: Dict[str, int] = {}
        time = 0
        for op, dest, sources in program:
            if op not in duration:
                raise ValueError(f"unknown op {op!r}")
            start = time
            for source in sources:
                start = max(start, register_ready.get(source, 0))
            if dest:
                # WAR: cannot overwrite a register an earlier instruction still reads.
                start = max(start, register_last_read.get(dest, 0))
            finish = start + duration[op]
            for source in sources:
                register_last_read[source] = max(register_last_read.get(source, 0), finish)
            if dest:
                register_ready[dest] = finish
            time = finish
        return time

    # -- canonical Fig. 6 programs -------------------------------------------

    @staticmethod
    def application1_program() -> List[Tuple[str, str, Tuple[str, ...]]]:
        """out[i] = in[i] + 1 for 100 elements (one load/add/store chain)."""
        return [("load", "v1", ()), ("add", "v3", ("v1", "v2")), ("store", "", ("v3",))]

    @staticmethod
    def application2_program() -> List[Tuple[str, str, Tuple[str, ...]]]:
        """The 300-element three-phase application of Fig. 6 (add, copy, add)."""
        return [
            ("load", "v1", ()), ("add", "v3", ("v1", "v2")), ("store", "", ("v3",)),
            ("load", "v1", ()), ("store", "", ("v1",)),
            ("load", "v1", ()), ("add", "v3", ("v1", "v2")), ("store", "", ("v3",)),
        ]
