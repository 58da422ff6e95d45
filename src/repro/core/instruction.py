"""RSN instructions: packets, programs, and their size accounting.

Section 3.3 of the paper describes the RSN instruction stream as a sequence of
"UDP-like instruction packets, each with a 32-bit header and a payload
section".  The header carries

* ``opcode`` -- the FU type the packet targets,
* ``mask`` -- which FUs of that type are selected,
* ``last`` -- signals FU exit,
* ``window_size`` -- the number of macro-operations (mOPs) in the packet, and
* ``reuse`` -- how many times the packet's window is replayed.

The payload is a window of mOPs; each mOP expands to one uOP per selected FU.
Window/reuse is what gives RSN its code-size advantage (Fig. 9): a small
repeated pattern -- "send to FU1 then FU2, 128 times" -- needs one packet with
``window_size=2, reuse=128`` instead of 256 explicit instructions.

This module holds the in-memory representation plus the size/expansion logic;
the timed decoder pipeline lives in :mod:`repro.core.decoder`.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from .exceptions import ConfigurationError
from .uop import ExitUOp, UOp, UOpFormat

__all__ = ["MOp", "InstructionPacket", "RSNProgram", "InstructionSizeReport"]


#: header size in bytes (32-bit header per the paper).
HEADER_BYTES = 4


@dataclass(frozen=True)
class MOp:
    """A macro-operation: one payload entry of an instruction packet.

    An mOP carries the same control fields as the uOP it expands into, plus an
    optional per-FU override map so that a single packet can direct sibling
    FUs to slightly different targets (e.g. MemB0 loads tile 0 while MemB1
    loads tile 1, as in packet 12 of Fig. 10).
    """

    fields: Mapping[str, Any] = field(default_factory=dict)
    nbytes: int = 4
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def fields_for(self, fu_name: str) -> Dict[str, Any]:
        resolved = dict(self.fields)
        resolved.update(self.overrides.get(fu_name, {}))
        return resolved


@dataclass
class InstructionPacket:
    """One RSN instruction packet (header + window of mOPs).

    Parameters
    ----------
    opcode:
        FU type targeted by this packet (``"MME"``, ``"DDR"``, ...).
    targets:
        The FU names selected by the mask, e.g. ``["MemB0", "MemB1"]``.
    mops:
        The payload window.  ``len(mops)`` is the packet's window size.
    reuse:
        Number of times the window is replayed (>= 1).
    last:
        When set, every target FU receives an :class:`ExitUOp` after the
        expanded window.
    label:
        Free-form annotation used by traces and the Fig. 10-style packet
        listings in examples.
    """

    opcode: str
    targets: Sequence[str]
    mops: Sequence[MOp] = field(default_factory=list)
    reuse: int = 1
    last: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.reuse < 1:
            raise ConfigurationError(
                f"packet {self.label or self.opcode!r}: reuse must be >= 1"
            )
        if not self.targets:
            raise ConfigurationError(
                f"packet {self.label or self.opcode!r}: empty target mask"
            )
        self.targets = list(self.targets)
        self.mops = list(self.mops)

    # ----------------------------------------------------------------- sizes

    @property
    def window_size(self) -> int:
        return len(self.mops)

    @property
    def nbytes(self) -> int:
        """Encoded packet size: 32-bit header plus the payload window."""
        return HEADER_BYTES + sum(m.nbytes for m in self.mops)

    # ------------------------------------------------------------- expansion

    def expand(self, uop_format: Optional[UOpFormat] = None) -> Dict[str, List[UOp]]:
        """Expand the packet into per-FU uOP sequences.

        The window is replayed ``reuse`` times; each mOP becomes one uOP per
        target FU.  When a :class:`UOpFormat` is given the uOPs are built
        through it (validating field names and giving exact encoded sizes);
        otherwise generic uOPs with the mOP's fields are produced.
        """
        expanded: Dict[str, List[UOp]] = OrderedDict(
            (name, []) for name in self.targets
        )
        for _ in range(self.reuse):
            for mop in self.mops:
                for fu_name in self.targets:
                    fields = mop.fields_for(fu_name)
                    if uop_format is not None:
                        uop = uop_format.make(**fields)
                    else:
                        uop = UOp(opcode=self.opcode, fields=fields, nbytes=mop.nbytes)
                    expanded[fu_name].append(uop)
        if self.last:
            for fu_name in self.targets:
                expanded[fu_name].append(ExitUOp(opcode="EXIT"))
        return expanded

    @property
    def expanded_uop_count(self) -> int:
        return self.reuse * self.window_size * len(self.targets) + (
            len(self.targets) if self.last else 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InstructionPacket({self.opcode}, targets={list(self.targets)}, "
                f"window={self.window_size}, reuse={self.reuse}, last={self.last})")


@dataclass
class InstructionSizeReport:
    """Per-FU-type instruction and uOP byte counts (the Fig. 9 data)."""

    instruction_bytes: Dict[str, int] = field(default_factory=dict)
    uop_bytes: Dict[str, int] = field(default_factory=dict)
    instruction_counts: Dict[str, int] = field(default_factory=dict)
    uop_counts: Dict[str, int] = field(default_factory=dict)

    def compression_ratio(self, fu_type: str) -> float:
        """Expanded uOP bytes divided by RSN instruction bytes for one FU type."""
        inst = self.instruction_bytes.get(fu_type, 0)
        if not inst:
            return 0.0
        return self.uop_bytes.get(fu_type, 0) / inst

    def total_uop_bytes(self) -> int:
        return sum(self.uop_bytes.values())

    def fu_types(self) -> List[str]:
        return sorted(set(self.instruction_bytes) | set(self.uop_bytes))


class RSNProgram:
    """An ordered sequence of instruction packets forming one RSN program.

    This is the single fused instruction stream of Section 3.3: the top-level
    decoder walks it in order and forwards each packet to the second-level
    decoder of the targeted FU type.
    """

    def __init__(
        self,
        name: str = "program",
        uop_formats: Optional[Mapping[str, UOpFormat]] = None,
    ):
        self.name = name
        self.packets: List[InstructionPacket] = []
        #: optional per-FU-type uOP encoding formats (exact Fig. 9 sizes).
        self.uop_formats: Dict[str, UOpFormat] = dict(uop_formats or {})

    # -------------------------------------------------------------- building

    def append(self, packet: InstructionPacket) -> InstructionPacket:
        self.packets.append(packet)
        return packet

    def extend(self, packets: Iterable[InstructionPacket]) -> None:
        for packet in packets:
            self.append(packet)

    def emit(
        self,
        opcode: str,
        targets: Sequence[str],
        mops: Sequence[MOp],
        reuse: int = 1,
        last: bool = False,
        label: str = "",
    ) -> InstructionPacket:
        """Create and append a packet in one call."""
        packet = InstructionPacket(
            opcode=opcode,
            targets=targets,
            mops=mops,
            reuse=reuse,
            last=last,
            label=label,
        )
        return self.append(packet)

    def finalize(self, fu_names_by_type: Mapping[str, Sequence[str]]) -> None:
        """Append ``last`` packets for every FU type that has none yet.

        Guarantees that each FU eventually receives an exit uOP so that the
        simulation terminates.
        """
        types_with_last = {p.opcode for p in self.packets if p.last}
        for fu_type, names in fu_names_by_type.items():
            if fu_type not in types_with_last:
                self.emit(
                    fu_type,
                    list(names),
                    mops=[],
                    reuse=1,
                    last=True,
                    label=f"exit-{fu_type}",
                )

    # ------------------------------------------------------------- expansion

    def expand(self) -> Dict[str, List[UOp]]:
        """Statically decode the whole program into per-FU uOP sequences."""
        per_fu: Dict[str, List[UOp]] = OrderedDict()
        for packet in self.packets:
            fmt = self.uop_formats.get(packet.opcode)
            for fu_name, uops in packet.expand(fmt).items():
                per_fu.setdefault(fu_name, []).extend(uops)
        return per_fu

    def load_into(self, datapath: Any) -> None:
        """Pre-store the decoded program into a datapath's FUs.

        This bypasses the timed decoder pipeline; it is the right choice when
        the experiment does not study decoder behaviour (the decoder's
        instruction processing rate is 1.4 MB/s against a 57.6 GB/s datapath,
        i.e. off the critical path -- Section 5.1).
        """
        per_fu = self.expand()
        for fu_name, uops in per_fu.items():
            datapath.fu(fu_name).load_program(uops)
        for name, fu in datapath.fus.items():
            if name not in per_fu and fu.uop_channel is None:
                fu.load_program([ExitUOp()])

    # -------------------------------------------------------------- analysis

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self.packets)

    def size_report(self) -> InstructionSizeReport:
        """Instruction vs expanded-uOP bytes per FU type (regenerates Fig. 9)."""
        report = InstructionSizeReport()
        inst_bytes: Dict[str, int] = defaultdict(int)
        inst_counts: Dict[str, int] = defaultdict(int)
        uop_bytes: Dict[str, int] = defaultdict(int)
        uop_counts: Dict[str, int] = defaultdict(int)
        for packet in self.packets:
            inst_bytes[packet.opcode] += packet.nbytes
            inst_counts[packet.opcode] += 1
            fmt = self.uop_formats.get(packet.opcode)
            for uops in packet.expand(fmt).values():
                for uop in uops:
                    uop_bytes[packet.opcode] += uop.nbytes
                    uop_counts[packet.opcode] += 1
        report.instruction_bytes = dict(inst_bytes)
        report.instruction_counts = dict(inst_counts)
        report.uop_bytes = dict(uop_bytes)
        report.uop_counts = dict(uop_counts)
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RSNProgram({self.name!r}, packets={len(self.packets)}, "
            f"bytes={self.nbytes})"
        )
