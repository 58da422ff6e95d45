"""The three-level instruction decoder hierarchy.

Section 3.3 merges all per-FU uOP streams into a single RSN instruction
stream and recovers them through three levels of decoding:

* the **top-level decoder** fetches instruction packets in program order and
  forwards each packet's window of mOPs to the second-level decoder selected
  by the packet's opcode (FU type) and mask;
* a **second-level decoder** (one per FU type) buffers the window, replays it
  ``reuse`` times, and forwards the resulting uOPs;
* a **third-level decoder** (one per FU) translates uOPs into kernel control
  and hands them to its FU.

All inter-decoder links are finite FIFOs; a full downstream FIFO back-pressures
the decoder above it, and the fetch unit stalls when the decoder it needs is
busy.  This is the mechanism behind the deadlock discussion in the paper: if
the fetch unit stalls before it has issued the instruction that tells the
*consumer* FU to drain the producer's stream, the system wedges.  The paper
reports that FIFO depth 6 between the uOP and mOP decoders is deadlock-free in
their implementation; :data:`DEFAULT_FIFO_DEPTH` reflects that and the
regression tests exercise both the deadlock and the deadlock-free depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from .exceptions import ConfigurationError
from .instruction import RSNProgram
from .kernel import Delay, Read, Write
from .network import Datapath
from .stream import StreamChannel
from .uop import ExitUOp

__all__ = ["DecoderConfig", "InstructionDecoder", "DEFAULT_FIFO_DEPTH"]


#: FIFO depth between the mOP and uOP decoders that the paper reports as
#: deadlock-free for RSN-XNN.
DEFAULT_FIFO_DEPTH = 6


@dataclass(frozen=True)
class DecoderConfig:
    """Timing and sizing parameters of the decoder pipeline.

    Parameters
    ----------
    fifo_depth:
        Capacity of the FIFOs between decoding levels and of each FU's uOP
        queue.
    fetch_seconds:
        Time the top-level decoder spends fetching and routing one packet.
        The paper deliberately slows the decoder down (multi-cycle decode,
        larger loop initiation interval) because its throughput demand is tiny
        (1.4 MB/s); the default models a handful of 260 MHz cycles per packet.
    mop_decode_seconds:
        Time a second-level decoder spends converting one mOP into uOPs.
    uop_decode_seconds:
        Time a third-level decoder spends translating one uOP.
    """

    fifo_depth: int = DEFAULT_FIFO_DEPTH
    fetch_seconds: float = 8 / 260e6
    mop_decode_seconds: float = 2 / 260e6
    uop_decode_seconds: float = 1 / 260e6


class InstructionDecoder:
    """Builds and runs the timed decoder pipeline for a datapath.

    Usage::

        decoder = InstructionDecoder(datapath, program, config)
        decoder.attach()                      # binds uOP channels to the FUs
        sim = datapath.build_simulator(extra_processes=decoder.processes())
        sim.run()

    The decoder creates one second-level decoder per FU *type* present in the
    program and one third-level decoder per FU targeted by it.  FUs that the
    program never targets are given an immediate exit uOP so the simulation
    still terminates.
    """

    def __init__(
        self,
        datapath: Datapath,
        program: RSNProgram,
        config: Optional[DecoderConfig] = None,
    ):
        self.datapath = datapath
        self.program = program
        self.config = config or DecoderConfig()
        #: FU type -> channel from the top-level decoder to its second-level decoder.
        self._mop_channels: Dict[str, StreamChannel] = {}
        #: FU name -> channel from the second-level decoder to the third-level decoder.
        self._pre_uop_channels: Dict[str, StreamChannel] = {}
        #: FU name -> channel from the third-level decoder into the FU.
        self._uop_channels: Dict[str, StreamChannel] = {}
        #: FU type -> FU names it targets (filled in by :meth:`attach`).
        self._targets_by_type: Dict[str, List[str]] = {}
        self._attached = False

    # ------------------------------------------------------------- plumbing

    def _targeted_fus(self) -> Dict[str, List[str]]:
        """FU type -> FU names targeted anywhere in the program."""
        targeted: Dict[str, List[str]] = {}
        for packet in self.program.packets:
            names = targeted.setdefault(packet.opcode, [])
            for fu_name in packet.targets:
                if fu_name not in names:
                    names.append(fu_name)
        return targeted

    def attach(self) -> None:
        """Create the decoder FIFOs and bind uOP channels to the targeted FUs."""
        if self._attached:
            raise ConfigurationError("decoder already attached")
        depth = self.config.fifo_depth
        targeted = self._targeted_fus()
        self._targets_by_type = targeted
        for fu_type, fu_names in targeted.items():
            self._mop_channels[fu_type] = StreamChannel(
                f"decoder/mop[{fu_type}]", capacity=depth)
            for fu_name in fu_names:
                fu = self.datapath.fu(fu_name)
                pre = StreamChannel(f"decoder/pre-uop[{fu_name}]", capacity=depth)
                post = StreamChannel(f"decoder/uop[{fu_name}]", capacity=depth)
                self._pre_uop_channels[fu_name] = pre
                self._uop_channels[fu_name] = post
                fu.attach_uop_channel(post)
        # FUs never targeted by the program still terminate via a local exit.
        targeted_names = set(self._pre_uop_channels)
        for name, fu in self.datapath.fus.items():
            if name not in targeted_names and fu.uop_channel is None:
                fu.load_program([ExitUOp()])
        self._attached = True

    # ------------------------------------------------------------ processes

    def processes(self) -> List[Tuple[str, Generator[Any, Any, None]]]:
        """All decoder processes to register with the simulator."""
        if not self._attached:
            self.attach()
        processes: List[Tuple[str, Generator[Any, Any, None]]] = [
            ("decoder/top", self._top_level())
        ]
        for fu_type in self._mop_channels:
            processes.append(
                (f"decoder/second[{fu_type}]", self._second_level(fu_type))
            )
        for fu_name in self._pre_uop_channels:
            processes.append((f"decoder/third[{fu_name}]", self._third_level(fu_name)))
        return processes

    def _top_level(self) -> Generator[Any, Any, None]:
        """Fetch packets in program order and route them to second-level decoders."""
        for packet in self.program.packets:
            yield Delay(self.config.fetch_seconds)
            channel = self._mop_channels[packet.opcode]
            yield Write(channel, packet)
        for channel in self._mop_channels.values():
            yield Write(channel, _EndOfStream())

    def _second_level(self, fu_type: str) -> Generator[Any, Any, None]:
        """Expand window/reuse and forward per-FU uOPs for one FU type."""
        channel = self._mop_channels[fu_type]
        fmt = self.program.uop_formats.get(fu_type)
        while True:
            packet = yield Read(channel)
            if isinstance(packet, _EndOfStream):
                break
            expanded = packet.expand(fmt)
            decode_items = packet.reuse * max(packet.window_size, 1)
            yield Delay(self.config.mop_decode_seconds * decode_items)
            # Interleave delivery FU by FU in window order so sibling FUs make
            # progress together rather than one FU receiving its whole program
            # first (which could artificially fill FIFOs).
            sequences = {name: list(uops) for name, uops in expanded.items()}
            remaining = sum(len(s) for s in sequences.values())
            index = 0
            names = list(sequences)
            positions = {name: 0 for name in names}
            while remaining:
                name = names[index % len(names)]
                index += 1
                pos = positions[name]
                if pos < len(sequences[name]):
                    uop = sequences[name][pos]
                    positions[name] = pos + 1
                    remaining -= 1
                    yield Write(self._pre_uop_channels[name], uop)
        for name in self._targets_by_type.get(fu_type, []):
            yield Write(self._pre_uop_channels[name], _EndOfStream())

    def _third_level(self, fu_name: str) -> Generator[Any, Any, None]:
        """Translate uOPs and hand them to the FU's uOP queue."""
        pre = self._pre_uop_channels[fu_name]
        post = self._uop_channels[fu_name]
        while True:
            uop = yield Read(pre)
            if isinstance(uop, _EndOfStream):
                break
            yield Delay(self.config.uop_decode_seconds)
            yield Write(post, uop)


class _EndOfStream:
    """Internal sentinel marking the end of a decoder-to-decoder stream."""

    nbytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<end-of-stream>"
