"""Core RSN abstractions: streams, functional units, datapaths, instructions.

This package implements the architecture-level contribution of the paper
(Section 3): the datapath as a circuit-switched network of stateful functional
units connected by latency-insensitive streams, programmed by triggering paths
and controlled through a hierarchical instruction decoder.  Everything here is
application-agnostic; the RSN-XNN overlay built on top of it lives in
:mod:`repro.xnn`.
"""

from .decoder import DEFAULT_FIFO_DEPTH, DecoderConfig, InstructionDecoder
from .engine import Process, ProcessHandle, SimulationStats, Simulator
from .exceptions import (
    ConfigurationError,
    DeadlockError,
    ProtocolError,
    RSNError,
    SimulationLimitError,
    StreamClosedError,
)
from .functional_unit import FunctionalUnit, FUStats, PassthroughFU
from .instruction import InstructionPacket, InstructionSizeReport, MOp, RSNProgram
from .kernel import Delay, Fork, Parallel, Read, Wait, Write, drain
from .message import ControlToken, StreamMessage, TileMessage, dtype_size
from .network import Datapath, Edge
from .path import Path, PathProgram
from .stream import ChannelStats, Port, StreamChannel
from .tracing import Trace, TraceEvent
from .uop import ExitUOp, FieldSpec, UOp, UOpFormat

__all__ = [
    "ChannelStats",
    "ConfigurationError",
    "ControlToken",
    "Datapath",
    "DeadlockError",
    "DecoderConfig",
    "DEFAULT_FIFO_DEPTH",
    "Delay",
    "Edge",
    "ExitUOp",
    "FieldSpec",
    "Fork",
    "FunctionalUnit",
    "FUStats",
    "InstructionDecoder",
    "InstructionPacket",
    "InstructionSizeReport",
    "MOp",
    "Parallel",
    "PassthroughFU",
    "Path",
    "PathProgram",
    "Port",
    "Process",
    "ProcessHandle",
    "ProtocolError",
    "Read",
    "RSNError",
    "RSNProgram",
    "SimulationLimitError",
    "SimulationStats",
    "Simulator",
    "StreamChannel",
    "StreamClosedError",
    "StreamMessage",
    "TileMessage",
    "Trace",
    "TraceEvent",
    "UOp",
    "UOpFormat",
    "Wait",
    "Write",
    "drain",
    "dtype_size",
]
