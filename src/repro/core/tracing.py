"""Simulation tracing and utilisation reporting.

The paper's evaluation leans on per-FU utilisation and stall accounting
(Table 5b, Table 9, Fig. 16).  :class:`Trace` records engine events when a
simulation is run with tracing enabled, and :class:`UtilizationReport`
post-processes simulator/FU statistics into the quantities the benchmarks
print: busy fraction per FU, achieved FLOPS, bytes moved per channel.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["TraceEvent", "Trace", "UtilizationReport"]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped simulator event."""

    time: float
    kind: str
    process: str
    detail: str = ""


class Trace:
    """An append-only list of simulator events with simple query helpers.

    Tracing every event of a full BERT-Large run is cheap (tens of thousands
    of events) but optional; pass ``trace=None`` to the simulator to disable
    it entirely.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.events: List[TraceEvent] = []
        self.capacity = capacity
        self.dropped = 0

    def record(self, time: float, kind: str, process: str, detail: str = "") -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, kind, process, detail))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def first(self, kind: str, process: Optional[str] = None) -> Optional[TraceEvent]:
        for event in self.events:
            if event.kind == kind and (process is None or event.process == process):
                return event
        return None

    def last(self, kind: str, process: Optional[str] = None) -> Optional[TraceEvent]:
        found = None
        for event in self.events:
            if event.kind == kind and (process is None or event.process == process):
                found = event
        return found

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for event in self.events:
            counts[event.kind] += 1
        return dict(counts)


@dataclass
class UtilizationReport:
    """Per-FU and per-channel utilisation derived from a finished simulation.

    Attributes
    ----------
    total_time:
        Simulated end time in seconds.
    fu_busy:
        FU name -> seconds the FU process spent running or transferring.
    fu_blocked:
        FU name -> seconds the FU process spent blocked on streams.
    fu_flops:
        FU name -> floating point operations performed.
    channel_bytes:
        Channel name -> bytes moved.
    """

    total_time: float
    fu_busy: Dict[str, float] = field(default_factory=dict)
    fu_blocked: Dict[str, float] = field(default_factory=dict)
    fu_flops: Dict[str, float] = field(default_factory=dict)
    channel_bytes: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_simulation(cls, datapath: Any, stats: Any) -> "UtilizationReport":
        """Build a report from a :class:`Datapath` and the stats of its run."""
        report = cls(total_time=stats.end_time)
        for name, fu in datapath.fus.items():
            busy, blocked = stats.process_times.get(name, (0.0, 0.0))
            report.fu_busy[name] = busy
            report.fu_blocked[name] = blocked
            report.fu_flops[name] = fu.stats.flops
        for name, channel in datapath.channels.items():
            report.channel_bytes[name] = channel.stats.bytes
        return report

    # ---------------------------------------------------------------- queries

    def busy_fraction(self, fu_name: str) -> float:
        """Fraction of total simulated time the FU was busy (0 when idle run)."""
        if not self.total_time:
            return 0.0
        return self.fu_busy.get(fu_name, 0.0) / self.total_time

    def achieved_flops(self, fu_names: Optional[Iterable[str]] = None) -> float:
        """Aggregate achieved FLOP/s over the whole run for the selected FUs."""
        if not self.total_time:
            return 0.0
        names = list(fu_names) if fu_names is not None else list(self.fu_flops)
        total = sum(self.fu_flops.get(name, 0.0) for name in names)
        return total / self.total_time

    def total_bytes(self, channel_names: Optional[Iterable[str]] = None) -> int:
        names = (
            list(channel_names)
            if channel_names is not None
            else list(self.channel_bytes)
        )
        return sum(self.channel_bytes.get(name, 0) for name in names)

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """``(fu, busy_s, blocked_s, busy_fraction)`` rows sorted by FU name."""
        rows = []
        for name in sorted(self.fu_busy):
            busy = self.fu_busy[name]
            blocked = self.fu_blocked.get(name, 0.0)
            rows.append((name, busy, blocked, self.busy_fraction(name)))
        return rows
