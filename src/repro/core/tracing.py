"""Simulation tracing.

:class:`Trace` records engine events when a simulation is run with tracing
enabled.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["TraceEvent", "Trace"]


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
