"""In-memory span recorder with per-layer self time.

A :class:`Tracer` keeps a stack of open spans.  Closing a span adds its
duration to its name's inclusive total (outermost activation only, so a
recursive call is not counted twice) and its *self* time -- the duration
minus the part its child spans cover -- to the name's self total.  Self
times of every span under a root therefore sum exactly to the root's wall
time, which is what the per-layer table relies on.

Aggregates are exact for every call.  Individual span records (name, start,
end, parent, run id) are kept for the Chrome trace file, at most
``span_cap`` per name: per-point calls such as constraint checks happen
hundreds of thousands of times per run and would otherwise dominate memory.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "layer_of", "self_time_rows"]


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its name minus the final call segment
    (``"core.engine.Simulator.run"`` -> ``"core.engine"``)."""
    parts = span_name.split(".")
    # Call segments may be ``Class.method``: the layer is the module path,
    # i.e. the leading lower-case segments.
    layer = [p for p in parts[:-1] if p[:1].islower()]
    return ".".join(layer) if layer else span_name


class _Frame:
    __slots__ = ("name", "start", "child_s", "record")

    def __init__(self, name: str, start: float, record: int) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.record = record


class Tracer:
    """Spans and counters of one traced run (single-threaded callers).

    Calls from threads other than the one that created the tracer pass
    through unrecorded: their spans would interleave with the main stack.
    """

    def __init__(
        self,
        run_id: str,
        span_cap: int = 2000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.run_id = run_id
        self.span_cap = span_cap
        self.clock = clock
        self.origin = clock()
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: (name, start_s, end_s, parent record index or -1, run id)
        self.records: List[Tuple[str, float, float, int, str]] = []
        self._stored: Dict[str, int] = defaultdict(int)
        self._stack: List[_Frame] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------ spans

    def owns_thread(self) -> bool:
        return threading.get_ident() == self._thread

    def begin(self, name: str) -> None:
        record = -1
        if self._stored[name] < self.span_cap:
            self._stored[name] += 1
            parent = self._stack[-1].record if self._stack else -1
            record = len(self.records)
            self.records.append((name, 0.0, 0.0, parent, self.run_id))
        self._active[name] += 1
        self._stack.append(_Frame(name, self.clock(), record))

    def end(self) -> None:
        now = self.clock()
        frame = self._stack.pop()
        duration = now - frame.start
        name = frame.name
        self._active[name] -= 1
        if self._active[name] == 0:
            self.inclusive_s[name] += duration
        self.self_s[name] += duration - frame.child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.record >= 0:
            _, _, _, parent, run_id = self.records[frame.record]
            self.records[frame.record] = (
                name,
                frame.start - self.origin,
                now - self.origin,
                parent,
                run_id,
            )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # ----------------------------------------------------------------- report

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer; the values add up to the sum of the
        root spans' durations."""
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[layer_of(name)] += seconds
        return dict(layers)

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete ``"X"`` events, microseconds);
        loads in Perfetto or ``chrome://tracing``."""
        events = []
        for name, start, end, parent, run_id in self.records:
            events.append(
                {
                    "name": name,
                    "cat": layer_of(name),
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "parent": self.records[parent][0] if parent >= 0 else None,
                        "run": run_id,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def self_time_rows(
    layer_self_s: Dict[str, float], wall_s: float
) -> List[Tuple[str, float, float]]:
    """``(layer, self seconds, share of wall)`` rows, largest first."""
    rows = sorted(layer_self_s.items(), key=lambda item: (-item[1], item[0]))
    return [
        (layer, seconds, seconds / wall_s if wall_s else 0.0)
        for layer, seconds in rows
    ]
