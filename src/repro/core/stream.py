"""Latency-insensitive stream channels and FU ports.

A stream channel is the edge of the RSN network abstraction: a bounded FIFO
connecting the output port of a producer FU to the input port of a consumer FU.
Communication is *latency-insensitive* (Section 3.1): correctness never depends
on timing, producers stall when the channel is full and consumers stall when it
is empty.

Timing model
------------
Each channel has an optional ``bandwidth`` (bytes per second) and a fixed
per-message ``latency`` (seconds).  Writing a message occupies the producer for
``latency + nbytes / bandwidth`` seconds, after which the message becomes
visible to the consumer.  Reading an available message is instantaneous -- the
transfer cost has already been charged on the producer side, which models a
producer-clocked streaming link without double counting.

The blocking logic itself lives in :mod:`repro.core.engine`; this module only
holds the channel state (queue, capacity, waiter lists, statistics).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional, Tuple, TYPE_CHECKING

from .exceptions import ConfigurationError, StreamClosedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Process
    from .functional_unit import FunctionalUnit

__all__ = ["StreamChannel", "Port", "ChannelStats"]


@dataclass
class ChannelStats:
    """Lifetime statistics of one stream channel."""

    messages: int = 0
    bytes: int = 0
    max_occupancy: int = 0
    writer_block_time: float = 0.0
    reader_block_time: float = 0.0


class StreamChannel:
    """A bounded, latency-insensitive FIFO between two FUs.

    Parameters
    ----------
    name:
        Unique channel name within a datapath.
    capacity:
        Maximum number of in-flight messages (including messages still being
        transferred).  ``None`` means unbounded, which is convenient for
        control channels such as uOP queues.
    bandwidth:
        Link bandwidth in bytes per second; ``None`` means the transfer time is
        just ``latency`` regardless of message size.
    latency:
        Fixed per-message latency in seconds.
    """

    def __init__(
        self,
        name: str,
        capacity: Optional[int] = 2,
        bandwidth: Optional[float] = None,
        latency: float = 0.0,
    ):
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"channel {name!r}: capacity must be >= 1 or None")
        if bandwidth is not None and bandwidth <= 0:
            raise ConfigurationError(
                f"channel {name!r}: bandwidth must be positive or None"
            )
        if latency < 0:
            raise ConfigurationError(f"channel {name!r}: latency must be non-negative")
        self.name = name
        self.capacity = capacity
        self.bandwidth = bandwidth
        self.latency = latency
        self.closed = False
        self.stats = ChannelStats()
        #: messages ready to be read.
        self._queue: Deque[Any] = deque()
        #: number of messages currently being transferred (slot reserved).
        self._in_flight = 0
        #: processes blocked waiting for data, woken FIFO.  Deques: the engine
        #: wakes from the left, and ``list.pop(0)`` is O(n) per wake-up.
        self._blocked_readers: Deque["Process"] = deque()
        #: processes blocked waiting for space, with their pending
        #: (message, nbytes), woken FIFO like the readers.
        self._blocked_writers: Deque[Tuple["Process", Any, int]] = deque()
        #: endpoints, filled in by Datapath.connect().
        self.source: Optional["Port"] = None
        self.sink: Optional["Port"] = None

    # -- capacity bookkeeping -------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of messages buffered or in flight."""
        return len(self._queue) + self._in_flight

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and self.occupancy >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` across this link."""
        time = self.latency
        if self.bandwidth is not None and nbytes:
            time += nbytes / self.bandwidth
        return time

    # -- queue manipulation (called by the engine) ----------------------------

    def reserve(self) -> None:
        """Reserve a slot for a message whose transfer is starting."""
        self._in_flight += 1

    def deliver(self, message: Any, nbytes: int) -> None:
        """Complete a transfer: the message becomes visible to the consumer."""
        if self.closed:
            raise StreamClosedError(f"channel {self.name!r} is closed")
        self._in_flight -= 1
        self._queue.append(message)
        self.stats.messages += 1
        self.stats.bytes += nbytes
        self.stats.max_occupancy = max(self.stats.max_occupancy, self.occupancy)

    def pop(self) -> Any:
        """Remove and return the oldest ready message."""
        return self._queue.popleft()

    def close(self) -> None:
        """Mark the channel closed; further writes raise :class:`StreamClosedError`."""
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"StreamChannel({self.name!r}, occ={self.occupancy}/{cap})"


class Port:
    """A named endpoint of an FU, bound to at most one stream channel.

    Ports give kernels a stable name to read from or write to (``"lhs_in"``,
    ``"to_mme"``) while the datapath decides which physical channel is behind
    the name.  This is what lets the same FU implementation participate in
    different datapaths.
    """

    INPUT = "input"
    OUTPUT = "output"

    def __init__(
        self, name: str, direction: str, owner: Optional["FunctionalUnit"] = None
    ):
        if direction not in (self.INPUT, self.OUTPUT):
            raise ConfigurationError(
                f"port {name!r}: direction must be 'input' or 'output'"
            )
        self.name = name
        self.direction = direction
        self.owner = owner
        self.channel: Optional[StreamChannel] = None

    @property
    def is_connected(self) -> bool:
        return self.channel is not None

    def bind(self, channel: StreamChannel) -> None:
        if self.channel is not None:
            raise ConfigurationError(
                f"port {self.qualified_name} is already bound to channel "
                f"{self.channel.name!r}"
            )
        self.channel = channel
        if self.direction == self.OUTPUT:
            channel.source = self
        else:
            channel.sink = self

    @property
    def qualified_name(self) -> str:
        owner = self.owner.name if self.owner is not None else "<unbound>"
        return f"{owner}.{self.name}"

    def require_channel(self) -> StreamChannel:
        if self.channel is None:
            raise ConfigurationError(
                f"port {self.qualified_name} is not connected to a channel"
            )
        return self.channel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.qualified_name}, {self.direction})"
