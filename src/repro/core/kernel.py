"""Kernel request primitives and helpers.

A *kernel* in RSN is "an atomic step in transforming the FU's internal state"
(Section 3.1).  In this library a kernel is a Python generator that yields the
request objects defined here; the simulation engine interprets them.  The
request set intentionally mirrors the operations that appear in the paper's
kernel pseudo-code (Fig. 6 and Fig. 7b): stream reads, stream writes, and the
time spent transforming data, plus structured concurrency for the
"load and send in parallel" idiom of double-buffered FUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

__all__ = [
    "Delay",
    "Read",
    "Write",
    "Parallel",
    "Fork",
    "Wait",
    "drain",
]


@dataclass(frozen=True, slots=True)
class Delay:
    """Suspend the yielding process for ``seconds`` of simulated time."""

    seconds: float


@dataclass(frozen=True, slots=True)
class Read:
    """Receive the next message from the channel behind ``port``.

    The received message is the value of the ``yield`` expression::

        message = yield Read(self.port("lhs_in"))

    Requests are immutable, so a kernel that reads the same port in a loop
    may create the request once and yield the same object every iteration
    (see :meth:`~repro.core.functional_unit.FunctionalUnit.read_request`).
    """

    port: Any


@dataclass(frozen=True, slots=True)
class Write:
    """Send ``message`` on the channel behind ``port``.

    Blocks while the channel is full, then occupies the producer for the
    channel's transfer time.
    """

    port: Any
    message: Any


@dataclass(frozen=True, slots=True)
class Parallel:
    """Run several sub-generators concurrently; resume when all finish.

    The value of the ``yield`` expression is the list of branch results in the
    order the branches were given.
    """

    branches: Sequence[Generator[Any, Any, Any]]


@dataclass(frozen=True, slots=True)
class Fork:
    """Spawn a sub-generator as an independent process and continue."""

    branch: Generator[Any, Any, Any]
    name: str = ""


@dataclass(frozen=True, slots=True)
class Wait:
    """Block until a previously forked process (its handle) finishes."""

    handle: Any


def drain(port: Any, count: int) -> Generator[Any, Any, list]:
    """Read ``count`` messages from ``port`` and return them as a list.

    A convenience for kernels that consume a fixed-length stream, e.g. the
    ``for (i=0; i<N; i++) data = stream.read()`` loops in Fig. 6.
    """
    messages = []
    for _ in range(count):
        message = yield Read(port)
        messages.append(message)
    return messages
