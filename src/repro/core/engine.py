"""Discrete-event simulation engine for RSN datapaths.

The engine executes *processes*: Python generators that yield simulation
requests.  A functional unit's run loop and every kernel it launches are such
generators, which keeps the simulated micro-architecture very close to the
kernel pseudo-code of the paper (Fig. 7b): a kernel literally reads its input
streams, performs a transformation, waits for the time the transformation
would take on the modelled hardware, and writes its output streams.

Supported requests (see :mod:`repro.core.kernel` for the dataclasses):

``Delay(seconds)``
    Suspend the process for a fixed amount of simulated time.
``Write(port, message)``
    Send a message on the stream channel bound to ``port``.  Blocks while the
    channel is full; otherwise occupies the process for the channel's transfer
    time (latency + bytes/bandwidth).
``Read(port)``
    Receive the next message from the channel bound to ``port``.  Blocks until
    a message is available; the received message is the value of the ``yield``
    expression.
``Parallel(branches)``
    Run several sub-generators concurrently and resume when all of them have
    finished.  Used for double-buffered FUs that load a new tile while sending
    the previous one ("load/send operations will be executed in parallel if
    they are both enabled", Fig. 7b).
``Fork(branch)``
    Spawn a sub-generator as an independent process and continue immediately.
``Wait(handle)``
    Block until a previously forked process finishes.

The engine is deliberately self-contained (no ``simpy`` dependency) so the
blocking, back-pressure, and deadlock behaviour that the paper reasons about
in Sections 3.1 and 3.3 is fully visible in this repository.

Hot-path design
---------------
The run loop and the read/write/delay handlers are the throughput floor of
every cycle-level result in this repository, so they avoid per-event work
that the semantics do not require: state accounting skips the float updates
entirely for zero-elapsed transitions (the common case -- a handler always
runs at the same timestamp as the resume that invoked it), channel resolution
and transfer-time arithmetic are inlined instead of routed through helper
methods, ``waiting_on`` strings are formatted lazily (only deadlock reports
and enabled traces ever read them), and every trace hook is guarded by a
single boolean so a trace-less run pays one attribute test per would-be
record.  None of this changes scheduling: events carry the same global
sequence numbers in the same order as the straightforward implementation,
which the determinism suite pins.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from .exceptions import DeadlockError, SimulationLimitError, StreamClosedError
from .kernel import Delay, Fork, Parallel, Read, Wait, Write
from .stream import Port, StreamChannel

__all__ = ["Process", "ProcessHandle", "Simulator", "SimulationStats"]


KernelGenerator = Generator[Any, Any, Any]

#: sentinel distinguishing "resume with no explicit value" from resuming with
#: a legitimate ``None`` (e.g. a ``Wait`` joining a process that returned
#: ``None``, or a ``Read`` delivering a ``None`` message).
_NO_VALUE = object()


@dataclass
class SimulationStats:
    """Aggregate statistics of one simulation run."""

    end_time: float = 0.0
    events: int = 0
    processes: int = 0
    #: per-process ``(busy, blocked)`` seconds.
    process_times: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def busy_time(self, name: str) -> float:
        return self.process_times.get(name, (0.0, 0.0))[0]

    def blocked_time(self, name: str) -> float:
        return self.process_times.get(name, (0.0, 0.0))[1]


class ProcessHandle:
    """Handle returned by :class:`Fork`, used with :class:`Wait`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        self.process = process

    @property
    def finished(self) -> bool:
        return self.process.finished

    @property
    def result(self) -> Any:
        return self.process.result


#: lazy ``waiting_on`` renderers, keyed by the tag of the pending-wait tuple.
#: The engine stores ``(tag, detail)`` on the hot paths and only formats the
#: human-readable string when a deadlock report or a trace actually reads it.
_WAITING_RENDERERS: Dict[str, Callable[[Any], str]] = {
    "delay": lambda seconds: f"delay {seconds:.3e}s",
    "transfer": lambda name: f"transfer on {name!r}",
    "read": lambda name: f"data on {name!r}",
    "write": lambda name: f"write space on {name!r}",
}


class Process:
    """One schedulable activity inside the simulator.

    A process wraps a generator.  The simulator repeatedly resumes it with the
    value produced by its last request and interprets the next request it
    yields.  Child processes created by :class:`Parallel` and :class:`Fork`
    are ordinary processes whose completion wakes the parent.
    """

    #: process states, used for introspection and deadlock reports.
    READY = "ready"
    RUNNING = "running"
    BLOCKED_READ = "blocked-read"
    BLOCKED_WRITE = "blocked-write"
    BLOCKED_JOIN = "blocked-join"
    DELAYED = "delayed"
    FINISHED = "finished"

    __slots__ = (
        "name",
        "generator",
        "send",
        "parent",
        "state",
        "result",
        "finished",
        "_waiting",
        "outstanding_children",
        "busy_time",
        "blocked_time",
        "last_state_change",
        "on_finish",
    )

    def __init__(
        self,
        name: str,
        generator: KernelGenerator,
        parent: Optional["Process"] = None,
    ):
        self.name = name
        self.generator = generator
        #: bound ``generator.send`` -- resumed once per event, so the method
        #: lookup is hoisted out of the hot loop.
        self.send = generator.send
        self.parent = parent
        self.state = self.READY
        self.result: Any = None
        self.finished = False
        #: what the process is waiting on: ``""``, a pre-formatted string, or
        #: a ``(tag, detail)`` tuple rendered lazily by :attr:`waiting_on`.
        self._waiting: Any = ""
        #: number of outstanding children the process is joined on.
        self.outstanding_children = 0
        #: accumulated busy / blocked simulated time.
        self.busy_time = 0.0
        self.blocked_time = 0.0
        #: simulation time at which the process last changed state.
        self.last_state_change = 0.0
        #: optional callback invoked when the process finishes.
        self.on_finish: List[Callable[["Process"], None]] = []

    @property
    def waiting_on(self) -> str:
        """Human-readable description of what the process is waiting on."""
        waiting = self._waiting
        if waiting.__class__ is str:
            return waiting
        tag, detail = waiting
        return _WAITING_RENDERERS[tag](detail)

    @waiting_on.setter
    def waiting_on(self, value: str) -> None:
        self._waiting = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, {self.state})"


#: state groups for time accounting, module-level so the hot paths do not
#: re-build them.  Membership tests compare a handful of interned strings.
_BLOCKED_STATES = (
    Process.BLOCKED_READ,
    Process.BLOCKED_WRITE,
    Process.BLOCKED_JOIN,
)
_BUSY_STATES = (Process.RUNNING, Process.DELAYED)


class Simulator:
    """Event-driven executor for a set of processes communicating over streams.

    Parameters
    ----------
    trace:
        Optional :class:`repro.core.tracing.Trace` collecting events.
    max_events:
        Safety limit on the number of processed events; exceeded limits raise
        :class:`SimulationLimitError` rather than hanging a test run.
    max_time:
        Optional simulated-time budget in seconds.
    fast_zero_delay:
        When true (the default), events scheduled at the current simulation
        time -- read/write completions, forks, joins -- bypass the heap and go
        through a FIFO deque instead.  Event *order* is identical either way
        (entries carry the same global sequence numbers and the run loop merges
        the two queues in ``(time, sequence)`` order); the flag exists so the
        engine-throughput microbenchmark can measure the heap round-trip cost.
    """

    def __init__(
        self,
        trace: Any = None,
        max_events: int = 50_000_000,
        max_time: Optional[float] = None,
        fast_zero_delay: bool = True,
    ):
        self.now = 0.0
        self._trace = trace
        self._tracing = trace is not None
        self.max_events = max_events
        self.max_time = max_time
        self.fast_zero_delay = fast_zero_delay
        #: heap of ``(time, sequence, callback, args)`` entries.
        self._event_queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        #: FIFO of same-shape entries scheduled at the current time.  Times in
        #: the deque are nondecreasing, so its front is always the oldest.
        self._immediate: Deque[Tuple[float, int, Callable[..., None], tuple]] = deque()
        self._sequence = itertools.count()
        self._next_seq = self._sequence.__next__
        self._processes: List[Process] = []
        self._live_processes = 0
        self._events_processed = 0

    @property
    def trace(self) -> Any:
        return self._trace

    @trace.setter
    def trace(self, trace: Any) -> None:
        self._trace = trace
        self._tracing = trace is not None

    # ------------------------------------------------------------------ setup

    def add_process(
        self,
        name: str,
        generator: KernelGenerator,
        parent: Optional[Process] = None,
    ) -> Process:
        """Register a top-level or child process with the simulator."""
        process = Process(name, generator, parent=parent)
        self._processes.append(process)
        self._live_processes += 1
        self._schedule_now(self._resume, process)
        return process

    # ------------------------------------------------------------------- run

    def run(self) -> SimulationStats:
        """Run until all processes finish; return aggregate statistics.

        Raises
        ------
        DeadlockError
            If the event queue drains while processes are still blocked.
        SimulationLimitError
            If the event or time budget is exceeded.
        """
        queue = self._event_queue
        immediate = self._immediate
        heappop = heapq.heappop
        max_time = self.max_time
        max_events = self.max_events
        events_processed = self._events_processed
        try:
            while queue or immediate:
                # Merge the two queues in (time, sequence) order so the event
                # order is exactly the one a single heap would produce.
                if immediate and (not queue or immediate[0] < queue[0]):
                    time, _, callback, args = immediate.popleft()
                else:
                    time, _, callback, args = heappop(queue)
                if max_time is not None and time > max_time:
                    raise SimulationLimitError(
                        f"simulated time limit of {max_time}s exceeded at t={time}"
                    )
                self.now = time
                events_processed += 1
                if events_processed > max_events:
                    raise SimulationLimitError(
                        f"event limit of {max_events} exceeded at t={self.now}"
                    )
                callback(*args)
        finally:
            # The counter is kept in a local for speed; re-sync it on every
            # exit (normal drain, limit errors, exceptions out of callbacks).
            self._events_processed = events_processed
        if self._live_processes:
            blocked = [
                (p.name, p.waiting_on)
                for p in self._processes
                if not p.finished
            ]
            raise DeadlockError(
                "simulation deadlocked: no runnable events but "
                f"{self._live_processes} process(es) remain blocked: {blocked}",
                blocked=blocked,
            )
        return self.stats()

    def stats(self) -> SimulationStats:
        """Snapshot of per-process busy/blocked time and totals."""
        stats = SimulationStats(
            end_time=self.now,
            events=self._events_processed,
            processes=len(self._processes),
        )
        for process in self._processes:
            stats.process_times[process.name] = (
                process.busy_time,
                process.blocked_time,
            )
        return stats

    # ------------------------------------------------------- event scheduling

    def _schedule_now(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule an event at the current time without a heap round-trip."""
        if self.fast_zero_delay:
            self._immediate.append((self.now, self._next_seq(), callback, args))
        else:
            heapq.heappush(
                self._event_queue, (self.now, self._next_seq(), callback, args)
            )

    def _record(self, kind: str, process: Process, detail: str = "") -> None:
        if self._trace is not None:
            self._trace.record(self.now, kind, process.name, detail)

    # ----------------------------------------------------- process life-cycle

    def _set_state(self, process: Process, state: str) -> None:
        # Zero-elapsed transitions (a handler running in the same event as
        # the resume that invoked it) skip the accounting entirely; adding
        # 0.0 to the counters would be a no-op anyway.
        elapsed = self.now - process.last_state_change
        if elapsed:
            previous = process.state
            if previous in _BLOCKED_STATES:
                process.blocked_time += elapsed
            elif previous in _BUSY_STATES:
                process.busy_time += elapsed
            process.last_state_change = self.now
        process.state = state

    def _resume(self, process: Process, value: Any = _NO_VALUE) -> None:
        """Advance a process generator by one request.

        ``value`` is the result of the process's last request (a read message,
        join result, ...) and is sent into the generator verbatim -- ``None``
        is a perfectly legitimate message or process result.  The ``_NO_VALUE``
        sentinel marks a plain resume (initial start, delay expiry) with no
        request result to deliver; it sends ``None``, as generators require.
        """
        if process.finished:
            return
        # Inline _set_state(process, RUNNING): this is the single hottest
        # call site, executed once per event.
        elapsed = self.now - process.last_state_change
        if elapsed:
            previous = process.state
            if previous in _BLOCKED_STATES:
                process.blocked_time += elapsed
            elif previous in _BUSY_STATES:
                process.busy_time += elapsed
            process.last_state_change = self.now
        process.state = Process.RUNNING
        try:
            request = process.send(None if value is _NO_VALUE else value)
        except StopIteration as stop:
            self._finish(process, getattr(stop, "value", None))
            return
        # Inline exact-type dispatch (one dict lookup); subclassed request
        # types fall back to the isinstance chain.
        handler = _HANDLERS.get(request.__class__)
        if handler is not None:
            handler(self, process, request)
        else:
            self._dispatch_slow(process, request)

    def _finish(self, process: Process, result: Any) -> None:
        self._set_state(process, Process.FINISHED)
        process.finished = True
        process.result = result
        self._live_processes -= 1
        if self._tracing:
            self._record("finish", process)
        for callback in process.on_finish:
            callback(process)
        process.on_finish.clear()

    # ----------------------------------------------------- request dispatching

    def _dispatch_slow(self, process: Process, request: Any) -> None:
        """isinstance-based dispatch for subclassed request types."""
        if isinstance(request, Delay):
            self._handle_delay(process, request)
        elif isinstance(request, Write):
            self._handle_write(process, request)
        elif isinstance(request, Read):
            self._handle_read(process, request)
        elif isinstance(request, Parallel):
            self._handle_parallel(process, request)
        elif isinstance(request, Fork):
            self._handle_fork(process, request)
        elif isinstance(request, Wait):
            self._handle_wait(process, request)
        else:
            raise TypeError(
                f"process {process.name!r} yielded unsupported request {request!r}"
            )

    def _handle_delay(self, process: Process, request: Delay) -> None:
        seconds = request.seconds
        if seconds < 0:
            raise ValueError(f"process {process.name!r}: negative delay {seconds}")
        # RUNNING -> DELAYED in the same event: zero elapsed by construction.
        process.state = Process.DELAYED
        process._waiting = ("delay", seconds)
        if self._tracing:
            self._record("delay", process, process.waiting_on)
        if seconds:
            heapq.heappush(
                self._event_queue,
                (self.now + seconds, self._next_seq(), self._resume, (process,)),
            )
        else:
            self._schedule_now(self._resume, process)

    # -- stream writes ---------------------------------------------------------

    def _resolve_channel(self, process: Process, port: Any) -> StreamChannel:
        if isinstance(port, StreamChannel):
            return port
        if isinstance(port, Port):
            return port.require_channel()
        raise TypeError(
            f"process {process.name!r} referenced {port!r}; "
            "expected a Port or StreamChannel"
        )

    def _handle_write(self, process: Process, request: Write) -> None:
        # Inline channel resolution: exact-type tests cover every in-repo
        # caller; anything else takes the isinstance slow path.
        port = request.port
        cls = port.__class__
        if cls is Port:
            channel = port.channel
            if channel is None:
                channel = port.require_channel()
        elif cls is StreamChannel:
            channel = port
        else:
            channel = self._resolve_channel(process, port)
        if channel.closed:
            raise StreamClosedError(
                f"process {process.name!r} wrote to closed channel {channel.name!r}"
            )
        message = request.message
        nbytes = getattr(message, "nbytes", 0) or 0
        capacity = channel.capacity
        if (
            capacity is not None
            and len(channel._queue) + channel._in_flight >= capacity
        ):
            # RUNNING -> BLOCKED_WRITE in the same event: zero elapsed.
            process.state = Process.BLOCKED_WRITE
            process._waiting = ("write", channel.name)
            channel._blocked_writers.append((process, message, nbytes))
            if self._tracing:
                self._record("block-write", process, channel.name)
            return
        self._start_transfer(process, channel, message, nbytes)

    def _start_transfer(
        self, process: Process, channel: StreamChannel, message: Any, nbytes: int
    ) -> None:
        channel._in_flight += 1  # reserve the slot (StreamChannel.reserve)
        # Inline channel.transfer_time(nbytes).
        transfer = channel.latency
        bandwidth = channel.bandwidth
        if bandwidth is not None and nbytes:
            transfer += nbytes / bandwidth
        # Full state accounting: a writer woken by _wake_writer arrives here
        # still BLOCKED_WRITE with real elapsed time to account.
        self._set_state(process, Process.DELAYED)
        process._waiting = ("transfer", channel.name)
        if self._tracing:
            self._record("write", process, f"{channel.name} ({nbytes} B)")
        if transfer:
            heapq.heappush(
                self._event_queue,
                (
                    self.now + transfer,
                    self._next_seq(),
                    self._complete_transfer,
                    (process, channel, message, nbytes),
                ),
            )
        else:
            self._schedule_now(
                self._complete_transfer, process, channel, message, nbytes
            )

    def _complete_transfer(
        self, process: Process, channel: StreamChannel, message: Any, nbytes: int
    ) -> None:
        # Inline channel.deliver(message, nbytes).
        if channel.closed:
            raise StreamClosedError(f"channel {channel.name!r} is closed")
        channel._in_flight -= 1
        queue = channel._queue
        queue.append(message)
        stats = channel.stats
        stats.messages += 1
        stats.bytes += nbytes
        occupancy = len(queue) + channel._in_flight
        if occupancy > stats.max_occupancy:
            stats.max_occupancy = occupancy
        self._wake_reader(channel)
        self._resume(process)

    def _wake_reader(self, channel: StreamChannel) -> None:
        if channel._blocked_readers and channel._queue:
            reader = channel._blocked_readers.popleft()
            message = channel._queue.popleft()
            channel.stats.reader_block_time += self.now - reader.last_state_change
            if self._tracing:
                self._record("unblock-read", reader, channel.name)
            self._schedule_now(self._resume, reader, message)
            self._wake_writer(channel)

    def _wake_writer(self, channel: StreamChannel) -> None:
        writers = channel._blocked_writers
        if writers:
            capacity = channel.capacity
            if capacity is None or len(channel._queue) + channel._in_flight < capacity:
                writer, message, nbytes = writers.popleft()
                channel.stats.writer_block_time += self.now - writer.last_state_change
                if self._tracing:
                    self._record("unblock-write", writer, channel.name)
                self._start_transfer(writer, channel, message, nbytes)

    # -- stream reads ----------------------------------------------------------

    def _handle_read(self, process: Process, request: Read) -> None:
        port = request.port
        cls = port.__class__
        if cls is Port:
            channel = port.channel
            if channel is None:
                channel = port.require_channel()
        elif cls is StreamChannel:
            channel = port
        else:
            channel = self._resolve_channel(process, port)
        queue = channel._queue
        if queue:
            message = queue.popleft()
            if self._tracing:
                self._record("read", process, channel.name)
            self._wake_writer(channel)
            self._schedule_now(self._resume, process, message)
            return
        if channel.closed:
            raise StreamClosedError(
                f"process {process.name!r} read from closed, empty channel "
                f"{channel.name!r}"
            )
        # RUNNING -> BLOCKED_READ in the same event: zero elapsed.
        process.state = Process.BLOCKED_READ
        process._waiting = ("read", channel.name)
        channel._blocked_readers.append(process)
        if self._tracing:
            self._record("block-read", process, channel.name)

    # -- structured concurrency ------------------------------------------------

    def _handle_parallel(self, process: Process, request: Parallel) -> None:
        branches = list(request.branches)
        if not branches:
            self._schedule_now(self._resume, process, [])
            return
        results: List[Any] = [None] * len(branches)
        process.outstanding_children = len(branches)
        self._set_state(process, Process.BLOCKED_JOIN)
        process._waiting = f"{len(branches)} parallel branch(es)"

        def make_callback(index: int) -> Callable[[Process], None]:
            def callback(child: Process) -> None:
                results[index] = child.result
                process.outstanding_children -= 1
                if process.outstanding_children == 0:
                    self._schedule_now(self._resume, process, results)
            return callback

        for index, branch in enumerate(branches):
            child = self.add_process(f"{process.name}/p{index}", branch, parent=process)
            child.on_finish.append(make_callback(index))

    def _handle_fork(self, process: Process, request: Fork) -> None:
        child = self.add_process(
            request.name or f"{process.name}/fork", request.branch, parent=process
        )
        handle = ProcessHandle(child)
        self._schedule_now(self._resume, process, handle)

    def _handle_wait(self, process: Process, request: Wait) -> None:
        handle = request.handle
        if handle.finished:
            self._schedule_now(self._resume, process, handle.result)
            return
        self._set_state(process, Process.BLOCKED_JOIN)
        process._waiting = f"join on {handle.process.name!r}"

        def callback(child: Process) -> None:
            self._schedule_now(self._resume, process, child.result)

        handle.process.on_finish.append(callback)


#: exact-type fast dispatch table (see :meth:`Simulator._resume`).
_HANDLERS: Dict[type, Callable[..., None]] = {
    Delay: Simulator._handle_delay,
    Write: Simulator._handle_write,
    Read: Simulator._handle_read,
    Parallel: Simulator._handle_parallel,
    Fork: Simulator._handle_fork,
    Wait: Simulator._handle_wait,
}
