"""The event loop: simulated time, events, and generator processes.

Design rules that keep simulations deterministic and replayable:

- All pending work lives in one heap ordered by ``(time, sequence)``; the
  sequence number makes same-instant ordering FIFO and total.
- A process waits on at most one thing at a time (compose with
  :func:`any_of` / :func:`all_of` to wait on several).
- Nothing in the kernel reads wall-clock time or global randomness.
  Every post reads the clock through :attr:`Kernel.now`, the one seam the
  asyncio backend's wall-clock subclass redefines.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError

#: A simulation process is a generator yielding Timeout / SimEvent / Process.
ProcessBody = Generator[Any, Any, Any]


class ProcessKilled(Exception):
    """Raised inside waiters joined on a process that was killed.

    Also thrown into the killed process itself so ``finally`` blocks run.
    """


@dataclass(frozen=True)
class Timeout:
    """Effect: resume the yielding process after ``duration`` simulated time."""

    duration: float

    def __post_init__(self):
        if self.duration < 0:
            raise SimulationError(f"negative timeout {self.duration}")


class SimEvent:
    """A one-shot occurrence processes can wait for.

    An event is *pending* until someone calls :meth:`trigger` (waiters resume
    with the value) or :meth:`fail` (the exception is thrown into waiters).
    Triggering twice is an error; waiting on an already-settled event resumes
    the waiter immediately (at the current instant, in FIFO order).
    """

    __slots__ = ("kernel", "name", "_state", "_value", "_callbacks")

    _PENDING, _TRIGGERED, _FAILED = 0, 1, 2

    def __init__(self, kernel: "Kernel", name: str = ""):
        self.kernel = kernel
        self.name = name
        self._state = SimEvent._PENDING
        self._value: Any = None
        self._callbacks: List[Callable[["SimEvent"], None]] = []

    @property
    def triggered(self) -> bool:
        """True once the event settled successfully."""
        return self._state == SimEvent._TRIGGERED

    @property
    def failed(self) -> bool:
        """True once the event settled with a failure."""
        return self._state == SimEvent._FAILED

    @property
    def settled(self) -> bool:
        """True once the event is no longer pending (either outcome)."""
        return self._state != SimEvent._PENDING

    @property
    def value(self) -> Any:
        """The trigger value (or the failure exception)."""
        return self._value

    def trigger(self, value: Any = None) -> "SimEvent":
        """Settle the event successfully; waiters resume with ``value``."""
        self._settle(SimEvent._TRIGGERED, value)
        return self

    def fail(self, error: BaseException) -> "SimEvent":
        """Settle the event with an error; waiters have it thrown into them."""
        if not isinstance(error, BaseException):
            raise SimulationError("SimEvent.fail requires an exception instance")
        self._settle(SimEvent._FAILED, error)
        return self

    def _settle(self, state: int, value: Any) -> None:
        if self._state != SimEvent._PENDING:
            raise SimulationError(f"event {self.name or id(self)} settled twice")
        self._state = state
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.kernel._post(callback, self)

    def on_settle(self, callback: Callable[["SimEvent"], None]) -> None:
        """Run ``callback(event)`` once the event settles (immediately if it has)."""
        if self.settled:
            self.kernel._post(callback, self)
        else:
            self._callbacks.append(callback)

    def discard(self, callback: Callable[["SimEvent"], None]) -> None:
        """Remove a not-yet-fired callback (used when killing waiters)."""
        if callback in self._callbacks:
            self._callbacks.remove(callback)

    def __repr__(self) -> str:
        states = {0: "pending", 1: "triggered", 2: "failed"}
        return f"<SimEvent {self.name or hex(id(self))} {states[self._state]}>"


class Process:
    """Handle to a running simulation process.

    Exposes the outcome (``result`` / ``error``), a :meth:`join` event, and
    :meth:`kill`.  Joining a process that failed re-raises its exception in
    the joiner; joining a killed process raises :class:`ProcessKilled`.
    """

    __slots__ = ("kernel", "name", "_body", "_done", "_waiting_on", "_resume_cb", "alive", "killed")

    def __init__(self, kernel: "Kernel", body: ProcessBody, name: str = ""):
        self.kernel = kernel
        self.name = name or getattr(body, "__name__", "process")
        self._body = body
        self._done = SimEvent(kernel, name=f"done({self.name})")
        self._waiting_on: Optional[SimEvent] = None
        self._resume_cb: Optional[Callable[[SimEvent], None]] = None
        self.alive = True
        self.killed = False

    # -- outcome ----------------------------------------------------------

    @property
    def result(self) -> Any:
        """Return value of the generator, once finished successfully."""
        if not self._done.triggered:
            raise SimulationError(f"process {self.name} has not completed")
        return self._done.value

    @property
    def error(self) -> Optional[BaseException]:
        """The failure that ended the process, or None so far/on success."""
        return self._done.value if self._done.failed else None

    def join(self) -> SimEvent:
        """Event settled when the process finishes (with its result/failure)."""
        return self._done

    # -- control ----------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process now; its ``finally`` blocks run.

        Killing a finished process is a no-op.  Waiters joined on the
        process see :class:`ProcessKilled`.
        """
        if not self.alive:
            return
        self.alive = False
        self.killed = True
        if self._waiting_on is not None and self._resume_cb is not None:
            self._waiting_on.discard(self._resume_cb)
            self._waiting_on = None
            self._resume_cb = None
        if getattr(self._body, "gi_running", False):
            # Self-kill: the process (directly or transitively) killed
            # itself — e.g. code running on a node crashes that node.  The
            # frame cannot be thrown into while executing; teardown happens
            # when it next yields (see _step).
            self._done.fail(ProcessKilled(f"process {self.name} killed"))
            return
        try:
            self._body.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        except Exception:
            # A process that raises while being killed is still dead; its
            # error is not propagated (mirrors killing an OS process).
            pass
        finally:
            self._body.close()
        self._done.fail(ProcessKilled(f"process {self.name} killed"))

    # -- kernel internals --------------------------------------------------

    def _step(self, send_value: Any = None, throw_error: Optional[BaseException] = None) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        self._resume_cb = None
        try:
            if throw_error is not None:
                yielded = self._body.throw(throw_error)
            else:
                yielded = self._body.send(send_value)
        except StopIteration as stop:
            self.alive = False
            if not self._done.settled:
                self._done.trigger(stop.value)
            return
        except ProcessKilled:
            self.alive = False
            self.killed = True
            if not self._done.settled:
                self._done.fail(ProcessKilled(f"process {self.name} killed"))
            return
        except Exception as error:
            self.alive = False
            if not self._done.settled:
                self._done.fail(error)
            return
        if not self.alive:
            # killed itself mid-step (self-kill); finish the teardown now
            self._body.close()
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.kernel._post_at(self.kernel.now + yielded.duration, self._step)
            return
        if isinstance(yielded, Process):
            yielded = yielded.join()
        if isinstance(yielded, SimEvent):
            event = yielded

            def resume(settled: SimEvent, process: "Process" = self) -> None:
                if not process.alive:
                    return
                if settled.failed:
                    process._step(throw_error=settled.value)
                else:
                    process._step(send_value=settled.value)

            self._waiting_on = event
            self._resume_cb = resume
            event.on_settle(resume)
            return
        raise SimulationError(
            f"process {self.name} yielded {yielded!r}; expected Timeout, SimEvent or Process"
        )

    def __repr__(self) -> str:
        state = "alive" if self.alive else ("killed" if self.killed else "done")
        return f"<Process {self.name} {state}>"


class PeriodicTimer:
    """Handle to a repeating callback created by :meth:`Kernel.every`.

    The callback runs at ``start + k * interval`` for k = 1, 2, ... until
    :meth:`cancel`.  Timer posts are *daemon* queue entries: they fire
    interleaved with ordinary work but never keep the simulation alive on
    their own — ``run()`` stops (and ``run_until_settled`` reports a drain)
    once only daemon entries remain, exactly as if the timer were absent.
    """

    __slots__ = ("kernel", "interval", "fn", "alive", "fires")

    def __init__(self, kernel: "Kernel", interval: float, fn: Callable[[], None],
                 immediate: bool = False):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self.kernel = kernel
        self.interval = interval
        self.fn = fn
        self.alive = True
        self.fires = 0
        if immediate:
            # first firing at the current instant (still a daemon entry, so
            # an immediate timer alone never wakes an otherwise idle sim)
            self.kernel._post_at(self.kernel.now, self._fire, daemon=True)
        else:
            self._arm()

    def _arm(self) -> None:
        self.kernel._post_at(self.kernel.now + self.interval, self._fire,
                             daemon=True)

    def _fire(self) -> None:
        if not self.alive:
            return
        self.fires += 1
        try:
            self.fn()
        finally:
            if self.alive:
                self._arm()

    def cancel(self) -> None:
        """Stop the timer; an in-flight daemon post becomes a no-op."""
        self.alive = False


class Kernel:
    """The discrete-event scheduler.

    Typical use::

        kernel = Kernel()

        def worker():
            yield Timeout(5.0)
            return "done at t=5"

        handle = kernel.spawn(worker())
        kernel.run()
        assert handle.result == "done at t=5"
    """

    #: True when ``now`` tracks real (monotonic) time
    wall_clock = False

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._event_names = itertools.count(1)
        #: seq numbers of daemon (periodic-timer) queue entries; they run
        #: interleaved but do not count as pending work
        self._daemon_seqs: set = set()
        #: run statistics, exported by cluster observability dumps; the
        #: kernel is also the tick source (``lambda: kernel.now``) for
        #: every simulated-time metric and span.
        self.stats: dict = {"callbacks_run": 0, "processes_spawned": 0,
                            "events_created": 0}

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- construction -------------------------------------------------------

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending event."""
        self.stats["events_created"] += 1
        return SimEvent(self, name=name or f"ev{next(self._event_names)}")

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a generator as a process at the current instant."""
        if not hasattr(body, "send"):
            raise SimulationError(
                "spawn() takes a generator; did you forget to call the function?"
            )
        process = Process(self, body, name=name)
        self.stats["processes_spawned"] += 1
        self._post(process._step)
        return process

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run a plain callback ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._post_at(self.now + delay, fn, *args)

    def timeout_event(self, delay: float, value: Any = None) -> SimEvent:
        """An event that triggers by itself after ``delay``."""
        event = self.event(name=f"timeout({delay})")
        self.schedule(delay, lambda: event.settled or event.trigger(value))
        return event

    def every(self, interval: float, fn: Callable[[], None],
              immediate: bool = False) -> PeriodicTimer:
        """Run ``fn()`` every ``interval`` time units.

        The sampling-timer hook: returns a :class:`PeriodicTimer` whose
        firings interleave with ordinary events but never keep the
        simulation alive by themselves (see :class:`PeriodicTimer`).
        ``immediate`` schedules the first firing at the current instant
        instead of one interval out — probes that should observe the
        system's initial state (e.g. the introspection layer) want a
        snapshot even if the run ends within the first interval.
        """
        return PeriodicTimer(self, interval, fn, immediate=immediate)

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue; stop when empty or past ``until``.

        Returns the simulated time at which execution stopped.
        """
        while self._queue:
            if len(self._daemon_seqs) == len(self._queue):
                break  # only periodic timers remain: no real work left
            when, seq, fn = self._queue[0]
            if until is not None and when > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._daemon_seqs.discard(seq)
            self._now = when
            self.stats["callbacks_run"] += 1
            fn()
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def run_until_settled(self, event: SimEvent, limit: float = 1e12) -> Any:
        """Run until ``event`` settles; raise if the simulation drains first."""
        while not event.settled:
            if not self._queue or len(self._daemon_seqs) == len(self._queue):
                raise SimulationError(f"simulation drained before {event!r} settled")
            if self._now > limit:
                raise SimulationError(f"exceeded time limit waiting for {event!r}")
            when, seq, fn = heapq.heappop(self._queue)
            self._daemon_seqs.discard(seq)
            self._now = when
            self.stats["callbacks_run"] += 1
            fn()
        if event.failed:
            raise event.value
        return event.value

    def close(self) -> None:
        """Release the kernel's resources; the simulation holds none."""

    def __enter__(self) -> "Kernel":
        """Support ``with kernel: ...`` for scoped resource cleanup."""
        return self

    def __exit__(self, *_exc) -> None:
        """Close the kernel on scope exit."""
        self.close()

    # -- internals -------------------------------------------------------------

    def _post(self, fn: Callable[..., None], *args: Any) -> None:
        self._post_at(self.now, fn, *args)

    def _post_at(self, when: float, fn: Callable[..., None], *args: Any,
                 daemon: bool = False) -> None:
        if args:
            bound_fn, bound_args = fn, args

            def call() -> None:
                bound_fn(*bound_args)

            entry: Callable[[], None] = call
        else:
            entry = fn
        seq = next(self._sequence)
        if daemon:
            self._daemon_seqs.add(seq)
        heapq.heappush(self._queue, (when, seq, entry))


def any_of(kernel: Kernel, events: List[SimEvent]) -> SimEvent:
    """An event that settles when the *first* of ``events`` settles.

    Triggers with ``(index, value)`` of the winner; fails if the winner
    failed.
    """
    if not events:
        raise SimulationError("any_of requires at least one event")
    combined = kernel.event(name="any_of")

    def make_callback(index: int) -> Callable[[SimEvent], None]:
        """Bind ``index`` so the winner can report which branch it was."""

        def callback(settled: SimEvent) -> None:
            """Settle the combined event with the first branch outcome."""
            if combined.settled:
                return
            if settled.failed:
                combined.fail(settled.value)
            else:
                combined.trigger((index, settled.value))

        return callback

    for i, event in enumerate(events):
        event.on_settle(make_callback(i))
    return combined


def settle_all(kernel: Kernel, events: List[SimEvent]) -> SimEvent:
    """An event that settles once *all* of ``events`` have settled, capturing
    each outcome instead of failing fast.

    Triggers with a list of ``(ok, value)`` pairs aligned with ``events``:
    ``(True, value)`` for a triggered event, ``(False, error)`` for a failed
    one.  Unlike :func:`all_of` the combined event never fails, so a fan-out
    joiner always learns every task's fate — the pattern for termination
    broadcasts where one unreachable peer must not mask the others.
    """
    combined = kernel.event(name="settle_all")
    if not events:
        kernel._post(lambda: combined.trigger([]))
        return combined
    remaining = {"count": len(events)}
    outcomes: List[Any] = [None] * len(events)

    def make_callback(index: int) -> Callable[[SimEvent], None]:
        """Bind ``index`` so each branch records its aligned outcome pair."""

        def callback(settled: SimEvent) -> None:
            """Capture one ``(ok, value)`` pair; trigger once all are in."""
            outcomes[index] = (not settled.failed, settled.value)
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.trigger(list(outcomes))

        return callback

    for i, event in enumerate(events):
        event.on_settle(make_callback(i))
    return combined


def all_of(kernel: Kernel, events: List[SimEvent]) -> SimEvent:
    """An event that settles once *all* of ``events`` have settled.

    Triggers with the list of values; fails with the first failure observed.
    """
    combined = kernel.event(name="all_of")
    if not events:
        kernel._post(lambda: combined.trigger([]))
        return combined
    remaining = {"count": len(events)}
    values: List[Any] = [None] * len(events)

    def make_callback(index: int) -> Callable[[SimEvent], None]:
        """Bind ``index`` so each branch writes its own result slot."""

        def callback(settled: SimEvent) -> None:
            """Record one branch outcome; trigger when all have settled."""
            if combined.settled:
                return
            if settled.failed:
                combined.fail(settled.value)
                return
            values[index] = settled.value
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.trigger(list(values))

        return callback

    for i, event in enumerate(events):
        event.on_settle(make_callback(i))
    return combined
