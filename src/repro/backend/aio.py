"""The real-time execution backend: the sim kernel's queue on the wall clock.

:class:`AsyncioKernel` *is* a :class:`~repro.sim.kernel.Kernel` whose clock
is the wall.  It inherits the one ``(when, seq, fn)`` heap, the daemon
accounting and every construction method (``event`` / ``spawn`` /
``schedule`` / ``timeout_event`` / ``every``), and replaces only the clock
(``now``) and the methods that run the heap (``run`` /
``run_until_settled``), which hand it to a real :mod:`asyncio` event
loop.  The protocol stack (cluster client, servers, RPC transport, network
fault injection, observability timers) runs on it *unchanged*.

Time units and ``time_scale``
-----------------------------

All delays, timeouts and clock reads throughout the repo are written in
abstract *time units* (the sim kernel's ticks).  ``AsyncioKernel`` maps
one unit to ``time_scale`` wall seconds off ``time.monotonic()``:
``now`` is elapsed wall time divided by ``time_scale``, and a
``Timeout(2.0)`` sleeps ``2.0 * time_scale`` real seconds on the loop.
Protocol-level timeout arithmetic (RPC retransmit intervals, lock-wait
bounds, network delay draws) therefore keeps its exact relative shape
while executing against real concurrency; shrinking ``time_scale`` makes
experiments faster but raises the scheduling jitter *in units*.

Wakes
-----

The loop holds one timer, armed for the heap's head.  A *wake* runs, in
``(when, seq)`` order, every entry that is due by the time the wake
reaches it -- zero-delay continuations posted during the wake included --
and then arms the timer for the new head, or stops the loop once the work
left is zero: no heap entry but daemon ones, and no bridged coroutine
still running (the sim kernel's drain rule).  A post made during a wake
never touches the timer; a post made outside one (from a bridged
coroutine, or by a caller between ``run()`` calls) re-arms it only when
it is earlier than the armed head.  Native tasks and I/O run *between*
wakes, so a zero-delay chain that never waits starves them, exactly as it
livelocks the sim kernel.

A loop the kernel owns is built on :class:`selectors.SelectSelector`,
whose timeout has microsecond resolution; epoll and poll round every idle
wait up to a whole millisecond.  The owned loop watches only its
self-pipe, so select's ``FD_SETSIZE`` limit does not apply.  A loop
injected with ``loop=`` keeps its owner's selector, and that selector's
precision.

What is, and is not, deterministic here
---------------------------------------

Seeded RNG streams (network delays, drop/duplicate fates) produce the
same draw *sequences* as on the sim backend, and entries due at the same
``when`` run in post order, because the ``seq`` tie-break is the sim
kernel's.  Due times, though, come from the wall clock: a post is due at
``now + delay`` with ``now`` read when the post is made, so which of two
concurrent senders posts first -- and which message receives the Nth
fault draw -- stays real and can differ between runs.  Fault-free
workloads with a deterministic logical structure still produce identical
commit/abort outcomes (the parity suite gates exactly that); under faults
only invariants -- conservation, agreement, auditor silence -- are stable.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
import time
from typing import Any, Callable, Coroutine, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Kernel, ProcessKilled, SimEvent

#: default wall seconds per time unit — 5 ms keeps sub-second experiments
#: with default network delays (0.5–2.0 units per hop) while leaving
#: millisecond-scale host jitter small relative to one unit
DEFAULT_TIME_SCALE = 0.005
_INF = float("inf")


class AsyncioKernel(Kernel):
    """The sim kernel's queue driven by a real asyncio loop (see module docs).

    Construction is cheap and does not start the loop; the loop runs only
    inside :meth:`run` / :meth:`run_until_settled`.  The clock is anchored
    at construction time and advances with ``time.monotonic()`` whether or
    not the loop is running — real time is real, so the gaps between
    ``run()`` calls are visible in ``now`` (unlike the sim kernel, which
    freezes between runs and fast-forwards past idle gaps).

    Call :meth:`close` (or use the kernel as a context manager) when
    done: the event loop holds file descriptors::

        with AsyncioKernel(time_scale=0.002) as kernel:
            cluster = Cluster(seed=7, backend=kernel)
            ...
    """

    wall_clock = True

    def __init__(self, time_scale: float = DEFAULT_TIME_SCALE,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        """Create a kernel mapping one time unit to ``time_scale`` seconds.

        ``loop`` injects an existing event loop (tests, embedding into a
        larger asyncio application); by default a private loop on a
        :class:`selectors.SelectSelector` is created and owned — closed by
        :meth:`close` — without touching asyncio's global event-loop
        policy.
        """
        if time_scale <= 0:
            raise SimulationError(
                f"time_scale must be positive, got {time_scale}")
        super().__init__()
        self.time_scale = time_scale
        self._owns_loop = loop is None
        self._loop = loop if loop is not None else asyncio.SelectorEventLoop(
            selectors.SelectSelector())
        self._origin = time.monotonic()
        #: bridged coroutines still running: work left beside the heap's
        #: non-daemon entries
        self._coroutines = 0
        self._running = False
        #: the one loop timer, due at ``_timer_at``: the heap's head when
        #: armed, +inf when nothing is, -inf in a wake and between runs —
        #: a post re-arms only if it is earlier
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at = -_INF
        #: ``run(until)``'s horizon: no entry due after it runs
        self._until = _INF

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The underlying asyncio event loop (for native-task bridging)."""
        return self._loop

    @property
    def now(self) -> float:
        """Monotonic wall time since construction, in time units."""
        return (time.monotonic() - self._origin) / self.time_scale

    def run_coroutine(self, coro: Coroutine, name: str = "") -> SimEvent:
        """Run a native asyncio coroutine as tracked work.

        The bridge to real asyncio tasks: ``coro`` is wrapped in an
        :class:`asyncio.Task` on this kernel's loop and counts as work left
        until it finishes, so ``run()`` will not declare the kernel
        drained while it is alive.  Returns an event that settles with the
        coroutine's result (failing with its exception; a cancelled task
        fails the event with :class:`~repro.sim.kernel.ProcessKilled`), so
        generator processes can ``yield`` it like any other event.
        """
        done = self.event(name=name or "coroutine")
        self._coroutines += 1
        task = self._loop.create_task(coro)

        def on_done(finished: "asyncio.Task") -> None:
            """Translate the task's ending into the event's settlement."""
            self._coroutines -= 1
            try:
                if finished.cancelled():
                    done.fail(ProcessKilled(f"coroutine {done.name} cancelled"))
                elif finished.exception() is not None:
                    done.fail(finished.exception())
                else:
                    done.trigger(finished.result())
            finally:
                if self._running:
                    self._arm()  # nobody may wait for it: the drain check

        task.add_done_callback(on_done)
        return done

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drive the loop until no work is left; returns now.

        With ``until``, the loop additionally stops once the clock passes
        it, and no entry due after it runs (it stays queued for the next
        ``run``).  Unlike the sim kernel the clock is never
        fast-forwarded: draining early returns early, at whatever ``now``
        the wall clock reads.
        """
        if self._work_left():
            stopper = None
            if until is not None:
                wall_delay = max(0.0, (until - self.now) * self.time_scale)
                stopper = self._loop.call_later(wall_delay, self._loop.stop)
                self._until = until
            try:
                self._run_loop()
            finally:
                self._until = _INF
                if stopper is not None:
                    stopper.cancel()
        return self.now

    def run_until_settled(self, event: SimEvent, limit: float = 1e12) -> Any:
        """Drive the loop until ``event`` settles; raise if drained first.

        ``limit`` bounds the wait in time units (a watchdog on the wall
        clock); exceeding it raises :class:`SimulationError`, as does the
        kernel draining — no work left — while the event is still
        pending.
        """

        def stop_on_settle(_settled: SimEvent) -> None:
            """Break out of the loop the moment the event settles."""
            self._loop.stop()

        if not event.settled:
            event.on_settle(stop_on_settle)
        wall_deadline = (
            self._loop.time() + max(0.0, limit - self.now) * self.time_scale)
        while not event.settled:
            if not self._work_left():
                raise SimulationError(
                    f"backend drained before {event!r} settled")
            if self.now > limit:
                raise SimulationError(
                    f"exceeded time limit waiting for {event!r}")
            watchdog = self._loop.call_at(wall_deadline, self._loop.stop)
            try:
                self._run_loop()
            finally:
                watchdog.cancel()
        if event.failed:
            raise event.value
        return event.value

    def close(self) -> None:
        """Close the owned event loop and its file descriptors.  Idempotent.

        An injected loop (``loop=`` at construction) is left open — its
        owner closes it.
        """
        if self._owns_loop and not self._loop.is_closed():
            self._loop.close()

    # -- internals -------------------------------------------------------------

    def _work_left(self) -> int:
        return len(self._queue) - len(self._daemon_seqs) + self._coroutines

    def _run_loop(self) -> None:
        if self._running:
            raise SimulationError("asyncio backend loop already running")
        self._running = True
        try:
            self._arm()
            self._loop.run_forever()
        finally:
            self._running = False
            if self._timer is not None:
                self._timer.cancel()
            self._timer, self._timer_at = None, -_INF

    def _post_at(self, when: float, fn: Callable[..., None], *args: Any,
                 daemon: bool = False) -> None:
        super()._post_at(when, fn, *args, daemon=daemon)
        if when < self._timer_at:
            self._arm()

    def _arm(self) -> None:
        # one timer for the heap's head; the loop stops once no work is left
        if self._timer is not None:
            self._timer.cancel()
        self._timer, self._timer_at = None, _INF
        if not self._work_left():
            self._loop.stop()
        elif self._queue:
            self._timer_at = self._queue[0][0]
            self._timer = self._loop.call_later(
                (self._timer_at - self.now) * self.time_scale, self._wake)

    def _wake(self) -> None:
        self._timer_at = -_INF
        queue, daemons, stats = self._queue, self._daemon_seqs, self.stats
        due = -_INF
        try:
            while queue:
                if len(daemons) == len(queue) and not self._coroutines:
                    break  # only periodic timers remain: drained
                when, seq, fn = queue[0]
                if when > due:
                    due = min(self.now, self._until)
                    if when > due:
                        break
                heapq.heappop(queue)
                daemons.discard(seq)
                stats["callbacks_run"] += 1
                fn()
        finally:
            self._arm()


#: the name the e2e benchmark harness builds ``realtime_2pc`` with; the
#: kernel is the backend
AsyncioBackend = AsyncioKernel
