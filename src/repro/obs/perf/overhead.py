"""Self-accounting: what does the bus fan-out cost?

An :class:`ObsOverheadMeter` wraps a hub's ``bus.publish`` with a
wall-clock stopwatch, so any run can report how much real time went into
publishing events (event construction is outside it; every subscriber's
``consume`` -- auditor, hold-time tracker, flight recorder, postmortem
engine -- is inside) relative to the run as a whole, plus events/sec
throughput.  That is the *publish-only* share: hub calls that publish
nothing (``count``, ``observe``, the tracer's half of ``span``) are not in
it.  The figure for what observability costs as a whole is
``obs.self_us_per_commit`` / ``obs.share`` of ``python3 -m benchmarks.e2e``
(docs/OBSERVABILITY.md, *What observability costs*).

Wall-clock readings are inherently non-deterministic, so the meter never
writes into the metrics registry (whose dumps must stay reproducible);
its numbers live in :meth:`report` and travel in the *ungated* ``info``
section of scenario BENCH files.

**The no-op path.**  A cluster always has a hub and its layers report
unconditionally; only ``Network`` and ``LocalRuntime``, which are also
built on their own, accept a hub of ``None`` and then pay one attribute
check (``if self.obs is None``) per instrumentation point -- no event
construction, no label dicts, no locks.  :func:`measure_noop_path` times
that branch so the claim is checkable (~tens of nanoseconds per call site).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional


class ObsOverheadMeter:
    """Measures ``bus.publish``'s share of a run's wall time."""

    def __init__(self, hub):
        self.hub = hub
        self.events = 0
        self.obs_seconds = 0.0
        self._original_publish = None
        self._started: Optional[float] = None
        self._stopped: Optional[float] = None

    # -- lifecycle -------------------------------------------------------------

    def attach(self) -> "ObsOverheadMeter":
        """Start metering: wraps ``hub.bus.publish`` in a stopwatch."""
        if self._original_publish is not None:
            raise RuntimeError("overhead meter already attached")
        bus = self.hub.bus
        original = bus.publish
        self._original_publish = original
        self._started = time.perf_counter()
        self._stopped = None

        def timed_publish(event):
            begin = time.perf_counter()
            try:
                original(event)
            finally:
                self.obs_seconds += time.perf_counter() - begin
                self.events += 1

        bus.publish = timed_publish
        return self

    def detach(self) -> None:
        """Stop metering and restore the bus."""
        if self._original_publish is None:
            return
        self.hub.bus.publish = self._original_publish
        self._original_publish = None
        self._stopped = time.perf_counter()

    def __enter__(self) -> "ObsOverheadMeter":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- accounting ------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Events seen, obs wall time, run wall time, and the obs share."""
        if self._started is None:
            raise RuntimeError("overhead meter was never attached")
        end = self._stopped if self._stopped is not None else time.perf_counter()
        run_seconds = max(end - self._started, 1e-12)
        return {
            "events_total": self.events,
            "events_per_wall_second": self.events / run_seconds,
            "obs_wall_seconds": self.obs_seconds,
            "run_wall_seconds": run_seconds,
            "obs_share": self.obs_seconds / run_seconds,
        }


def measure_noop_path(iterations: int = 100_000) -> Dict[str, float]:
    """Time the ``obs is None`` branch a hub-less ``Network`` or
    ``LocalRuntime`` takes per instrumentation point — nanoseconds per
    call, for the docs."""

    class _Dark:
        __slots__ = ("obs",)

        def __init__(self):
            self.obs = None

        def touch(self) -> None:
            if self.obs is not None:  # pragma: no cover - never taken
                self.obs.count("x")

    dark = _Dark()
    begin = time.perf_counter()
    for _ in range(iterations):
        dark.touch()
    elapsed = time.perf_counter() - begin
    return {
        "iterations": float(iterations),
        "seconds_total": elapsed,
        "nanos_per_call": elapsed / iterations * 1e9,
    }
