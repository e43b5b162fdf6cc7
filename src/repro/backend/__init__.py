"""Execution backends: one protocol stack, two substrates.

The coloured-action runtime and its commit protocol are written against a
small scheduler surface (see :mod:`repro.backend.api`).  This package
provides the two implementations —

- :class:`~repro.backend.sim.SimBackend`: the deterministic discrete-event
  simulation (the seed repo's kernel, wrapped unchanged), for replayable
  chaos testing at simulated scale;
- :class:`~repro.backend.aio.AsyncioBackend`: the same kernel on a
  monotonic scaled wall clock, its queue driven by a real :mod:`asyncio`
  event loop, for wall-clock measurements and genuinely concurrent
  interleavings —

and :func:`~repro.backend.api.resolve_backend`, which every entry point
(``Cluster(backend=...)``) uses to accept ``None`` / ``"sim"`` /
``"asyncio"`` / an instance.  ``docs/BACKENDS.md`` documents the full
contract, the sim-vs-asyncio capability matrix and which backend answers
which question.
"""

from repro.backend.aio import AsyncioBackend, AsyncioKernel
from repro.backend.api import BackendError, ExecutionBackend, resolve_backend
from repro.backend.sim import SimBackend

__all__ = [
    "AsyncioBackend",
    "AsyncioKernel",
    "BackendError",
    "ExecutionBackend",
    "SimBackend",
    "resolve_backend",
]
