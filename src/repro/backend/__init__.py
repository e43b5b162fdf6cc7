"""Execution backends: one protocol stack, two kernels.

The coloured-action runtime and its commit protocol are written against
one scheduler surface, :class:`repro.sim.kernel.Kernel`, and run on either
of its two implementations:

- :class:`~repro.sim.kernel.Kernel`: the deterministic discrete-event
  simulation, for replayable chaos testing at simulated scale;
- :class:`~repro.backend.aio.AsyncioKernel`: the same kernel on a
  monotonic scaled wall clock, its queue driven by a real :mod:`asyncio`
  event loop, for wall-clock measurements and genuinely concurrent
  interleavings.

``Cluster(backend=...)`` accepts ``None`` / ``"sim"`` / ``"asyncio"`` / a
kernel instance.  ``docs/BACKENDS.md`` documents the kernel contract, the
sim-vs-asyncio capability matrix and which kernel answers which question.
"""

from repro.backend.aio import AsyncioKernel

__all__ = ["AsyncioKernel"]
