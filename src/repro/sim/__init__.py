"""Deterministic discrete-event simulation kernel.

The paper's failure model (§2) — fail-silent nodes, stable vs volatile
storage, lossy networks — is exercised here under a seeded, single-threaded
event loop rather than real threads, so every distributed experiment replays
bit-identically.  Processes are Python generators that ``yield`` effects
(:class:`Timeout`, :class:`SimEvent`, another process's handle) and are
resumed by the :class:`Kernel`.
"""

from repro.sim.kernel import (
    Kernel,
    Process,
    ProcessKilled,
    SimEvent,
    Timeout,
    all_of,
)

__all__ = [
    "Kernel",
    "Process",
    "ProcessKilled",
    "SimEvent",
    "Timeout",
    "all_of",
]
