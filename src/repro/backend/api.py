"""The execution-backend contract.

Everything above the scheduler — the cluster protocol stack, the
observability layers, the benchmark harness — is written against one small
surface: a *kernel* object that schedules callbacks and steps generator
processes, plus the fan-in combinators (:func:`~repro.sim.kernel.any_of`,
:func:`~repro.sim.kernel.settle_all`, :func:`~repro.sim.kernel.all_of`).
An :class:`ExecutionBackend` packages one implementation of that surface
so the *same* protocol code runs either on the deterministic simulation
(:class:`~repro.backend.sim.SimBackend`) or on a real asyncio event loop
with a monotonic wall clock (:class:`~repro.backend.aio.AsyncioBackend`).

The kernel surface every backend must provide
--------------------------------------------

``now``
    The backend's clock, as a monotonically non-decreasing float in
    *time units*.  On the sim backend a unit is one tick of simulated
    time and only advances when queued work runs; on the asyncio backend
    a unit is ``time_scale`` wall seconds off ``time.monotonic()`` and
    advances whether or not anything runs.

``event(name="") -> SimEvent``
    A fresh one-shot event with ``trigger`` / ``fail`` / ``on_settle``
    semantics (see :class:`repro.sim.kernel.SimEvent`).  Events are the
    only cross-process synchronisation primitive; both backends reuse the
    same event class, scheduled on their own loop.

``spawn(generator, name="") -> Process``
    Start a generator process at the current instant.  Processes yield
    ``Timeout`` / ``SimEvent`` / ``Process`` effects and are stepped by
    the backend's loop; ``kill()`` runs their ``finally`` blocks.

``schedule(delay, fn, *args)``
    Run a plain callback ``delay`` time units from now.

``timeout_event(delay, value=None) -> SimEvent``
    An event that triggers by itself after ``delay`` units.

``every(interval, fn, immediate=False) -> PeriodicTimer``
    A repeating *daemon* timer: firings interleave with ordinary work but
    never keep the backend alive on their own.  ``immediate=True``
    schedules the first firing at the current instant.

``run(until=None) -> float``
    Drive the loop until no non-daemon work remains (or past ``until``).

``run_until_settled(event, limit=...) -> value``
    Drive the loop until ``event`` settles; raise ``SimulationError`` if
    the backend drains (no non-daemon work left) first.

``stats``
    A dict of run counters (``callbacks_run``, ``processes_spawned``,
    ``events_created``) exported by cluster observability dumps.

What the contract does and does not guarantee
---------------------------------------------

* **Clock.** Monotone on both backends.  Sim time is exact and replayable;
  asyncio time is real and includes host jitter (and keeps advancing in
  the gaps between ``run()`` calls).
* **RNG / fault injection.** Backends do not own randomness: the network
  layer draws delays and drop/duplicate fates from seeded per-stream
  RNGs (``SplitRandom``) exactly as on the sim backend, so a seed pins
  the *sequence* of fault decisions on both.  On asyncio, which message
  receives the Nth draw can differ run-to-run whenever concurrent
  processes race to send — that is the point of a real-time backend.
* **Delivery ordering.** Both kernels run work in ``(when, seq)`` order:
  same-instant work FIFO by sequence number.  On the asyncio backend a
  due time is ``now + delay`` read off the wall clock when the post is
  made, so deliveries whose virtual times are within the host's
  processing time of each other are ordered by real time.  Protocol code
  must not rely on same-instant FIFO — only on the per-call ordering the
  RPC layer itself provides.
* **Drain detection.** Both backends agree: "drained" means no non-daemon
  callbacks are scheduled.  A process waiting on an event that nothing
  will ever trigger counts as drained on both.

See ``docs/BACKENDS.md`` for the full capability matrix and the guide to
choosing a backend per question.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.errors import ReproError


class BackendError(ReproError):
    """An execution backend was misconfigured or misused."""


class ExecutionBackend(abc.ABC):
    """One implementation of the kernel surface the protocol stack runs on.

    Subclasses expose their scheduler via :attr:`kernel` and advertise
    their capabilities through three class attributes:

    - :attr:`name` — short identifier (``"sim"`` / ``"asyncio"``), used in
      logs, dumps and benchmark documents;
    - :attr:`deterministic` — whether a seed pins the entire execution
      (scheduling order included), i.e. whether runs replay bit-identically;
    - :attr:`wall_clock` — whether ``now`` advances with real time.

    Callers hold the kernel (``backend.kernel``, ``cluster.kernel``) and
    schedule on it directly; the backend itself only builds, describes
    and closes it.
    """

    #: short identifier for logs, dumps and benchmark documents
    name: str = "abstract"
    #: True when a seed pins scheduling order and every outcome
    deterministic: bool = False
    #: True when ``now`` tracks real (monotonic) time
    wall_clock: bool = False

    @property
    @abc.abstractmethod
    def kernel(self):
        """The scheduler object implementing the kernel surface."""

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (event loops, fds).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        """Support ``with backend: ...`` for scoped resource cleanup."""
        return self

    def __exit__(self, *_exc) -> None:
        """Close the backend on scope exit."""
        self.close()

    # -- message delivery ---------------------------------------------------

    def make_network(self, rng, config=None, observability=None):
        """Build the message-delivery fabric for a cluster on this backend.

        Both backends reuse :class:`repro.cluster.network.Network` — the
        loopback transport: endpoints deliver through the backend's own
        scheduler with delays, drops and duplicates drawn from the same
        seeded per-stream RNGs, so every wire kind (``rpc_batch``,
        ``status_query``, the 2PC/commute prepare family) behaves
        identically up to scheduling.  On the sim backend delays elapse in
        simulated time; on asyncio they elapse on the wall clock, scaled
        by the backend's ``time_scale``.
        """
        from repro.cluster.network import Network

        return Network(self.kernel, rng, config, observability=observability)

    def __repr__(self) -> str:
        """Identify the backend and its capability flags."""
        flags = []
        if self.deterministic:
            flags.append("deterministic")
        if self.wall_clock:
            flags.append("wall-clock")
        return f"<{type(self).__name__} {self.name} {'+'.join(flags) or 'none'}>"


def resolve_backend(spec: Any = None) -> ExecutionBackend:
    """Turn a backend spec into an :class:`ExecutionBackend` instance.

    ``None`` (the default everywhere) means the deterministic simulation;
    an :class:`ExecutionBackend` instance passes through unchanged; the
    strings ``"sim"`` and ``"asyncio"`` build a fresh backend with default
    settings.  Anything else raises :class:`BackendError`.
    """
    if spec is None:
        from repro.backend.sim import SimBackend

        return SimBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, str):
        if spec == "sim":
            from repro.backend.sim import SimBackend

            return SimBackend()
        if spec in ("asyncio", "aio"):
            from repro.backend.aio import AsyncioBackend

            return AsyncioBackend()
        raise BackendError(
            f"unknown backend {spec!r} (expected 'sim' or 'asyncio')")
    raise BackendError(
        f"backend must be None, a name or an ExecutionBackend, got {spec!r}")
