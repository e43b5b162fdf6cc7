"""Transaction postmortems: causal abort attribution and commit forensics.

The fourth observability layer (after metrics/traces, the invariant
auditor, and the performance observatory) answers *why*:

- :class:`PostmortemEngine` — replays retained events and reconstructs,
  per finished action, an abort reason from the taxonomy in
  :mod:`~repro.obs.postmortem.records` (deadlock victim, lock conflict,
  crash/partition, injected fault, vote rollback, fast-path downgrade,
  cascade, app error, explicit abort) plus a resolved blocker chain —
  which action/colour held the awaited lock, transitively, with hold
  times.  Bind it with ``cluster.observe(postmortem=True)``: a view over
  the history layer's events, caught up whenever it is asked.
- :mod:`~repro.obs.postmortem.critical` — commit critical paths over the
  saved span tree: the gating chain from the ``commit`` span down to the
  participant that bounded the slowest round.
- ``python -m repro.obs why dump.json [--aborts | --slowest N | <txn>]``
  — the offline CLI over ``Observability.save`` dumps; exit codes match
  the other obs CLIs (0 clean, 1 unusable input, 2 attribution gaps).
"""

from repro.obs.postmortem.engine import PostmortemEngine
from repro.obs.postmortem.records import (
    ALL_REASONS,
    APP_ERROR,
    CASCADE,
    CRASH_PARTITION,
    DEADLOCK_VICTIM,
    EXPLICIT_ABORT,
    FAST_PATH_DOWNGRADE,
    INJECTED_FAULT,
    LOCK_CONFLICT,
    UNKNOWN,
    VOTE_ROLLBACK,
    BlockerLink,
    Postmortem,
)

__all__ = [
    "ALL_REASONS",
    "APP_ERROR",
    "BlockerLink",
    "CASCADE",
    "CRASH_PARTITION",
    "DEADLOCK_VICTIM",
    "EXPLICIT_ABORT",
    "FAST_PATH_DOWNGRADE",
    "INJECTED_FAULT",
    "LOCK_CONFLICT",
    "Postmortem",
    "PostmortemEngine",
    "UNKNOWN",
    "VOTE_ROLLBACK",
]
