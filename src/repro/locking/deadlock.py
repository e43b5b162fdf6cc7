"""The waits-for walk: every deadlock check over one lock registry.

Two-phase locking plus FIFO queues can deadlock (the paper notes the
fig. 13(a) invoker/invokee deadlock explicitly).  An owner waits for the
owners :meth:`~repro.locking.table.LockTable.blocked_on` names for each of
its queued requests; :func:`cycle_through` searches those edges for a
cycle back to one owner.  The local runtime and an object server's fast
abort walk their own registry; the cluster's edge chaser walks the part of
a chase that lies at its server and probes the rest.  Who is the victim is
the caller's choice.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.locking.registry import LockRegistry
from repro.util.uid import Uid


def blockers_of(registry: LockRegistry, uid: Uid) -> List[Uid]:
    """Whom the requests ``uid`` has queued in ``registry`` wait for, sorted."""
    return sorted({blocker for request in registry.pending_requests_of(uid)
                   for blocker in registry.table(
                       request.object_uid).blocked_on(request)})


def cycle_through(registry: LockRegistry, waiter: Uid,
                  path: Sequence[Uid] = (),
                  elsewhere: Optional[Callable[[Uid, Tuple[Uid, ...]],
                                               None]] = None
                  ) -> Optional[List[Uid]]:
    """The cycle back to the walk's origin that ``waiter``'s waits close.

    ``path`` is the chain that led to ``waiter`` (its first member is the
    origin; empty, ``waiter`` is).  Depth first, in uid order, through
    every blocker that also waits in ``registry``; each member is entered
    once, and ``path``'s members not at all.  Returns the chain from the
    origin to the member that waits for it, or None.  A blocker that waits
    nowhere here is handed, once, to ``elsewhere(blocker, chain)``, where
    ``chain`` leads from the origin to the member waiting for it.
    """
    origin = path[0] if path else waiter
    trail = [*path, waiter]
    seen = set(trail)
    pending = [iter(blockers_of(registry, waiter))]
    while pending:
        for blocker in pending[-1]:
            if blocker == origin:
                return list(trail)
            if blocker in seen:
                continue
            seen.add(blocker)
            if registry.pending_requests_of(blocker):
                trail.append(blocker)
                pending.append(iter(blockers_of(registry, blocker)))
                break
            if elsewhere is not None:
                elsewhere(blocker, tuple(trail))
        else:
            pending.pop()
            trail.pop()
    return None
