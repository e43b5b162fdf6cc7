"""Distributed deadlock detection: Chandy–Misra–Haas edge chasing.

Server-local waits-for cycles are caught by each server's own detector;
cycles *across* servers (action W waits at server S1 for a lock H holds,
while H waits at server S2 for a lock W holds) are invisible to any single
server.  The classic AND-model edge-chasing algorithm closes the gap:

- When a request by W has been blocked at server S for one
  ``probe_interval``, S sends a *probe* ``(initiator=W, target=H)`` to each
  blocker H's **home node** (the node H's client runs on, carried in the
  action context).  A blocker that is itself queued at S is followed in
  place, without the round trip through its home.
- The home knows whether H is currently awaiting a remote operation and at
  which server (the client marks this in its node's volatile memory around
  every RPC); if so it forwards the probe to that server.
- That server maps the probe onto H's queued requests: each of *their*
  blockers H' extends the chase.  A probe arriving back at its initiator
  proves a cycle; the detecting server tells the initiator's home, which
  tells the server holding the initiator's queued request to refuse it
  with :class:`~repro.errors.DeadlockDetected` — the waiter's RPC fails
  and its client aborts the action.  A victim queued at the detecting
  server is refused there directly.
- Probes carry the visited set, so chases terminate even on long or
  re-entrant paths.

When to chase is the PostgreSQL ``deadlock_timeout`` rule plus a change
test.  The chaser keeps no clock and no per-waiter state: a queued
request owns one timer chain at its server
(``ObjectServer._locked_request``), which wakes every ``probe_interval``
and last at the wait's deadline.  Each wake before the deadline that
finds the request still queued calls :meth:`EdgeChaser.chase_from` with
the blockers the wait chased last; the chase re-reads them and probes
only if they differ.  So a wait is chased once it is one interval old —
most waits end sooner and send nothing — and again only on change.  That
is complete: an edge of the waits-for graph appears only when a request
queues or when a waiter's blockers change without one (§5.3 passes a
committing action's locks to its closest same-coloured ancestor; a grant
moves the queue ahead of a waiter), so the last edge to close any cycle
is one of those two and is chased at most one interval later.  By then
the cycle is whole and stays whole, because its members release only at
commit or abort — and none of them can commit.  Re-probing an unchanged
wait on a clock finds nothing this misses.

A blocker PREPARED at the chasing server is not chased (its mirror's
``prepared`` flag, set where the server logs PREPARED).  The client sends
an action's prepares from ``commit``, which the action's process calls
once all its invocations have returned, so such a blocker has no lock
request in progress anywhere: its home marks no server for it and would
end the chase on arrival.  Skipping the probe loses nothing it could find.

The lock-wait timeout, the same chain's last wake, stays as a backstop
for pathologies the probes cannot see (a lost probe or victim notice, a
waiter whose home node crashed).
"""

from __future__ import annotations

from typing import Dict, List, Set, TYPE_CHECKING

from repro.cluster.message import Message, decode_uid, encode_uid
from repro.errors import DeadlockDetected
from repro.util.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import ObjectServer

#: volatile key: action uid -> server name the action is awaiting
WAITING_AT_KEY = "action_waiting"


class EdgeChaser:
    """The probe logic for one node (attached to its ObjectServer)."""

    def __init__(self, server: "ObjectServer"):
        self.server = server
        self.node = server.node
        self.cycles_detected = 0

        # probes are fire-and-forget datagrams, not RPCs: a lost probe is
        # covered by the lock-wait timeout, so no ack/reply machinery.
        def dispatch(message: Message) -> bool:
            if message.kind == "dl_probe":
                return self._h_probe(message)
            if message.kind == "dl_victim":
                return self._h_victim(message)
            if message.kind == "dl_cancel_wait":
                return self._h_cancel_wait(message)
            return False

        self.node.add_dispatcher(dispatch)

    # -- initiation --------------------------------------------------------------

    def chase_from(self, waiter_uid: Uid, chased: List[Uid]) -> List[Uid]:
        """One wake of a wait of ``waiter_uid`` queued at this server:
        re-read the waiter's blockers here and chase them if they differ
        from ``chased``, the set that wait chased last.  Returns the set
        read, for the wait to pass back at its next wake."""
        blockers = self._blockers(waiter_uid)
        if blockers and blockers != chased:
            self._forward_probes(waiter_uid, waiter_uid, blockers, set())
        return blockers

    # -- the chase ------------------------------------------------------------------

    def _blockers(self, waiter_uid: Uid) -> List[Uid]:
        """Whom the requests ``waiter_uid`` has queued here wait for."""
        registry = self.server.registry
        found: Set[Uid] = set()
        for request in registry.pending_requests_of(waiter_uid):
            found.update(registry.table(request.object_uid).blocked_on(request))
        return sorted(found)

    def _forward_probes(self, initiator: Uid, target_uid: Uid,
                        blockers: List[Uid], visited: Set) -> bool:
        """``target_uid`` waits at THIS server on ``blockers``; chase each.
        True when the chase closed a cycle (and a victim was declared)."""
        registry = self.server.registry
        for blocker_uid in blockers:
            if blocker_uid == initiator:
                self.cycles_detected += 1
                self.server.obs.count("deadlock_cycles_total",
                                      node=self.node.name)
                # every member of the cycle is in the visited set (plus
                # the endpoints); all detection points therefore agree
                # on one victim: the youngest (largest uid) — so
                # symmetric detections do not kill two actions.
                members = {initiator, target_uid}
                for key in visited:
                    members.add(Uid(str(key[0]), int(key[1])))
                self._declare_victim(max(members))
                return True
            key = tuple(encode_uid(blocker_uid))
            if key in visited:
                continue
            if registry.pending_requests_of(blocker_uid):
                # queued here too: follow the edge in place
                if self._forward_probes(initiator, blocker_uid,
                                        self._blockers(blocker_uid),
                                        visited | {key}):
                    return True
                continue
            mirror = self.server.mirrors.get(blocker_uid)
            if mirror is None or not mirror.home or mirror.prepared:
                continue  # unknown here, or committing: it waits for nothing
            self.node.send(mirror.home, "dl_probe", {
                "initiator": encode_uid(initiator),
                "target": encode_uid(blocker_uid),
                "visited": sorted(visited | {key}),
            })
        return False

    def _h_probe(self, message: Message) -> bool:
        payload = message.payload
        initiator = decode_uid(payload["initiator"])
        target = decode_uid(payload["target"])
        visited = {tuple(v) for v in payload.get("visited", [])}
        # Role 1: we are the target's home — forward to where it waits.
        waiting_at: Dict = self.node.volatile.get(WAITING_AT_KEY, {})
        waiting_server = waiting_at.get(target)
        if waiting_server == self.node.name:
            waiting_server = None  # it waits here; fall through to role 2
        if waiting_server is not None:
            self.node.send(waiting_server, "dl_probe", payload)
            return True
        # Role 2: the target has queued lock requests at this server.
        if self.server.registry.pending_requests_of(target):
            self._forward_probes(initiator, target, self._blockers(target),
                                 visited)
        # Otherwise the target is running (no dependency edge): chase ends.
        return True

    # -- resolution ---------------------------------------------------------------------

    def _declare_victim(self, victim_uid: Uid) -> None:
        """A cycle closed on ``victim_uid``: break it here if the victim is
        queued here, else tell its home to."""
        mirror = self.server.mirrors.get(victim_uid)
        home = getattr(mirror, "home", "") if mirror else ""
        if (home == self.node.name or not home
                or self.server.registry.pending_requests_of(victim_uid)):
            self._break_wait(victim_uid)
            return
        self.node.send(home, "dl_victim", {"victim": encode_uid(victim_uid)})

    def _h_victim(self, message: Message) -> bool:
        victim = decode_uid(message.payload["victim"])
        waiting_at: Dict = self.node.volatile.get(WAITING_AT_KEY, {})
        waiting_server = waiting_at.get(victim)
        if waiting_server is None or waiting_server == self.node.name:
            self._break_wait(victim)
            return True
        self.node.send(waiting_server, "dl_cancel_wait",
                       {"victim": message.payload["victim"]})
        return True

    def _h_cancel_wait(self, message: Message) -> bool:
        self._break_wait(decode_uid(message.payload["victim"]))
        return True

    def _break_wait(self, victim_uid: Uid) -> None:
        """Refuse the victim's queued requests at this server."""
        self.server.registry.cancel_waiting(
            victim_uid, reason="distributed deadlock victim",
            error=DeadlockDetected(cycle=[victim_uid]),
        )


def mark_waiting(node, action_uid: Uid, server: str) -> None:
    """Client-side: record that ``action_uid`` awaits ``server`` (volatile)."""
    node.volatile.setdefault(WAITING_AT_KEY, {})[action_uid] = server


def clear_waiting(node, action_uid: Uid) -> None:
    node.volatile.get(WAITING_AT_KEY, {}).pop(action_uid, None)
