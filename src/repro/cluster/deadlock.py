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
test.  A wait is chased once it is one ``probe_interval`` old — most
waits end sooner and send nothing — and after that its blockers are
re-read every interval and chased again only when they differ from the
set last chased.  That is complete: an edge of the waits-for graph
appears only when a request queues or when a waiter's blockers change
without one (§5.3 passes a committing action's locks to its closest
same-coloured ancestor; a grant moves the queue ahead of a waiter), so
the last edge to close any cycle is one of those two and is chased at
most one interval later.  By then the cycle is whole and stays whole,
because its members release only at commit or abort — and none of them
can commit.  Re-probing an unchanged wait on a clock finds nothing this
misses.

The per-request lock-wait timeout stays as a backstop for pathologies the
probes cannot see (a lost probe or victim notice, a waiter whose home node
crashed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.cluster.message import Message, decode_uid, encode_uid
from repro.errors import DeadlockDetected
from repro.util.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import ObjectServer

#: volatile key: action uid -> server name the action is awaiting
WAITING_AT_KEY = "action_waiting"


class EdgeChaser:
    """The probe logic for one node (attached to its ObjectServer)."""

    def __init__(self, server: "ObjectServer", probe_interval: float = 5.0):
        self.server = server
        self.node = server.node
        self.kernel = server.kernel
        #: how old a wait is before its first chase, and how often its
        #: blockers are re-read after that
        self.probe_interval = probe_interval
        self.probes_sent = 0
        self.cycles_detected = 0
        #: waiter uid -> the token of its one live watch at this server
        self._watches: Dict[Uid, object] = {}
        # probes are fire-and-forget datagrams, not RPCs: a lost probe is
        # covered by the lock-wait timeout, so no ack/reply machinery.
        node = server.node

        def dispatch(message: Message) -> bool:
            if message.kind == "dl_probe":
                return self._h_probe(message)
            if message.kind == "dl_victim":
                return self._h_victim(message)
            if message.kind == "dl_cancel_wait":
                return self._h_cancel_wait(message)
            return False

        node.add_dispatcher(dispatch)

    # -- initiation --------------------------------------------------------------

    def chase_from(self, waiter_uid: Uid) -> None:
        """A request of ``waiter_uid`` just queued at this server: watch it.

        Nothing is sent now.  Every ``probe_interval`` the watch re-reads
        the waiter's blockers here and chases them if they differ from the
        set it chased last (the first read always does).  The watch ends
        when the waiter has nothing queued here, or when a later request of
        the waiter starts a watch of its own.
        """
        token = object()
        self._watches[waiter_uid] = token
        chased: Optional[List[Uid]] = None

        def reread() -> None:
            nonlocal chased
            if self._watches.get(waiter_uid) is not token:
                return
            blockers = self._blockers(waiter_uid) if self.node.alive else []
            if not blockers:
                del self._watches[waiter_uid]
                return
            if blockers != chased:
                chased = blockers
                self._forward_probes(waiter_uid, waiter_uid, set())
            self.kernel.schedule(self.probe_interval, reread)

        self.kernel.schedule(self.probe_interval, reread)

    # -- the chase ------------------------------------------------------------------

    def _blockers(self, waiter_uid: Uid) -> List[Uid]:
        """Whom the requests ``waiter_uid`` has queued here wait for."""
        registry = self.server.registry
        found: Set[Uid] = set()
        for request in registry.pending_requests_of(waiter_uid):
            found.update(registry.table(request.object_uid).blocked_on(request))
        return sorted(found)

    def _forward_probes(self, initiator: Uid, target_uid: Uid,
                        visited: Set) -> bool:
        """``target_uid`` waits at THIS server; chase each of its blockers.
        True when the chase closed a cycle (and a victim was declared)."""
        registry = self.server.registry
        for blocker_uid in self._blockers(target_uid):
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
                                        visited | {key}):
                    return True
                continue
            mirror = self.server.mirrors.get(blocker_uid)
            home = getattr(mirror, "home", "") if mirror else ""
            if not home:
                continue
            self.probes_sent += 1
            self.server.obs.count("deadlock_probes_total",
                                  node=self.node.name)
            self.node.send(home, "dl_probe", {
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
            self._forward_probes(initiator, target, visited)
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
