"""Distributed deadlock detection: Chandy–Misra–Haas edge chasing.

A request that closes a cycle within its server's registry as it queues
is refused there and then (the server's fast abort); cycles *across*
servers (action W waits at server S1 for a lock H holds, while H waits at
server S2 for a lock W holds), and cycles a lock transfer closes, are
invisible to that check.  The classic AND-model edge-chasing algorithm
closes the gap:

- When a request by W has been blocked at server S for one
  ``probe_interval``, S walks W's waits there with
  :func:`~repro.locking.deadlock.cycle_through`, the one waits-for search:
  a blocker that is itself queued at S is followed in place, and each
  blocker H that waits nowhere at S gets one *probe*
  ``(initiator=W, target=H)`` at its **home node** (the node H's client
  runs on, carried in the action context).  The walk enters each member
  once, so a queue of n waiters behind one holder costs n probes, not
  one per path through the queue.
- The home knows whether H is currently awaiting a remote operation and at
  which server (the client marks this in its node's volatile memory around
  every RPC); if so it forwards the probe to that server.
- That server walks H's queued requests the same way, the probe's path
  counting as already visited: each of *their* blockers H' extends the
  chase.  A walk that reaches the initiator proves a cycle; the
  detecting server tells the victim's home (the victim is the cycle's
  youngest member), which tells the server holding the victim's queued
  request to refuse it with :class:`~repro.errors.DeadlockDetected` —
  the waiter's RPC fails and its client aborts the action.  A victim
  queued at the detecting server is refused there directly; one homed at
  the detecting node is refused through that node's own record of where
  it waits.
- Probes carry the visited set — each path member with its home — so
  chases terminate even on long or re-entrant paths, and the detecting
  server can reach the victim's home without a mirror of it.

When to chase is the PostgreSQL ``deadlock_timeout`` rule plus a change
test.  The chaser keeps no clock and no per-waiter state: a queued
request owns one timer chain at its server
(``ObjectServer._locked_request``), which wakes every ``probe_interval``
and last at the wait's deadline.  A wake that finds the request's
blockers moved by commits and grants alone (no holder or queued request
left its table by abort, cancel or refusal since the last wake) restarts
the deadline and chases nothing: a blocker that commits is on no cycle.
Any other wake before the deadline calls :meth:`EdgeChaser.chase_from`
with the blockers the wait chased last; the chase re-reads them and
probes only if they differ.  So a wait is chased once it is one interval
old and has not just moved — most waits end sooner and send nothing —
and again only on change.  That is complete: an edge of the waits-for
graph appears only when a request queues or when a waiter's blockers
change without one (§5.3 passes a committing action's locks to its
closest same-coloured ancestor; a grant moves the queue ahead of a
waiter), so the last edge to close any cycle is one of those two.
Requests join a queue behind its waiters, so commits and grants move a
waiter's blockers only finitely often, and the edge is chased at most
one interval after they stop.  By then the cycle is whole and stays
whole, because its members release only at commit or abort — and none
of them can commit.  Re-probing an unchanged wait on a clock finds
nothing this misses.

A blocker PREPARED at the chasing server is not chased (its mirror's
``prepared`` flag, set where the server logs PREPARED).  The client sends
an action's prepares from ``commit``, which the action's process calls
once all its invocations have returned, so such a blocker has no lock
request in progress anywhere: its home marks no server for it and would
end the chase on arrival.  Skipping the probe loses nothing it could find.

The lock-wait timeout, the same chain's last wake, stays as a backstop
for pathologies the probes cannot see (a lost probe or victim notice);
it counts from the wait's last move.  A waiter whose home node crashed
is ended by the restarted home's ``home_restarted`` notice, which
refuses its queued requests (``ObjectServer._h_home_restarted``,
docs/PROTOCOL.md §3.6).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.cluster.message import Message, decode_uid, encode_uid
from repro.errors import DeadlockDetected
from repro.locking.deadlock import blockers_of, cycle_through
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
        blockers = blockers_of(self.server.registry, waiter_uid)
        if blockers and blockers != chased:
            self._chase(waiter_uid, (), {})
        return blockers

    # -- the chase ------------------------------------------------------------------

    def _chase(self, target: Uid, path: Tuple[Uid, ...],
               homes: Dict[Uid, str]) -> None:
        """Walk ``target``'s waits at this server, ``path`` being the chain
        that led to it from the chase's initiator, and probe each blocker
        that waits elsewhere.  ``homes`` maps the members a probe named to
        their home nodes; every other member's home is its mirror's."""
        mirrors = self.server.mirrors

        def home_of(uid: Uid) -> str:
            if uid not in homes:
                homes[uid] = getattr(mirrors.get(uid), "home", "")
            return homes[uid]

        def probe(blocker: Uid, chain: Tuple[Uid, ...]) -> None:
            mirror = mirrors.get(blocker)
            if mirror is None or not mirror.home or mirror.prepared:
                return  # unknown here, or committing: it waits for nothing
            self.node.send(mirror.home, "dl_probe", {
                "initiator": encode_uid(chain[0]),
                "target": encode_uid(blocker),
                "visited": sorted([*encode_uid(uid), home_of(uid)]
                                  for uid in (*chain, blocker)),
            })

        cycle = cycle_through(self.server.registry, target, path, probe)
        if cycle is not None:
            self.server.obs.count("deadlock_cycles_total",
                                  node=self.node.name)
            # every detection point of one cycle agrees on its victim:
            # the youngest (largest uid) member, so symmetric detections
            # do not kill two actions
            victim = max(cycle)
            self._declare_victim(victim, home_of(victim))

    def _h_probe(self, message: Message) -> bool:
        payload = message.payload
        initiator = decode_uid(payload["initiator"])
        target = decode_uid(payload["target"])
        homes = {decode_uid((name, number)): home
                 for name, number, home in payload.get("visited", [])}
        # Role 1: we are the target's home — forward to where it waits.
        waiting_at: Dict = self.node.volatile.get(WAITING_AT_KEY, {})
        waiting_server = waiting_at.get(target)
        if waiting_server == self.node.name:
            waiting_server = None  # it waits here; fall through to role 2
        if waiting_server is not None:
            self.node.send(waiting_server, "dl_probe", payload)
            return True
        # Role 2: walk the target's queued lock requests at this server (a
        # target that is running waits for nothing: the chase ends).
        path = (initiator, *(uid for uid in homes
                             if uid != initiator and uid != target))
        self._chase(target, path, homes)
        return True

    # -- resolution ---------------------------------------------------------------------

    def _declare_victim(self, victim_uid: Uid, home: str) -> None:
        """A cycle closed on ``victim_uid``, whose home is ``home``: break
        it here if the victim is queued here, else have its home refuse
        it where it waits (at once, when that home is this node)."""
        if not home or self.server.registry.pending_requests_of(victim_uid):
            self._break_wait(victim_uid)
        elif home == self.node.name:
            self._refuse_where_waiting(victim_uid)
        else:
            self.node.send(home, "dl_victim",
                           {"victim": encode_uid(victim_uid)})

    def _h_victim(self, message: Message) -> bool:
        self._refuse_where_waiting(decode_uid(message.payload["victim"]))
        return True

    def _refuse_where_waiting(self, victim: Uid) -> None:
        """As the victim's home: break its wait at the server its client
        marked it awaiting."""
        waiting_at: Dict = self.node.volatile.get(WAITING_AT_KEY, {})
        waiting_server = waiting_at.get(victim)
        if waiting_server is None or waiting_server == self.node.name:
            self._break_wait(victim)
            return
        self.node.send(waiting_server, "dl_cancel_wait",
                       {"victim": encode_uid(victim)})

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
