"""Per-object lock table: holders, a FIFO wait queue, and termination routing.

The table is a pure synchronous state machine, and the only one: what
conflicts, and when two grants to one owner are one record, is asked of its
:class:`~repro.locking.rules.LockRules` — data modes (conventional,
coloured) or a type's operation groups alike.  Requests settle through
their callbacks; the runtimes decide how a caller blocks.  Queueing is
strict FIFO (no overtaking) to prevent writer starvation, with one
documented exception: a requester that *already holds* a record on the
object may be granted past the queue if the rules allow it — an upgrade or
companion-colour acquisition is a continuation of an existing grant, not a
new access, and forcing it behind the queue would manufacture deadlocks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.colours.colour import Colour
from repro.locking.lock import LockRecord
from repro.locking.modes import Mode, mode_label
from repro.locking.request import LockRequest
from repro.locking.rules import LockRules
from repro.util.uid import Uid

#: a router's answer for a record that stays with its owner
KEEP = object()

#: Termination routing: given a lock's colour, the ancestor that inherits
#: it, None to release it, or KEEP
ColourRouter = Callable[[Colour], object]


class LockTable:
    """Lock state for a single object."""

    def __init__(self, object_uid: Uid, rules: LockRules):
        self.object_uid = object_uid
        self.rules = rules
        self.holders: List[LockRecord] = []
        self.queue: Deque[LockRequest] = deque()
        #: how many times an abort, cancel or refusal removed a holder or a
        #: queued request here: a waiter whose blockers changed while this
        #: stood still saw the queue move by commits and grants alone
        self.withdrawals = 0

    # -- queries ------------------------------------------------------------

    def records_of(self, owner_uid: Uid) -> List[LockRecord]:
        return [record for record in self.holders if record.owner.uid == owner_uid]

    def is_idle(self) -> bool:
        """True when nothing is held or queued (table may be garbage collected)."""
        return not self.holders and not self.queue

    def snapshot(self) -> Dict[str, object]:
        """Read-only wire-friendly image of this table (introspection).

        Walks ``holders`` and ``queue`` without mutating either — safe to
        serve off the live structure mid-protocol.
        """
        return {
            "object": str(self.object_uid),
            "holders": [
                {"owner": str(record.owner.uid),
                 "mode": mode_label(record.mode),
                 "colour": str(record.colour)}
                for record in self.holders
            ],
            "queued": [
                {"owner": str(queued.owner.uid),
                 "mode": mode_label(queued.mode),
                 "colour": str(queued.colour)}
                for queued in self.queue
            ],
        }

    def blocked_on(self, request: LockRequest) -> List[Uid]:
        """Owner uids this queued request is currently waiting for.

        Includes owners of blocking held records and owners of requests
        queued ahead of it (FIFO makes those block too).  Used to build the
        waits-for graph.
        """
        waiting_for = {record.owner.uid for record in self.rules.blockers(request, self.holders)}
        for earlier in self.queue:
            if earlier is request:
                break
            waiting_for.add(earlier.owner.uid)
        waiting_for.discard(request.owner.uid)
        return sorted(waiting_for)

    # -- requesting -----------------------------------------------------------

    def request(self, request: LockRequest) -> None:
        """Grant now, refuse (rule violation), or enqueue the request."""
        reason = self.rules.validate(request)
        if reason is not None:
            request.refuse(reason)
        elif self._admit(request, behind_queue=bool(self.queue)):
            request.grant()
        else:
            self.queue.append(request)

    def cancel(self, request_uid: Uid, reason: str = "cancelled",
               error: Optional[BaseException] = None) -> bool:
        """Remove a queued request (timeout / deadlock victim)."""
        return bool(self._withdraw(
            [q for q in self.queue if q.request_uid == request_uid],
            reason, error))

    def cancel_owner(self, owner_uid: Uid, reason: str,
                     error: Optional[BaseException] = None) -> int:
        """Cancel every queued request by ``owner_uid``; returns the count."""
        return self._withdraw(
            [q for q in self.queue if q.owner.uid == owner_uid], reason, error)

    # -- termination ---------------------------------------------------------

    def route(self, owner_uid: Uid, router: ColourRouter,
              withdrawn: bool = False) -> List[object]:
        """Route each of the owner's records per its colour (§5.2).

        ``router(colour)`` names the record's inheritor (the closest
        ancestor possessing the colour), None to release it (the owner is
        outermost for the colour, or aborts), or :data:`KEEP` to leave it
        with the owner (the commute path's vote-time release of one
        colour).  An inherited record joins the inheritor's own record in
        its colour when the rules make them one.  ``withdrawn`` (an abort)
        counts the records gone in ``withdrawals``.  Returns the router's
        answer for each of the owner's records, in holder order.
        """
        routed: List[object] = []
        keep: List[LockRecord] = []
        moved: List[LockRecord] = []
        for record in self.holders:
            if record.owner.uid != owner_uid:
                keep.append(record)
                continue
            destination = router(record.colour)
            routed.append(destination)
            if destination is KEEP:
                keep.append(record)
            elif destination is not None:
                record.reassign(destination)
                moved.append(record)
        gone = len(self.holders) - len(keep)
        if not gone:
            return routed
        self.holders = keep
        if withdrawn:
            self.withdrawals += gone
        for record in moved:
            target, joined, _ = self._own_record(
                record.owner.uid, record.colour, record.mode)
            if target is not None:
                target.mode = joined  # e.g. the parent keeps the stronger mode
            else:
                self.holders.append(record)
        self._wake()
        return routed

    # -- internals ---------------------------------------------------------------

    def _withdraw(self, victims: List[LockRequest], reason: str,
                  error: Optional[BaseException]) -> int:
        """Take queued requests off the queue and settle them: refused with
        ``error`` when one is given, cancelled otherwise."""
        self.withdrawals += len(victims)
        for queued in victims:
            self.queue.remove(queued)
            if error is not None:
                queued.refuse(reason, error=error)
            else:
                queued.cancel(reason)
        if victims:
            self._wake()
        return len(victims)

    def _own_record(self, owner_uid: Uid, colour: Colour, mode: Mode):
        """One pass over the holders on behalf of an owner.

        Returns ``(record, joined, holds_here)``: the owner's record in
        ``colour`` that a grant of ``mode`` becomes part of and the mode it
        then carries (both None when the grant is a record of its own), and
        whether the owner holds anything here at all.
        """
        join = self.rules.join
        holds_here = False
        for record in self.holders:
            if record.owner.uid == owner_uid:
                holds_here = True
                if record.colour == colour:
                    joined = join(record.mode, mode)
                    if joined is not None:
                        return record, joined, True
        return None, None, holds_here

    def _admit(self, request: LockRequest, behind_queue: bool) -> bool:
        """Make ``request`` a holder if it may be granted now.

        The one place a grant is decided and a holder installed, for a new
        request and a woken one alike.  It only decides: the caller takes
        the request off the queue *before* calling ``grant()``, because the
        completion callback re-enters this table (companion locks, the
        operation body, the next redo lock) and must not meet its own
        settled request at the front.

        A record that already covers the mode is an idempotent
        re-acquisition, granted whatever the queue — if the rules still
        allow it: a READ its owner holds is no licence past a child's
        WRITE (§5.2).  Otherwise the request must be at the front of the
        line — or its owner a holder, see the module docstring — and pass
        the rules.
        """
        mine, joined, holds_here = self._own_record(
            request.owner.uid, request.colour, request.mode)
        if behind_queue and not holds_here:
            return False
        if self.rules.blockers(request, self.holders):
            return False
        if mine is not None and joined == mine.mode:
            return True
        if mine is not None:
            mine.mode = joined  # upgrade in place
        else:
            self.holders.append(
                LockRecord(request.owner, request.mode, request.colour))
        return True

    def _wake(self) -> None:
        """Grant queued requests from the front while the rules allow (strict FIFO)."""
        queue = self.queue
        while queue:
            front = queue[0]
            if not front.settled and not self._admit(front, behind_queue=False):
                break
            queue.popleft()
            front.grant()  # a no-op for one settled elsewhere
