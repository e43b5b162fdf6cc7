"""The lock registry: all lock tables of one runtime (or one object server).

Tracks which objects each owner holds or awaits, so that commit/abort can
visit exactly the affected tables, and lists an owner's queued requests,
whose blockers are its waits-for edges (:mod:`repro.locking.deadlock`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.colours.colour import Colour
from repro.locking.modes import Mode, mode_label
from repro.locking.owner import LockOwner
from repro.locking.request import LockRequest, RequestStatus
from repro.locking.rules import ColouredRules, LockRules
from repro.locking.semantic import SemanticRules, SemanticSpec
from repro.locking.table import KEEP, ColourRouter, LockTable
from repro.util.uid import Uid, UidGenerator


class LockRegistry:
    """Lock tables keyed by object uid, plus per-owner bookkeeping."""

    def __init__(self, rules: Optional[LockRules] = None, namespace: str = "lockreq"):
        self.rules: LockRules = rules if rules is not None else ColouredRules()
        self._tables: Dict[Uid, LockTable] = {}
        self._held_by: Dict[Uid, Set[Uid]] = {}      # owner uid -> object uids held
        self._waiting_by: Dict[Uid, Set[Uid]] = {}   # owner uid -> object uids queued on
        self._request_uids = UidGenerator(namespace)
        #: object uid -> the rule set of an object with type-specific
        #: locking (§2); every other object is under ``rules``
        self._semantic: Dict[Uid, SemanticRules] = {}
        #: optional ``(kind, **labels)`` sink for lock lifecycle events
        #: (grant / release / inheritance); wired by the runtimes to their
        #: Observability hub so the online auditor sees every transition.
        self.on_event: Optional[Callable[..., None]] = None

    # -- tables ---------------------------------------------------------------

    def use_semantic(self, object_uid: Uid, spec: SemanticSpec) -> None:
        """Lock one object by its type's operation groups (§2)."""
        self._semantic[object_uid] = SemanticRules(spec)

    def table(self, object_uid: Uid) -> LockTable:
        existing = self._tables.get(object_uid)
        if existing is None:
            existing = LockTable(
                object_uid, self._semantic.get(object_uid, self.rules))
            self._tables[object_uid] = existing
        return existing

    def tables(self) -> Iterable[LockTable]:
        return self._tables.values()

    # -- requests -------------------------------------------------------------

    def request(self, owner: LockOwner, object_uid: Uid, mode: Mode,
                colour: Colour,
                on_complete: Optional[Callable[[LockRequest], None]] = None) -> LockRequest:
        """Submit a lock request; bookkeeping wraps the caller's callback."""
        request = LockRequest(
            request_uid=self._request_uids.fresh(),
            owner=owner,
            object_uid=object_uid,
            mode=mode,
            colour=colour,
        )
        owner_uid = owner.uid

        def completed(req: LockRequest) -> None:
            waiting = self._waiting_by.get(owner_uid)
            queue = getattr(self._tables.get(object_uid), "queue", ())
            # the table takes a request off its queue before settling it:
            # the owner waits here on as long as another of its own stays
            if waiting is not None and not any(
                    queued.owner.uid == owner_uid for queued in queue):
                waiting.discard(object_uid)
                if not waiting:
                    del self._waiting_by[owner_uid]
            if req.status is RequestStatus.GRANTED:
                self._held_by.setdefault(owner_uid, set()).add(object_uid)
                if self.on_event is not None:
                    labels = {"owner": str(owner_uid),
                              "object": str(object_uid),
                              "mode": mode_label(mode),
                              "colour": str(colour)}
                    semantic = self._semantic.get(object_uid)
                    if semantic is not None:
                        # operation-group grant: carry the groups this one
                        # commutes with, so the online auditor can re-check
                        # the compatibility-based grant instead of skipping
                        spec = semantic.spec
                        labels["semantic"] = "1"
                        labels["compatible"] = spec.compatible_labels[mode]
                        if spec.is_commuting(mode):
                            # commute-path eligibility flows from the grant:
                            # the auditor only accepts a local (no-prepare)
                            # commit decision over grants carrying this flag
                            labels["commuting"] = "1"
                    self.on_event("lock.granted", **labels)
            elif self.on_event is not None:
                # refusal (timeout, deadlock victim, cancelled owner): the
                # reason and error class let postmortems attribute the abort
                self.on_event(
                    "lock.refused", owner=str(owner_uid),
                    object=str(object_uid), mode=mode_label(mode),
                    colour=str(colour), reason=str(req.refusal or ""),
                    error=(type(req.error).__name__
                           if req.error is not None else ""),
                )
            if on_complete is not None:
                on_complete(req)

        request.on_complete = completed
        # Registered as waiting up front; cleared again in `completed` for
        # immediate grants.
        self._waiting_by.setdefault(owner_uid, set()).add(object_uid)
        table = self.table(object_uid)
        table.request(request)
        if not request.settled and self.on_event is not None:
            # a wait-for edge: who is this request queued behind right now?
            self.on_event(
                "lock.blocked", owner=str(owner_uid),
                object=str(object_uid), mode=mode_label(mode),
                colour=str(colour),
                blockers=",".join(str(uid)
                                  for uid in table.blocked_on(request)),
            )
        return request

    def cancel_request(self, request: LockRequest, reason: str = "cancelled",
                       error: Optional[BaseException] = None) -> bool:
        return self.table(request.object_uid).cancel(request.request_uid, reason, error)

    def cancel_waiting(self, owner_uid: Uid, reason: str,
                       error: Optional[BaseException] = None) -> int:
        """Cancel all queued requests of an owner (it is being aborted)."""
        cancelled = 0
        for object_uid in sorted(self._waiting_by.get(owner_uid, set())):
            cancelled += self._tables[object_uid].cancel_owner(owner_uid, reason, error)
        self._waiting_by.pop(owner_uid, None)
        return cancelled

    # -- termination ------------------------------------------------------------

    def release_action(self, owner_uid: Uid) -> int:
        """Abort path: drop all records and queued requests of the owner.

        Ancestors' own records are untouched (§5.2 abort rule).  Returns
        the number of records dropped.
        """
        self.cancel_waiting(owner_uid, reason="owner aborted")
        return self._route(owner_uid, lambda colour: None, "abort",
                           withdrawn=True)

    def release_colour(self, owner_uid: Uid, colour, reason: str) -> int:
        """Vote-time release: drop the owner's records in ``colour`` everywhere.

        The commute path's local vote-and-apply releases a participant's
        locks at vote time (``reason`` goes on the event stream).  Only
        records taken in the voted colour go — the owner may still hold
        (and later route) records in other colours.  Returns the number of
        records dropped.
        """
        return self._route(
            owner_uid, lambda mine: None if mine == colour else KEEP, reason)

    def transfer_on_commit(self, owner_uid: Uid, router: ColourRouter) -> int:
        """Commit path: route every held record per colour across all tables;
        returns the number of records released."""
        return self._route(owner_uid, router, "commit")

    # -- queries -----------------------------------------------------------------

    def objects_held_by(self, owner_uid: Uid) -> Set[Uid]:
        return set(self._held_by.get(owner_uid, set()))

    def holds(self, owner_uid: Uid, object_uid: Uid, mode: Mode,
              colour: Optional[Colour] = None) -> bool:
        """Does the owner hold a record covering ``mode`` on the object?"""
        table = self._tables.get(object_uid)
        if table is None:
            return False
        return any(
            table.rules.join(record.mode, mode) == record.mode
            for record in table.records_of(owner_uid)
            if colour is None or record.colour == colour
        )

    def snapshot(self) -> Dict[str, object]:
        """Read-only image of every table plus the waits-for edges.

        Built for the introspection layer: one pass over the live tables
        (sorted by object uid for determinism), no locks taken, nothing
        mutated.  ``waits_for`` carries the object each edge contends on so
        a cluster-level stitcher can attribute the global graph.
        """
        objects = []
        held = queued = 0
        waits_for: List[Dict[str, str]] = []
        for object_uid in sorted(self._tables):
            table = self._tables[object_uid]
            image = table.snapshot()
            held += len(image["holders"])
            queued += len(image["queued"])
            objects.append(image)
            for request in table.queue:
                for holder_uid in table.blocked_on(request):
                    waits_for.append({
                        "waiter": str(request.owner.uid),
                        "holder": str(holder_uid),
                        "object": str(object_uid),
                    })
        return {"objects": objects, "held": held, "queued": queued,
                "waits_for": waits_for}

    def pending_requests_of(self, owner_uid: Uid) -> List[LockRequest]:
        pending: List[LockRequest] = []
        for object_uid in sorted(self._waiting_by.get(owner_uid, set())):
            table = self._tables.get(object_uid)
            if table is None:
                continue
            pending.extend(q for q in table.queue if q.owner.uid == owner_uid)
        return pending

    # -- internals ---------------------------------------------------------------

    def _route(self, owner_uid: Uid, router: ColourRouter, reason: str,
               withdrawn: bool = False) -> int:
        """Route the owner's records table by table (:meth:`LockTable.route`)
        and keep the per-owner bookkeeping; returns the number released.

        Each record's ``lock.released`` (with ``reason``) or
        ``lock.inherited`` event goes out before its table routes it: the
        wake-ups that follow grant queued requests, and those grants must
        observe the owner's records as already gone.  The router is a pure
        lookup, so both calls of it agree.
        """
        released = 0
        for object_uid in sorted(self._held_by.pop(owner_uid, ())):
            table = self._tables.get(object_uid)
            if table is None:
                continue
            if self.on_event is not None:
                for record in table.records_of(owner_uid):
                    destination = router(record.colour)
                    if destination is None:
                        self.on_event(
                            "lock.released", owner=str(owner_uid),
                            object=str(object_uid),
                            mode=mode_label(record.mode),
                            colour=str(record.colour), reason=reason)
                    elif destination is not KEEP:
                        self.on_event(
                            "lock.inherited", owner=str(owner_uid),
                            to=str(destination.uid), object=str(object_uid),
                            mode=mode_label(record.mode),
                            colour=str(record.colour))
            for destination in table.route(owner_uid, router, withdrawn):
                if destination is None:
                    released += 1
                else:  # the object stays held, by its inheritor or owner
                    holder = owner_uid if destination is KEEP else destination.uid
                    self._held_by.setdefault(holder, set()).add(object_uid)
            self._collect(object_uid, table)
        return released

    def _collect(self, object_uid: Uid, table: LockTable) -> None:
        if table.is_idle():
            self._tables.pop(object_uid, None)
