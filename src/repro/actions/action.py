"""The action state machine: nesting, colours, commit routing, abort recovery.

An :class:`Action` is a node in the action tree with a static set of
colours (§5.1).  Conventional atomic actions are the single-colour special
case: a top-level atomic action takes one fresh colour and nested atomic
actions inherit their parent's colours, which reduces the coloured rules to
Moss's rules exactly.

Commit (§5.2): for every colour *c* the action possesses, its locks and
undo responsibility of colour *c* are inherited by the **closest ancestor
possessing c**; if no ancestor has *c*, the action is *outermost* for that
colour, and its c-coloured updates are made permanent through the runtime's
commit service (locally an atomic multi-object store write; under the
cluster simulator a two-phase commit across object servers).

Abort: active children are aborted first — except *independent* children
(no colour in common), which are detached and survive, implementing the
top-level/n-level independent semantics of §3.3 and §5.6.  Then every undo
record the action is currently responsible for (its own plus those
inherited from committed descendants) is restored, newest first, and all
its locks are discarded.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, TYPE_CHECKING,
)

from repro.actions.record import UndoLedger
from repro.actions.runtime_api import ActionRuntime
from repro.actions.status import ActionStatus, Outcome
from repro.colours.colour import Colour, colour_set
from repro.errors import CommitError, InvalidActionState
from repro.util.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.state_manager import StateManager

OutcomeListener = Callable[["Action", Outcome], None]


class Action:
    """One (possibly multi-coloured) action in the tree.

    Implements the :class:`~repro.locking.owner.LockOwner` interface (uid,
    path, colours), so instances are handed directly to the lock registry.
    """

    def __init__(self, runtime: ActionRuntime, colours: Iterable[Colour],
                 parent: Optional["Action"] = None, name: str = ""):
        self.runtime = runtime
        self.uid: Uid = runtime.fresh_action_uid()
        self.parent = parent
        self.colours: FrozenSet[Colour] = colour_set(colours)
        if not self.colours:
            raise InvalidActionState("an action needs at least one colour")
        self.name = name or f"action-{self.uid.sequence}"
        self.status = ActionStatus.ACTIVE
        self.children: List["Action"] = []
        self.path: Tuple[Uid, ...] = (parent.path + (self.uid,)) if parent else (self.uid,)
        #: undo responsibility (before-images, and §2's one compensation
        #: per applied operation) and write sets, per colour
        self._ledger = UndoLedger()
        self._listeners: List[OutcomeListener] = []
        #: colour used when a lock request names none (multi-coloured actions)
        self.default_colour: Optional[Colour] = None
        #: §5.3 companion scheme: every lock taken in another colour is
        #: shadowed in this colour (READ->READ, WRITE/EXCLUSIVE_READ->
        #: EXCLUSIVE_READ), so the enclosing control action retains all of
        #: this action's locks — the serializing-action behaviour.
        self.companion_colour: Optional[Colour] = None
        if parent is not None:
            parent._adopt(self)
        runtime.action_created(self)

    # -- tree and ancestry ----------------------------------------------------

    def is_ancestor_of(self, other: "Action") -> bool:
        """Inclusive ancestry (an action is its own ancestor, per Moss)."""
        return self.uid in other.path

    def closest_ancestor_with(self, colour: Colour) -> Optional["Action"]:
        """Closest *proper* ancestor possessing ``colour`` (commit routing)."""
        ancestor = self.parent
        while ancestor is not None:
            if colour in ancestor.colours:
                return ancestor
            ancestor = ancestor.parent
        return None

    def root(self) -> "Action":
        action = self
        while action.parent is not None:
            action = action.parent
        return action

    def depth(self) -> int:
        return len(self.path) - 1

    def _adopt(self, child: "Action") -> None:
        if self.status is not ActionStatus.ACTIVE:
            raise InvalidActionState(
                f"cannot nest under {self.name} in state {self.status.value}"
            )
        self.children.append(child)

    def _orphan(self, child: "Action") -> None:
        if child in self.children:
            self.children.remove(child)

    # -- write tracking -------------------------------------------------------

    def record_write(self, obj: "StateManager", colour: Colour) -> None:
        """Capture a before-image on the first write to ``obj`` in ``colour``.

        Runtimes call this once a WRITE lock has been granted; repeats are
        no-ops, preserving the eldest image.
        """
        self._require(ActionStatus.ACTIVE)
        if colour not in self.colours:
            raise InvalidActionState(
                f"{self.name} recording write in foreign colour {colour}"
            )
        self._ledger.note_write(obj, colour, self.runtime.next_undo_seq(),
                                self.uid)

    def record_operation(self, obj: "StateManager", colour: Colour,
                         compensate: Callable[[], None],
                         description: str = "") -> None:
        """Log a compensating operation for one applied update (§2's
        type-specific recovery).  Used instead of a before-image when the
        object's operations commute — restoring a state image would wipe
        concurrent updaters' effects; compensating does not."""
        self._require(ActionStatus.ACTIVE)
        if colour not in self.colours:
            raise InvalidActionState(
                f"{self.name} logging operation in foreign colour {colour}"
            )
        self._ledger.note_operation(
            obj, colour, compensate, description or "compensate",
            self.runtime.next_undo_seq(), self.uid)

    def written_objects(self, colour: Optional[Colour] = None) -> Dict[Uid, "StateManager"]:
        """Objects this action is currently responsible for persisting."""
        written = self._ledger.written
        if colour is not None:
            return dict(written.get(colour, {}))
        merged: Dict[Uid, "StateManager"] = {}
        for per_colour in written.values():
            merged.update(per_colour)
        return merged

    def undo_records(self) -> List:
        """All undo responsibility: before-images and operation logs."""
        return self._ledger.records()

    # -- outcome listeners -------------------------------------------------------

    def on_outcome(self, listener: OutcomeListener) -> None:
        """Register a callback fired once, after commit or abort completes."""
        self._listeners.append(listener)

    def _notify(self, outcome: Outcome) -> None:
        listeners, self._listeners = self._listeners, []
        for listener in listeners:
            listener(self, outcome)

    # -- commit ---------------------------------------------------------------------

    def commit(self) -> Outcome:
        """Commit this action (§5.2 commit rule), returning the outcome.

        Active children are aborted first (an action cannot outlive its
        enclosing action's termination; independent children are detached
        rather than aborted).  Per colour, in uid order: route to the
        closest same-coloured ancestor, or make the colour's updates
        permanent.  If persistence of some colour fails, the remaining
        (unpersisted) colours are rolled back and :class:`CommitError` is
        raised after recovery — colours already made permanent stay, which
        is exactly the per-colour failure-atomicity of §5.1.
        """
        self._require(ActionStatus.ACTIVE)
        self._settle_children()
        self.status = ActionStatus.COMMITTING
        routes: Dict[Colour, Optional["Action"]] = {}
        ordered = sorted(self.colours, key=lambda c: c.uid)
        persisted: List[Colour] = []
        for index, colour in enumerate(ordered):
            destination = self.closest_ancestor_with(colour)
            routes[colour] = destination
            self.runtime.note_commit_route(self, colour, destination)
            if destination is not None:
                self._ledger.bequeath(colour, destination._ledger)
                continue
            written = self._ledger.drop(colour)
            if not written:
                continue
            try:
                self.runtime.persist_colour(self, colour, written)
            except Exception as error:
                self._abort_after_partial_commit()
                raise CommitError(
                    f"{self.name}: persisting colour {colour} failed "
                    f"(colours already permanent: {[str(c) for c in persisted]})"
                ) from error
            persisted.append(colour)
        self.runtime.locks.transfer_on_commit(
            self.uid, lambda colour: routes.get(colour)
        )
        self.status = ActionStatus.COMMITTED
        if self.parent is not None:
            self.parent._orphan(self)
        self.runtime.action_terminated(self)
        self._notify(Outcome.COMMITTED)
        return Outcome.COMMITTED

    def _abort_after_partial_commit(self) -> None:
        """Persistence failed mid-commit: roll back what is still rollable
        (the colours not yet routed or made permanent)."""
        self.status = ActionStatus.ABORTING
        self._ledger.unwind()
        self.runtime.locks.release_action(self.uid)
        self.status = ActionStatus.ABORTED
        if self.parent is not None:
            self.parent._orphan(self)
        self.runtime.action_terminated(self)
        self._notify(Outcome.ABORTED)

    # -- abort ---------------------------------------------------------------------

    def abort(self) -> Outcome:
        """Abort this action: undo everything it is responsible for.

        Idempotent for an already-aborted action; aborting a committed
        action is an error (compensation, not recovery, is needed then —
        §3.4).
        """
        if self.status is ActionStatus.ABORTED:
            return Outcome.ABORTED
        if self.status is ActionStatus.COMMITTED:
            raise InvalidActionState(f"{self.name} already committed; cannot abort")
        self.status = ActionStatus.ABORTING
        self._settle_children()
        self.runtime.locks.cancel_waiting(self.uid, reason="action aborted")
        self._ledger.unwind()
        self.runtime.locks.release_action(self.uid)
        self.status = ActionStatus.ABORTED
        if self.parent is not None:
            self.parent._orphan(self)
        self.runtime.action_terminated(self)
        self._notify(Outcome.ABORTED)
        return Outcome.ABORTED

    def _settle_children(self) -> None:
        """Terminate or detach children before this action terminates.

        Children sharing at least one colour are aborted (their fate is
        bound to ours); colour-disjoint children are *independent* (§3.3) —
        they are detached to the nearest live ancestor and keep running.
        Detaching can hand us new children (grandchildren bubbling up), so
        loop until quiescent.
        """
        while True:
            active = [child for child in self.children if not child.status.terminated]
            if not active:
                return
            for child in active:
                if child.colours & self.colours:
                    child.abort()
                else:
                    child._detach_to_live_ancestor()

    def _detach_to_live_ancestor(self) -> None:
        old_parent = self.parent
        if old_parent is not None:
            old_parent._orphan(self)
        ancestor = old_parent.parent if old_parent is not None else None
        while ancestor is not None and ancestor.status.terminated:
            ancestor = ancestor.parent
        self.parent = ancestor
        if ancestor is not None:
            ancestor.children.append(self)

    # -- misc ----------------------------------------------------------------------

    def single_colour(self) -> Colour:
        """The action's colour, when it has exactly one (atomic actions)."""
        if len(self.colours) != 1:
            raise InvalidActionState(
                f"{self.name} has {len(self.colours)} colours; caller must name one"
            )
        return next(iter(self.colours))

    def lock_colour(self, requested: Optional[Colour] = None) -> Colour:
        """Resolve the colour for a lock request: explicit, default, or single."""
        if requested is not None:
            return requested
        if self.default_colour is not None:
            return self.default_colour
        return self.single_colour()

    def _require(self, status: ActionStatus) -> None:
        if self.status is not status:
            raise InvalidActionState(
                f"{self.name} is {self.status.value}, expected {status.value}"
            )

    def __repr__(self) -> str:
        shades = ",".join(sorted(str(c) for c in self.colours))
        return f"<Action {self.name} [{shades}] {self.status.value}>"
