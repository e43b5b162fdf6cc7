"""The local runtime's action: what a tree node holds and how it commits.

An :class:`Action` is an :class:`~repro.actions.node.ActionNode` — the
tree, the static colour set (§5.1) and the structural rules live there —
plus an undo ledger and the :class:`~repro.runtime.runtime.LocalRuntime`
it commits through.  Conventional atomic actions are the single-colour
special case: a top-level atomic action takes one fresh colour and nested
atomic actions inherit their parent's colours, which reduces the coloured
rules to Moss's rules exactly.

Commit (§5.2): for every colour *c* the action possesses, its locks and
undo responsibility of colour *c* are inherited by the **closest ancestor
possessing c**; if no ancestor has *c*, the action is *outermost* for that
colour, and its c-coloured updates are made permanent by the runtime (an
atomic multi-object store write).

Abort: active children are aborted first — except *independent* children
(no colour in common), which are detached and survive, implementing the
top-level/n-level independent semantics of §3.3 and §5.6.  Then every undo
record the action is currently responsible for (its own plus those
inherited from committed descendants) is restored, newest first, and all
its locks are discarded.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.actions.node import ActionNode
from repro.actions.record import UndoLedger
from repro.actions.status import ActionStatus, Outcome
from repro.colours.colour import Colour
from repro.errors import CommitError, InvalidActionState
from repro.util.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.state_manager import StateManager
    from repro.runtime.runtime import LocalRuntime

OutcomeListener = Callable[["Action", Outcome], None]


class Action(ActionNode):
    """An action of the local runtime: the tree node plus what it holds —
    the runtime it commits through, its undo ledger, outcome listeners."""

    def __init__(self, runtime: "LocalRuntime", colours: Iterable[Colour],
                 parent: Optional["Action"] = None, name: str = ""):
        self.runtime = runtime
        #: undo responsibility (before-images, and §2's one compensation
        #: per applied operation) and write sets, per colour
        self._ledger = UndoLedger()
        self._listeners: List[OutcomeListener] = []
        super().__init__(runtime.fresh_action_uid(), colours, parent, name)
        runtime.action_created(self)

    # -- write tracking -------------------------------------------------------

    def record_write(self, obj: "StateManager", colour: Colour) -> None:
        """Capture a before-image on the first write to ``obj`` in ``colour``.

        Runtimes call this once a WRITE lock has been granted; repeats are
        no-ops, preserving the eldest image.
        """
        self.require(ActionStatus.ACTIVE)
        self.require_colour(colour)
        self._ledger.note_write(obj, colour, self.runtime.next_undo_seq(),
                                self.uid)

    def record_operation(self, obj: "StateManager", colour: Colour,
                         method: str, args: tuple, result, inverse: str) -> None:
        """Log one applied update ``method(*args)`` (§2's type-specific
        recovery).  Used instead of a before-image when the object's
        operations commute — restoring a state image would wipe concurrent
        updaters' effects; compensating by ``inverse`` does not, and the
        colour's commit merges the operation into the committed state."""
        self.require(ActionStatus.ACTIVE)
        self.require_colour(colour)
        self._ledger.note_operation(obj, colour, method, args, result, inverse,
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
        rather than aborted).  Per colour, as :meth:`routes` says: bequeath
        to the closest same-coloured ancestor, or make the colour's updates
        permanent.  If persistence of some colour fails, the remaining
        (unpersisted) colours are rolled back and :class:`CommitError` is
        raised after recovery — colours already made permanent stay, which
        is exactly the per-colour failure-atomicity of §5.1.
        """
        self.require(ActionStatus.ACTIVE)
        for child in self.dependants():
            child.abort()
        self.status = ActionStatus.COMMITTING
        routes = self.routes()
        persisted: List[Colour] = []
        for colour, destination in routes:
            self.runtime.note_commit_route(self, colour, destination)
            if destination is not None:
                self._ledger.bequeath(colour, destination._ledger)
                continue
            ops = self._ledger.ops(colour)
            written = self._ledger.drop(colour)
            if not written:
                continue
            try:
                self.runtime.persist_colour(self, colour, written, ops)
            except Exception as error:
                # roll back what is still rollable: the colours not yet
                # routed or made permanent
                self.status = ActionStatus.ABORTING
                self._ledger.unwind()
                self.runtime.locks.release_action(self.uid)
                self._ended(ActionStatus.ABORTED, Outcome.ABORTED)
                raise CommitError(
                    f"{self.name}: persisting colour {colour} failed "
                    f"(colours already permanent: {[str(c) for c in persisted]})"
                ) from error
            persisted.append(colour)
        self.runtime.locks.transfer_on_commit(self.uid, dict(routes).get)
        return self._ended(ActionStatus.COMMITTED, Outcome.COMMITTED)

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
        for child in self.dependants():
            child.abort()
        self.runtime.locks.cancel_waiting(self.uid, reason="action aborted")
        self._ledger.unwind()
        self.runtime.locks.release_action(self.uid)
        return self._ended(ActionStatus.ABORTED, Outcome.ABORTED)

    def _ended(self, status: ActionStatus, outcome: Outcome) -> Outcome:
        """Seal a finished action: status, tree unlink, the runtime and
        the listeners told."""
        self.seal(status)
        self.runtime.action_terminated(self)
        self._notify(outcome)
        return outcome
