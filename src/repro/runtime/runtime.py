"""LocalRuntime: the single-process, multi-threaded action runtime.

Holds the stable object store, the lock registry (coloured rules by
default) and the colour allocator.  All shared state is guarded by one
re-entrant mutex; waiting for locks happens *outside* the mutex on
per-request events, so holders can release while others wait.

Deadlock policy: a waits-for edge appears when a request queues, or when
a commit passes its locks to an ancestor (§5.2) and a waiter's blocker
becomes that ancestor.  So a cycle passes through the requester, or
through an ancestor of the committing action, and it is searched for
there (:func:`~repro.locking.deadlock.cycle_through`) at that instant,
until none is left.  The youngest action on each cycle has its pending
requests refused with :class:`~repro.errors.DeadlockDetected` — the
waiter raises, and its scope aborts the action.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Iterable, List, Optional

from repro.actions.action import Action
from repro.actions.status import Outcome
from repro.colours.colour import Colour, ColourAllocator
from repro.errors import DeadlockDetected, LockRefused, LockTimeout
from repro.locking.deadlock import cycle_through
from repro.locking.modes import LockMode, Mode, companion_mode, mode_label
from repro.locking.registry import LockRegistry
from repro.locking.request import LockRequest, RequestStatus
from repro.locking.rules import ColouredRules, LockRules
from repro.objects.state_manager import StateManager
from repro.obs.hub import Observability
from repro.runtime.context import current_action
from repro.runtime.scope import ActionScope
from repro.store.interface import ObjectStore
from repro.store.stable import StableStore
from repro.util.uid import Uid, UidGenerator

#: Sentinel: "use the ambient action as parent" in the action factories.
AMBIENT = object()

#: the ``node`` label everything this runtime reports carries
NODE = "local"


class LocalRuntime:
    """Everything needed to run (multi-)coloured actions in one process."""

    def __init__(self, rules: Optional[LockRules] = None,
                 store: Optional[ObjectStore] = None):
        self.store: ObjectStore = store if store is not None else StableStore()
        self._registry = LockRegistry(rules if rules is not None else ColouredRules())
        self.colours = ColourAllocator()
        self.objects: Dict[Uid, StateManager] = {}
        self._action_uids = UidGenerator("action")
        self._object_uids = UidGenerator("object")
        self._undo_seq = itertools.count(1)
        self._mutex = threading.RLock()
        #: the uids of the actions refused as deadlock victims, in order
        self._victims: List[Uid] = []
        #: this runtime's Observability hub (see repro.obs): counters, the
        #: always-on auditor, spans once a layer keeps them.  Its World and
        #: counters are not thread-safe, so every report is made under
        #: ``_mutex``; only spans, which the tracer guards, are not.
        self.obs = Observability()
        self._registry.on_event = self._emit_lock_event
        #: action uid -> open termination span (commit/abort in flight),
        #: so persist spans can parent onto them
        self._terminating: Dict[Uid, object] = {}

    # -- what an Action asks of its runtime ------------------------------------

    @property
    def locks(self) -> LockRegistry:
        """The lock registry actions release/transfer their locks through."""
        return self._registry

    def fresh_action_uid(self) -> Uid:
        """A new unique id for an action being constructed."""
        with self._mutex:
            return self._action_uids.fresh()

    def next_undo_seq(self) -> int:
        """Monotonic sequence for ordering undo records across actions."""
        return next(self._undo_seq)

    def persist_colour(self, action: Action, colour: Colour,
                       written: Dict[Uid, StateManager],
                       ops: Dict[Uid, list]) -> None:
        """Permanence of effect: write the new states to the stable store.

        A semantic object (one the colour has ``ops`` on) becomes its
        committed state ⊕ those operations, and its live instance runs
        their ``committed`` hooks; any other object is written as it is.
        Single store, single mutex — the multi-object write is atomic with
        respect to every other runtime operation.
        """
        parent = self._terminating.get(action.uid) or action._obs_span
        span = self.obs.span(f"persist:{colour}", parent=parent,
                             kind="client", node=NODE, colour=str(colour))
        try:
            for object_uid, obj in sorted(written.items()):
                if object_uid in ops:
                    self.store.write_committed(type(obj).merged(
                        self.store.read_committed(object_uid),
                        ops[object_uid]))
                else:
                    obj.persist_to(self.store)
        except Exception:
            span.set(outcome="failed").finish()
            raise
        for object_uid, obj_ops in ops.items():
            written[object_uid].settle(obj_ops)
        self.obs.emit("colour.permanent", action=str(action.uid),
                      colour=str(colour),
                      objects=",".join(sorted(str(u) for u in written)),
                      node=NODE)
        self.obs.count("colour_permanent_total", colour=str(colour))
        span.set(outcome="persisted").finish()

    def note_commit_route(self, action: Action, colour: Colour,
                          destination) -> None:
        """``action`` is committing and routes ``colour`` to ``destination``
        (an ancestor, or None for "make permanent"): the hub is told."""
        self.obs.commit_routed(action, colour, destination, NODE)

    def action_terminated(self, action: Action) -> None:
        """Called once an action has committed or aborted."""
        self.obs.action_ended(action, NODE)

    def action_created(self, action: Action) -> None:
        """Called at the end of every Action's construction."""
        with self._mutex:
            self.obs.action_begun(action, NODE)

    def _emit_lock_event(self, kind: str, **labels) -> None:
        self.obs.emit(kind, node=NODE, **labels)

    # -- object management ------------------------------------------------------

    def fresh_object_uid(self) -> Uid:
        with self._mutex:
            return self._object_uids.fresh()

    def register_object(self, obj: StateManager, persist: bool = True) -> None:
        """Track a live object; optionally write its initial committed state.

        Object creation is not itself transactional (matching Arjuna's
        model, where an object exists once its state reaches the store);
        modifications to it are.
        """
        with self._mutex:
            self.objects[obj.uid] = obj
            if persist:
                obj.persist_to(self.store)

    def object(self, object_uid: Uid) -> StateManager:
        return self.objects[object_uid]

    # -- action factories ----------------------------------------------------------

    def top_level(self, name: str = "", colour_name: str = "") -> ActionScope:
        """A top-level atomic action: one fresh colour."""
        colour = self.colours.fresh(colour_name or (name and f"{name}-colour") or "")
        return ActionScope(self, Action(self, [colour], parent=None, name=name))

    def atomic(self, parent=AMBIENT, name: str = "") -> ActionScope:
        """A (possibly nested) atomic action.

        Nested: inherits the parent's colours, giving exactly Moss's nested
        atomic actions.  Without a parent (explicit ``parent=None`` or no
        ambient action): a fresh top-level action.
        """
        resolved = self.resolve_parent(parent)
        if resolved is None:
            return self.top_level(name=name)
        return ActionScope(self, Action(self, resolved.colours, parent=resolved, name=name))

    def coloured(self, colours: Iterable[Colour], parent=AMBIENT,
                 name: str = "") -> ActionScope:
        """A multi-coloured action with an explicit static colour set (§5)."""
        return ActionScope(self, self.new_action(colours, parent, name))

    def new_action(self, colours: Iterable[Colour], parent=AMBIENT,
                   name: str = "") -> Action:
        """The bare action :meth:`coloured` scopes — with
        :meth:`fresh_colour`, the factory :mod:`repro.structures.schemes`
        builds every structure from."""
        return Action(self, colours, parent=self.resolve_parent(parent), name=name)

    def fresh_colour(self, name: str = "") -> Colour:
        """A colour no other action possesses."""
        return self.colours.fresh(name)

    def resolve_parent(self, parent) -> Optional[Action]:
        """What a factory's ``parent=`` means: :data:`AMBIENT` is the calling
        context's innermost action (if any), anything else is itself."""
        if parent is AMBIENT:
            return current_action()
        return parent

    # -- termination (mutex-guarded wrappers) -------------------------------------------

    def commit_action(self, action: Action) -> Outcome:
        span = self._termination_span(action, "commit")
        try:
            with self._mutex:
                outcome = action.commit()
                # an inherited lock makes its new holder a blocker: a
                # cycle that closes passes through the inheritor
                for ancestor_uid in action.path[:-1]:
                    self._break_cycles(ancestor_uid)
        except Exception:
            span.set(outcome="commit-failed").finish()
            raise
        finally:
            self._terminating.pop(action.uid, None)
        span.set(outcome="committed").finish()
        return outcome

    def abort_action(self, action: Action) -> Outcome:
        span = self._termination_span(action, "abort")
        try:
            with self._mutex:
                outcome = action.abort()
        except Exception:
            span.set(outcome="abort-failed").finish()
            raise
        finally:
            self._terminating.pop(action.uid, None)
        span.set(outcome="aborted").finish()
        return outcome

    def _termination_span(self, action: Action, name: str):
        """Client-kind termination span — the local analogue of the
        cluster client's commit/abort RPC spans, so local and cluster
        traces share one shape."""
        span = self.obs.span(name, parent=action._obs_span,
                             kind="client", node=NODE)
        self._terminating[action.uid] = span
        return span

    # -- lock acquisition -----------------------------------------------------------------

    def acquire(self, action: Action, obj: StateManager, mode: Mode,
                colour: Optional[Colour] = None,
                timeout: Optional[float] = None) -> LockRequest:
        """Blockingly acquire a lock for ``action`` on ``obj``.

        ``mode`` is a :class:`LockMode`, or an operation-group name for an
        object with type-specific locking (§2).  ``colour`` defaults to the
        action's ``default_colour`` (or its single colour).  On grant of a
        WRITE lock the object's before-image is captured (failure
        atomicity).  If the action declares a ``companion_colour`` (§5.3's
        serializing scheme), the lock is additionally shadowed in that
        colour, in its :func:`~repro.locking.modes.companion_mode` — so the
        enclosing control action will retain the object.  Raises
        :class:`DeadlockDetected`, :class:`LockTimeout` or
        :class:`LockRefused` on the failure paths.
        """
        chosen = action.lock_colour(colour)
        settled = threading.Event()
        wait_started = time.monotonic()

        def completed(_request: LockRequest) -> None:
            settled.set()

        with self._mutex:
            request = self._registry.request(action, obj.uid, mode, chosen, completed)
            if not request.settled:
                self._break_cycles(action.uid)

        if not settled.wait(timeout=timeout):
            with self._mutex:
                self._registry.cancel_request(request, reason="lock timeout")
            if request.status is not RequestStatus.GRANTED:
                raise LockTimeout(
                    f"{action.name}: {mode_label(mode)} lock on {obj.uid} timed out"
                )

        if request.status is RequestStatus.GRANTED:
            with self._mutex:
                self.obs.observe("lock_wait_time",
                                 time.monotonic() - wait_started,
                                 node=NODE, colour=str(chosen))
                if mode is LockMode.WRITE:
                    action.record_write(obj, chosen)
                self.obs.lock_granted(action, obj.uid, mode, chosen, NODE)
            companion = action.companion_colour
            if companion is not None and companion != chosen:
                self.acquire(action, obj, companion_mode(mode),
                             colour=companion, timeout=timeout)
            return request
        if request.error is not None:
            raise request.error
        raise LockRefused(
            f"{action.name}: {mode_label(mode)} lock on {obj.uid} refused: "
            f"{request.refusal}"
        )

    def _break_cycles(self, uid: Uid) -> None:
        """Refuse the youngest member's waits on each cycle through
        ``uid`` until none is left (called under ``_mutex``)."""
        while True:
            cycle = cycle_through(self._registry, uid)
            if cycle is None:
                return
            victim = max(cycle)
            self._registry.cancel_waiting(
                victim, reason="deadlock victim",
                error=DeadlockDetected(cycle=cycle))
            self._victims.append(victim)

    def log_operation(self, action: Action, obj: StateManager, colour: Colour,
                      method: str, args: tuple, result, inverse: str) -> None:
        """Record an applied semantic operation (type-specific recovery)."""
        with self._mutex:
            action.record_operation(obj, colour, method, args, result, inverse)

    # -- introspection -----------------------------------------------------------------------

    def deadlock_victims(self) -> list:
        return list(self._victims)

    def locked_objects(self) -> int:
        with self._mutex:
            return sum(1 for _ in self._registry.tables())
