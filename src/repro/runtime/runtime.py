"""LocalRuntime: the single-process, multi-threaded action runtime.

Holds the stable object store, the lock registry (coloured rules by
default), the colour allocator, and a deadlock detector.  All shared state
is guarded by one re-entrant mutex; waiting for locks happens *outside* the
mutex on per-request events, so holders can release while others wait.

Deadlock policy: detection runs whenever a request blocks (a cycle can only
form at the instant its last edge appears, i.e. when some request blocks),
and the youngest action in the cycle has its pending requests refused with
:class:`~repro.errors.DeadlockDetected` — the waiter raises, and its scope
aborts the action.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Iterable, Optional

from repro.actions.action import Action
from repro.actions.status import Outcome
from repro.colours.colour import Colour, ColourAllocator
from repro.errors import LockRefused, LockTimeout
from repro.locking.deadlock import DeadlockDetector
from repro.locking.modes import LockMode, Mode, companion_mode, mode_label
from repro.locking.registry import LockRegistry
from repro.locking.request import LockRequest, RequestStatus
from repro.locking.rules import ColouredRules, LockRules
from repro.objects.state_manager import StateManager
from repro.runtime.context import current_action
from repro.runtime.scope import ActionScope
from repro.store.interface import ObjectStore
from repro.store.stable import StableStore
from repro.util.uid import Uid, UidGenerator

#: Sentinel: "use the ambient action as parent" in the action factories.
AMBIENT = object()


class LocalRuntime:
    """Everything needed to run (multi-)coloured actions in one process."""

    def __init__(self, rules: Optional[LockRules] = None,
                 store: Optional[ObjectStore] = None,
                 deadlock_detection: bool = True,
                 default_lock_timeout: Optional[float] = None):
        self.store: ObjectStore = store if store is not None else StableStore()
        self._registry = LockRegistry(rules if rules is not None else ColouredRules())
        self.colours = ColourAllocator()
        self.deadlock_detection = deadlock_detection
        self.default_lock_timeout = default_lock_timeout
        self.objects: Dict[Uid, StateManager] = {}
        self._action_uids = UidGenerator("action")
        self._object_uids = UidGenerator("object")
        self._undo_seq = itertools.count(1)
        self._mutex = threading.RLock()
        self._detector = DeadlockDetector(self._registry)
        #: optional Observability hub (see repro.obs); None = dark.
        self.obs = None
        self._obs_node = "local"
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
                       written: Dict[Uid, StateManager]) -> None:
        """Permanence of effect: write the new states to the stable store.

        Single store, single mutex — the multi-object write is atomic with
        respect to every other runtime operation.
        """
        span = None
        if self.obs is not None:
            parent = (self._terminating.get(action.uid)
                      or action._obs_span)
            span = self.obs.span(f"persist:{colour}", parent=parent,
                                 kind="client", node=self._obs_node,
                                 colour=str(colour))
        try:
            for object_uid in sorted(written):
                written[object_uid].persist_to(self.store)
        except Exception:
            if span is not None:
                span.set(outcome="failed").finish()
            raise
        if self.obs is not None:
            self.obs.emit("colour.permanent", action=str(action.uid),
                          colour=str(colour),
                          objects=",".join(sorted(str(u) for u in written)),
                          node=self._obs_node)
            self.obs.count("colour_permanent_total", colour=str(colour))
            span.set(outcome="persisted").finish()

    def note_commit_route(self, action: Action, colour: Colour,
                          destination) -> None:
        """``action`` is committing and routes ``colour`` to ``destination``
        (an ancestor, or None for "make permanent"): the hub is told."""
        if self.obs is not None:
            self.obs.commit_routed(action, colour, destination,
                                   self._obs_node)

    def action_terminated(self, action: Action) -> None:
        """Called once an action has committed or aborted."""
        if self.obs is not None:
            self.obs.action_ended(action, self._obs_node)

    def action_created(self, action: Action) -> None:
        """Called at the end of every Action's construction."""
        if self.obs is not None:
            self.obs.action_begun(action, self._obs_node)

    def attach_observability(self, hub, node: str = "local") -> None:
        """Wire an :class:`repro.obs.Observability` hub into this runtime.

        From here on the runtime reports every action's begin and end and
        every lock grant to the hub (per-colour commit/abort counters,
        lock-grant counters, one span per action) and enables its own
        lock-wait/deadlock instrumentation.
        """
        self.obs = hub
        self._obs_node = node
        self._registry.on_event = self._emit_lock_event

    def _emit_lock_event(self, kind: str, **labels) -> None:
        if self.obs is not None:
            self.obs.emit(kind, node=self._obs_node, **labels)

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
        except Exception:
            if span is not None:
                span.set(outcome="commit-failed").finish()
            raise
        finally:
            self._terminating.pop(action.uid, None)
        if span is not None:
            span.set(outcome="committed").finish()
        return outcome

    def abort_action(self, action: Action) -> Outcome:
        span = self._termination_span(action, "abort")
        try:
            with self._mutex:
                outcome = action.abort()
        except Exception:
            if span is not None:
                span.set(outcome="abort-failed").finish()
            raise
        finally:
            self._terminating.pop(action.uid, None)
        if span is not None:
            span.set(outcome="aborted").finish()
        return outcome

    def _termination_span(self, action: Action, name: str):
        """Client-kind termination span — the local analogue of the
        cluster client's commit/abort RPC spans, so local and cluster
        traces share one shape."""
        if self.obs is None:
            return None
        span = self.obs.span(name, parent=action._obs_span,
                             kind="client", node=self._obs_node)
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
        wait_started = time.monotonic() if self.obs is not None else 0.0

        def completed(_request: LockRequest) -> None:
            settled.set()

        with self._mutex:
            request = self._registry.request(action, obj.uid, mode, chosen, completed)
            if not request.settled and self.deadlock_detection:
                self._detector.resolve_all()

        limit = timeout if timeout is not None else self.default_lock_timeout
        if not settled.wait(timeout=limit):
            with self._mutex:
                self._registry.cancel_request(request, reason="lock timeout")
            if request.status is not RequestStatus.GRANTED:
                raise LockTimeout(
                    f"{action.name}: {mode_label(mode)} lock on {obj.uid} timed out"
                )

        if self.obs is not None:
            self.obs.observe("lock_wait_seconds",
                             time.monotonic() - wait_started,
                             node=self._obs_node, colour=str(chosen))
        if request.status is RequestStatus.GRANTED:
            if mode is LockMode.WRITE:
                with self._mutex:
                    action.record_write(obj, chosen)
            if self.obs is not None:
                self.obs.lock_granted(action, obj.uid, mode, chosen,
                                      self._obs_node)
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

    def log_operation(self, action: Action, obj: StateManager, colour: Colour,
                      compensate, description: str = "") -> None:
        """Record a compensating operation (type-specific recovery)."""
        with self._mutex:
            action.record_operation(obj, colour, compensate, description)

    # -- introspection -----------------------------------------------------------------------

    def deadlock_victims(self) -> list:
        return list(self._detector.victims_chosen)

    def locked_objects(self) -> int:
        with self._mutex:
            return sum(1 for _ in self._registry.tables())
