"""Semantic objects: type-specific concurrency control AND recovery (§2).

A :class:`SemanticLockableObject` declares a :class:`SemanticSpec`
(operation groups + compatibility) and decorates its operations with
:func:`semantic_operation`.  Compatible operations from *different* actions
run concurrently (e.g. two add()s on a counter); updates are undone by
**compensating operations** rather than before-images — the paper's §2
example verbatim: "rather than recovering the state of the object, the
corresponding subtract() operation can be performed".

Engineering notes:

- Operation bodies run under a per-object mutex: "compatible" means
  logically non-interfering, but two Python threads still need mutual
  exclusion for the read-modify-write itself.
- Every spec implicitly gains the reserved ``__retain__`` group
  (incompatible with everything), which is how serializing/glued control
  actions pin semantic objects (the companion-colour mechanism).
- Permanence, one rule on every commit path and both runtimes: a colour
  that commits makes a semantic object permanent as its committed state ⊕
  the colour's own operations, merged on a bare instance
  (:meth:`SemanticLockableObject.merged`).  The live instance, which also
  holds other actions' pending compatible effects, is never written to
  the store nor overwritten from it; only the operations' ``committed``
  hooks run on it.  Recovery is by operations both ways (Malta/Martinez's
  recoverable ADTs): abort by ``inverse``, commit by ``merge``.
- Operations take positional arguments only, as they travel on the wire
  and are merged: an operation's record is ``(method, args)``.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, ClassVar, Optional, TYPE_CHECKING

from repro.colours.colour import Colour
from repro.errors import LockingError
from repro.locking.modes import RETAIN_GROUP
from repro.locking.semantic import SemanticSpec
from repro.objects.lockable import Operation, operation_of
from repro.objects.state_manager import StateManager
from repro.runtime.context import require_current_action
from repro.store.interface import StoredState
from repro.util.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.actions.action import Action
    from repro.runtime.runtime import LocalRuntime


def with_retain_group(spec: SemanticSpec) -> SemanticSpec:
    """The spec plus the reserved pin group (conflicts with everything)."""
    if RETAIN_GROUP in spec.groups:
        return spec
    return SemanticSpec(
        groups=spec.groups | {RETAIN_GROUP},
        compatible=spec.compatible,
        commuting=spec.commuting,
    )


class SemanticLockableObject(StateManager):
    """Base class for objects with operation-group locking."""

    #: subclasses must define their groups and compatibilities
    SEMANTICS: ClassVar[SemanticSpec]

    def __init__(self, runtime: "LocalRuntime", uid: Optional[Uid] = None,
                 persist: bool = True):
        if not hasattr(type(self), "SEMANTICS"):
            raise LockingError(
                f"{type(self).__name__} defines no SEMANTICS spec"
            )
        super().__init__(uid if uid is not None else runtime.fresh_object_uid())
        self.runtime = runtime
        self._operation_mutex = threading.RLock()
        runtime.register_object(self, persist=persist)
        runtime.locks.use_semantic(self.uid, with_retain_group(self.SEMANTICS))

    def run_compensation(self, method_name: str, result, args) -> None:
        """Apply a compensating method under the object mutex."""
        with self._operation_mutex:
            getattr(self, method_name)(result, *args)

    @classmethod
    def merged(cls, committed: StoredState, ops) -> StoredState:
        """The one permanence rule: the ``committed`` state ⊕ one colour's
        ``ops`` (``(method, args)`` pairs), merged on a bare instance, so
        no other action's pending effect can leak in."""
        bare = cls.__new__(cls)
        bare.restore_snapshot(committed.payload)
        for method_name, args in ops:
            bare._run_hook(method_name, args, "merge")
        return StoredState(committed.object_uid, committed.type_name,
                           bare.snapshot())

    def settle(self, ops, hook: str = "committed") -> None:
        """The live instance's share of a commit of ``ops`` (``(method,
        args)`` pairs), under the object mutex: their ``committed`` hooks,
        or their ``redo`` when this instance never ran them (a restart)."""
        with self._operation_mutex:
            for method_name, args in ops:
                self._run_hook(method_name, args, hook)

    def _run_hook(self, method_name: str, args, hook: str) -> None:
        """Run one operation's ``hook`` — ``merge``, ``redo`` or
        ``committed`` (see :func:`semantic_operation`).  The body stands in
        for a missing merge or redo; a missing committed hook does nothing."""
        declared = operation_of(type(self), method_name)
        name = getattr(declared, hook)
        if name is not None:
            getattr(self, name)(*args)
        elif hook != "committed":
            declared.body(self, *args)


def semantic_operation(group: str, inverse: Optional[str] = None,
                       merge: Optional[str] = None,
                       committed: Optional[str] = None,
                       redo: Optional[str] = None) -> Callable:
    """Declare an operation in a semantic group.

    ``inverse`` names a compensating method ``def _undo_x(self, result,
    *args)`` — required for any group that modifies state, since
    before-images cannot coexist with concurrent compatible updates.
    The decorated method takes positional arguments, plus the usual
    ``colour=``/``action=`` kwargs.

    Three optional hooks make a committed operation permanent (the one rule
    of the module docstring): ``merge`` names a method ``def
    _merge_x(self, *args)`` that applies just the operation's durable
    effect to a committed state — no availability bookkeeping, no
    preconditions (a committed operation is already decided); when
    omitted, the operation body itself is re-run.  ``committed`` names a
    method ``def _settle_x(self, *args)`` invoked on the *live* instance
    once the operation's colour commits, for types whose in-memory
    bookkeeping distinguishes committed from pending effects (e.g. escrow
    availability).  ``redo`` names a method applying the full,
    already-settled effect to a live instance that never saw the operation
    execute (a participant finishing a committed colour after a restart):
    effect *and* bookkeeping, but no precondition check and no later
    ``committed`` hook; defaults to ``merge``, then to the body.
    """

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def method(self: SemanticLockableObject, *args,
                   colour: Optional[Colour] = None,
                   action: Optional["Action"] = None):
            acting = action if action is not None else require_current_action()
            chosen = acting.lock_colour(colour)
            self.runtime.acquire(acting, self, group, colour=chosen)
            with self._operation_mutex:
                result = fn(self, *args)
            if inverse is not None:
                self.runtime.log_operation(acting, self, chosen, fn.__name__,
                                           args, result, inverse)
            return result

        method.__repro_operation__ = Operation(
            group, fn, inverse, merge,
            redo if redo is not None else merge, committed)
        return method

    return wrap
