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
- Permanence: an outermost commit persists a state snapshot.  While
  *other* actions' compatible updates are still uncommitted, that snapshot
  transiently includes them; it converges once the concurrent updaters
  terminate.  Strict stable-state isolation for commuting updates would
  need operation-logged redo — noted as future work, as the paper itself
  only sketches type-specific recovery.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, ClassVar, Optional, TYPE_CHECKING

from repro.colours.colour import Colour
from repro.errors import LockingError
from repro.locking.modes import RETAIN_GROUP
from repro.locking.semantic import SemanticSpec
from repro.objects.lockable import Operation
from repro.objects.state_manager import StateManager
from repro.runtime.context import require_current_action
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

    def run_compensation(self, method_name: str, result, args, kwargs) -> None:
        """Apply a compensating method under the object mutex."""
        with self._operation_mutex:
            getattr(self, method_name)(result, *args, **kwargs)


def semantic_operation(group: str, inverse: Optional[str] = None,
                       merge: Optional[str] = None,
                       committed: Optional[str] = None,
                       redo: Optional[str] = None) -> Callable:
    """Declare an operation in a semantic group.

    ``inverse`` names a compensating method ``def _undo_x(self, result,
    *args, **kwargs)`` — required for any group that modifies state, since
    before-images cannot coexist with concurrent compatible updates.
    The decorated method takes the usual ``colour=``/``action=`` kwargs.

    Two optional hooks serve the commit protocol's *commute path* (the
    operation-logged redo sketched in the module docstring): ``merge``
    names a method ``def _merge_x(self, *args)`` that applies just the
    operation's durable effect to a committed state — no availability
    bookkeeping, no preconditions (commuting operations are total by
    declaration); when omitted, the operation body itself is re-run.
    ``committed`` names a method ``def _settle_x(self, *args)`` invoked on
    the *live* instance once the operation's transaction commits, for
    types whose in-memory bookkeeping distinguishes committed from pending
    effects (e.g. escrow availability).  ``redo`` names a method applying
    the full, already-settled effect to a live instance that never saw the
    operation execute (a participant redoing a committed colour after a
    restart): effect *and* bookkeeping, but no precondition check and no
    later ``committed`` hook; defaults to ``merge``, then to the body.
    """

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def method(self: SemanticLockableObject, *args,
                   colour: Optional[Colour] = None,
                   action: Optional["Action"] = None, **kwargs):
            acting = action if action is not None else require_current_action()
            chosen = acting.lock_colour(colour)
            self.runtime.acquire(acting, self, group, colour=chosen)
            with self._operation_mutex:
                result = fn(self, *args, **kwargs)
            if inverse is not None:
                self.runtime.log_operation(
                    acting, self, chosen,
                    compensate=lambda: self.run_compensation(
                        inverse, result, args, kwargs
                    ),
                    description=f"{type(self).__name__}.{inverse}",
                )
            return result

        method.__repro_operation__ = Operation(
            group, fn, inverse, merge,
            redo if redo is not None else merge, committed)
        return method

    return wrap
