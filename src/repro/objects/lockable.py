"""LockableObject: StateManager plus lock acquisition (Arjuna's LockManager).

Object types follow the Arjuna idiom: every public operation first calls
:meth:`setlock` in the appropriate mode, then reads/writes instance
variables.  ``setlock`` resolves the acting action (explicit argument or the
ambient one), resolves the colour (explicit, or the action's single
colour), blocks until granted, and — for writes — triggers before-image
capture so the action can be aborted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.colours.colour import Colour
from repro.locking.modes import LockMode, Mode
from repro.objects.state_manager import StateManager
from repro.runtime.context import require_current_action
from repro.util.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.actions.action import Action
    from repro.runtime.runtime import LocalRuntime


@dataclass(frozen=True)
class Operation:
    """What a decorated method declares, attached to it by
    :func:`operation` / :func:`~repro.objects.semantic.semantic_operation`
    and read back with :func:`operation_of` — so the cluster's object
    servers can take the lock themselves (event-driven, on their own lock
    tables) and then execute the undecorated ``body`` directly."""

    #: the lock the operation runs under: a :class:`LockMode`, or the name
    #: of its operation group on a semantic object
    mode: Mode
    #: the undecorated method
    body: Callable
    #: names of the semantic hooks (see ``semantic_operation``), if any
    inverse: Optional[str] = None
    merge: Optional[str] = None
    redo: Optional[str] = None
    committed: Optional[str] = None


def operation_of(cls: type, method_name: str) -> Optional[Operation]:
    """The :class:`Operation` ``cls.method_name`` declares, or ``None``
    when there is no such method or it is not a declared operation."""
    return getattr(getattr(cls, method_name, None), "__repro_operation__", None)


def operation(mode: LockMode) -> Callable:
    """Declare a lock-managed operation on a :class:`LockableObject`.

    The decorated method, called locally, first acquires ``mode`` on the
    object for the acting action (explicit ``action=`` / ``colour=`` kwargs
    or the ambient context) and then runs the body — the Arjuna idiom.
    """

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def method(self, *args, colour=None, action=None, **kwargs):
            self.setlock(mode, colour=colour, action=action)
            return fn(self, *args, **kwargs)

        method.__repro_operation__ = Operation(mode, fn)
        return method

    return wrap


class LockableObject(StateManager):
    """Base class for persistent, lock-managed object types."""

    def __init__(self, runtime: "LocalRuntime", uid: Optional[Uid] = None,
                 persist: bool = True):
        super().__init__(uid if uid is not None else runtime.fresh_object_uid())
        self.runtime = runtime
        runtime.register_object(self, persist=persist)

    def setlock(self, mode: LockMode, colour: Optional[Colour] = None,
                action: Optional["Action"] = None,
                timeout: Optional[float] = None) -> "Action":
        """Acquire ``mode`` on this object for the acting action; returns it."""
        acting = action if action is not None else require_current_action()
        self.runtime.acquire(acting, self, mode, colour=colour, timeout=timeout)
        return acting

    # Convenience wrappers keeping object methods terse.

    def read_lock(self, colour: Optional[Colour] = None,
                  action: Optional["Action"] = None) -> "Action":
        return self.setlock(LockMode.READ, colour=colour, action=action)

    def write_lock(self, colour: Optional[Colour] = None,
                   action: Optional["Action"] = None) -> "Action":
        return self.setlock(LockMode.WRITE, colour=colour, action=action)

    def exclusive_read_lock(self, colour: Optional[Colour] = None,
                            action: Optional["Action"] = None) -> "Action":
        return self.setlock(LockMode.EXCLUSIVE_READ, colour=colour, action=action)
