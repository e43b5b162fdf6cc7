"""Ambient action context.

Objects' methods find "the action I am being called within" here, so
application code reads naturally::

    with runtime.top_level():
        account.deposit(100)   # locks under the ambient action

Implemented with :mod:`contextvars`, so each thread (and each asyncio task,
should anyone embed the library) sees its own stack.  The cluster simulator
does **not** use ambient context — simulated processes interleave within
one thread, so they pass actions explicitly.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional, Tuple, TYPE_CHECKING

from repro.errors import NoCurrentAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.actions.action import Action

_stack: ContextVar[Tuple["Action", ...]] = ContextVar("repro_action_stack", default=())


def current_action() -> Optional["Action"]:
    """The innermost action of the calling context, or None."""
    stack = _stack.get()
    return stack[-1] if stack else None


def require_current_action() -> "Action":
    """Like :func:`current_action` but raising when there is none."""
    action = current_action()
    if action is None:
        raise NoCurrentAction("no action in scope; open one with runtime.top_level()")
    return action


def push_action(action: "Action") -> None:
    _stack.set(_stack.get() + (action,))


def pop_action(action: "Action") -> None:
    stack = _stack.get()
    if not stack or stack[-1] is not action:
        # Tolerate mismatches (e.g. an action aborted from another thread);
        # drop the action wherever it sits.
        _stack.set(tuple(a for a in stack if a is not action))
        return
    _stack.set(stack[:-1])
