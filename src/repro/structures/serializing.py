"""Serializing actions (§3.1), via the fig. 11 colouring scheme.

A serializing action is "atomic with respect to concurrency but not with
respect to failures": its constituents are top-level actions (their effects
are permanent at their own commit), but every lock they take is retained by
the enclosing control action until it ends, so no outside action can
interpose between constituents.

The colouring is :class:`repro.structures.schemes.Serializing`: the control
action A is coloured {control}; each constituent is coloured {control,
fresh-data} with the control colour as its ``companion_colour`` — the
runtime shadows every data-colour lock in the control colour
(WRITE/EXCLUSIVE_READ as EXCLUSIVE_READ, READ as READ), which is exactly
B's locking in fig. 11.  At
constituent commit the data-coloured effects become permanent and the
control-coloured shadows are inherited by A.  A performs no writes, so its
abort undoes nothing — giving §3.1's three possible outcomes.

A serializing action is the special case of glued actions in which *every*
accessed object is handed over (§3.2); the separate class keeps application
requirements expressible, as the paper recommends.  This module adds only
the local calling convention: ``with`` scopes.
"""

from __future__ import annotations

from repro.actions.status import Outcome
from repro.runtime.scope import ActionScope
from repro.structures.schemes import Serializing


class ScopedControl:
    """The local calling convention of a control structure: ``close`` /
    ``cancel`` end the control action, and the structure is itself a
    ``with`` block doing one or the other."""

    def close(self) -> Outcome:
        """Commit the control action, releasing everything it retained."""
        return self.factory.commit_action(self.control)

    def cancel(self) -> Outcome:
        """Abort the control action.

        Members that committed keep their effects (the control action
        wrote nothing — outcome (iii) of §3.1); only the retained locks are
        dropped and any still-active member is aborted with it.
        """
        return self.factory.abort_action(self.control)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.control.status.terminated:
            return False
        if exc_type is None:
            self.close()
        else:
            self.cancel()
        return False


class SerializingAction(ScopedControl, Serializing):
    """The enclosing control action of fig. 3, with constituent factories.

    ``SerializingAction(runtime, parent=None, name="serializing")``; pass
    ``parent=AMBIENT`` to nest the control action in the ambient action.
    """

    def constituent(self, name: str = "") -> ActionScope:
        """Open the next constituent (B, C, ... of fig. 3).

        The returned scope commits the constituent on clean exit; its
        effects are then permanent even if the serializing action later
        aborts.
        """
        return ActionScope(self.factory, self.new_member(name))
