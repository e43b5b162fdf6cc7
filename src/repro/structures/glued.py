"""Glued actions (§3.2), via the fig. 12 colouring scheme.

A :class:`GluedGroup` owns a *control action* G in a fresh control colour.
Each member action is coloured {control, fresh-data} and runs nested inside
G (:class:`repro.structures.schemes.ControlStructure`); its ordinary work
uses its data colour, so at member commit those effects are **permanent**
(no data-colour ancestor exists) and those locks are **released** — except
for objects the member *handed over*: :meth:`MemberScope.hand_over` takes
EXCLUSIVE_READ locks in the control colour, which G inherits, keeping the
objects pinned against outsiders until the next member picks them up (or
the group closes).

Members may run sequentially (fig. 5) or concurrently (fig. 6).  The
control action performs no writes, so aborting the group undoes nothing —
committed members' effects survive, exactly the §3.2 requirement.  This
module adds only the local calling convention: ``with`` scopes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.locking.modes import LockMode
from repro.runtime.scope import ActionScope
from repro.structures.schemes import ControlStructure
from repro.structures.serializing import ScopedControl

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.lockable import LockableObject


class MemberScope(ActionScope):
    """Scope for one glued member; adds :meth:`hand_over` to the usual
    scope, and ``with`` yields the scope itself (``.action`` is the member)."""

    def __init__(self, group: "GluedGroup", action):
        super().__init__(group.factory, action)
        self.group = group

    def hand_over(self, *objects: "LockableObject") -> None:
        """Pin these objects for the next member (fig. 12's red locks on P).

        Must be called inside the member's ``with`` block, after (or
        instead of) working on the objects in the ordinary way.
        """
        for obj in objects:
            self.runtime.acquire(
                self.action, obj, LockMode.EXCLUSIVE_READ,
                colour=self.group.control_colour,
            )

    def __enter__(self) -> "MemberScope":
        super().__enter__()
        return self


class GluedGroup(ScopedControl, ControlStructure):
    """A sequence (or concurrent set) of glued top-level actions.

    ``GluedGroup(runtime, parent=None, name="glued")``; pass
    ``parent=AMBIENT`` to nest the control action in the ambient action.
    """

    def member(self, name: str = "") -> MemberScope:
        """Open the next glued member action."""
        return MemberScope(self, self.new_member(name))
