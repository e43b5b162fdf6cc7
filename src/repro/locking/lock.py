"""Held-lock records.

A lock table holds a list of :class:`LockRecord` entries per object.  One
owner may hold several records on the same object in *different colours*
(e.g. a serializing constituent WRITE-locks in the data colour and
EXCLUSIVE_READ-locks in the control colour); when two grants of one
(owner, colour) are one record is the rule set's call
(:meth:`~repro.locking.rules.LockRules.join`): data modes merge keeping the
strongest, operation groups stay one record per group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.colours.colour import Colour
from repro.locking.modes import Mode, mode_label
from repro.locking.owner import LockOwner


@dataclass
class LockRecord:
    """One granted lock: who holds the object, in what mode, in what colour."""

    owner: LockOwner
    mode: Mode
    colour: Colour

    def reassign(self, new_owner: LockOwner) -> None:
        """Move the record to a new owner (commit-time inheritance)."""
        self.owner = new_owner

    def describe(self) -> str:
        return f"{self.owner.uid}:{mode_label(self.mode)}:{self.colour}"
