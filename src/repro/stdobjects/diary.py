"""Personal diaries with per-slot locking, for the meeting scheduler (§4(v)).

"A personal diary is made up of diary entries (or slots) each of which can
be locked separately."  Each :class:`DiarySlot` is its own persistent
object, so the glued-action scheduler can pass locks on *surviving* slots
from round to round while releasing rejected ones.
"""

from __future__ import annotations

import threading
from typing import ClassVar, Dict, List, Optional

from repro.errors import InvalidActionState, ObjectNotFound
from repro.locking.modes import LockMode
from repro.objects.lockable import LockableObject, operation
from repro.objects.state import ObjectState


class SlotTaken(InvalidActionState):
    """The slot is already booked."""


class DiarySlot(LockableObject):
    """One bookable slot of one person's diary."""

    type_name: ClassVar[str] = "diary_slot"

    def __init__(self, runtime, owner: str, date: str, uid=None, persist: bool = True):
        self.owner = owner
        self.date = date
        self.booked = False
        self.description = ""
        super().__init__(runtime, uid=uid, persist=persist)

    def save_state(self, state: ObjectState) -> None:
        state.pack_string(self.owner)
        state.pack_string(self.date)
        state.pack_bool(self.booked)
        state.pack_string(self.description)

    def restore_state(self, state: ObjectState) -> None:
        self.owner = state.unpack_string()
        self.date = state.unpack_string()
        self.booked = state.unpack_bool()
        self.description = state.unpack_string()

    # -- operations -----------------------------------------------------------

    @operation(LockMode.READ)
    def is_free(self) -> bool:
        return not self.booked

    @operation(LockMode.WRITE)
    def book(self, description: str) -> None:
        if self.booked:
            raise SlotTaken(f"{self.owner}'s slot {self.date} already booked")
        self.booked = True
        self.description = description

    @operation(LockMode.WRITE)
    def cancel(self) -> None:
        self.booked = False
        self.description = ""


class Diary:
    """A person's set of slots, keyed by date string.

    The diary itself is a plain container (slot discovery is not
    transactional); all shared state lives in the individually lockable
    slots.
    """

    def __init__(self, runtime, owner: str, dates: Optional[List[str]] = None):
        self.runtime = runtime
        self.owner = owner
        self._slots: Dict[str, DiarySlot] = {}
        self._mutex = threading.Lock()
        for date in dates or []:
            self.add_date(date)

    def add_date(self, date: str) -> DiarySlot:
        with self._mutex:
            slot = self._slots.get(date)
            if slot is None:
                slot = DiarySlot(self.runtime, self.owner, date)
                self._slots[date] = slot
            return slot

    def slot(self, date: str) -> DiarySlot:
        with self._mutex:
            try:
                return self._slots[date]
            except KeyError:
                raise ObjectNotFound(f"{self.owner}: no diary slot {date}") from None

    def dates(self) -> List[str]:
        with self._mutex:
            return sorted(self._slots)
