"""The §4(v) meeting scheduler.

"Glued actions are useful in structuring such applications, since locks on
diary entries can be passed from one top-level action to the other.
Action I1 locks all the relevant diary entries and selects some possible
slots.  Some time later, these slots are examined by I2 which narrows the
choice down … Each Ii is a top-level action, so its results survive
crashes; at the same time meeting slots not found acceptable are released."

Structure: the gluing is **pairwise** (figs. 6(b)/9): each round Ii runs
inside its own control group Gi (a fresh control colour); Ii hands its
*kept* slots to Gi, and the moment Ii commits, the previous group G(i-1)
is closed — releasing every slot Ii rejected, while Gi keeps the survivors
pinned.  Gi is nested inside G(i-1) so Ii can acquire the pinned slots;
being colour-disjoint, Gi detaches (rather than aborts) when G(i-1) ends.

Round model: round *i* consults participant *i*'s preferences and keeps
only dates that participant accepts.  The final round books the agreed
date in every diary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.errors import InvalidActionState
from repro.stdobjects.diary import Diary, DiarySlot
from repro.structures.glued import GluedGroup


class NoCommonDate(InvalidActionState):
    """The participants' preferences have an empty intersection."""


class SchedulerCrash(RuntimeError):
    """Injected application failure between rounds."""


@dataclass
class SchedulingRound:
    """What one glued round did (for reporting and the fig. 9 benchmark)."""

    index: int
    examined: List[str]
    kept: List[str]
    released: List[str] = field(default_factory=list)

    @classmethod
    def of(cls, index: int, examined: Iterable[str],
           kept: Iterable[str]) -> "SchedulingRound":
        """A round's record: whatever it examined and did not keep, it
        released.  The runtime-free half of every round, local or remote."""
        examined, kept = list(examined), list(kept)
        return cls(index, examined, kept,
                   released=[d for d in examined if d not in kept])


def date_universe(dates_per_diary: Iterable[Iterable[str]]) -> List[str]:
    """Every date any diary has a slot for, in order (what I1 examines)."""
    return sorted({date for dates in dates_per_diary for date in dates})


class MeetingScheduler:
    """Arrange a meeting date across several personal diaries."""

    def __init__(self, runtime, diaries: Sequence[Diary],
                 fail_after_round: Optional[int] = None):
        """``fail_after_round``: fault injection — the application crashes
        after that many completed narrowing rounds (committed rounds'
        results must survive; the pins of the last group are dropped)."""
        self.runtime = runtime
        self.diaries = list(diaries)
        self.fail_after_round = fail_after_round
        self.rounds: List[SchedulingRound] = []
        #: the control group still holding pins (exposed for experiments)
        self.current_group: Optional[GluedGroup] = None

    def _slots_for(self, date: str) -> List[DiarySlot]:
        return [diary.slot(date) for diary in self.diaries
                if date in diary.dates()]

    # -- public ------------------------------------------------------------------

    def schedule(self, description: str,
                 preferences: Sequence[Sequence[str]]) -> str:
        """Run the glued rounds; returns the booked date.

        ``preferences[i]`` is the set of dates acceptable to participant i,
        consulted in round i+1 (the broadcast-and-narrow of §4(v)).
        """
        self.rounds = []
        group: Optional[GluedGroup] = None
        try:
            group, candidates = self._initial_round(description)
            for index, acceptable in enumerate(preferences, start=1):
                group, candidates = self._narrowing_round(
                    group, index, candidates, set(acceptable)
                )
                if (self.fail_after_round is not None
                        and index >= self.fail_after_round):
                    raise SchedulerCrash(f"crash after round {index}")
            if not candidates:
                raise NoCommonDate(description)
            chosen = candidates[0]
            self._booking_round(group, chosen, description, candidates)
            group = None
            return chosen
        finally:
            self.current_group = group
            if group is not None and not group.control.status.terminated:
                if self.fail_after_round is None:
                    group.close()
                # on injected crash, leave the pins for the experiment to
                # inspect; release_pins() drops them.

    def release_pins(self) -> None:
        """Drop the surviving group's pins (post-crash cleanup)."""
        if (self.current_group is not None
                and not self.current_group.control.status.terminated):
            self.current_group.cancel()
        self.current_group = None

    # -- rounds -------------------------------------------------------------------

    def _initial_round(self, description: str):
        """I1 in G1: lock all relevant diary entries, keep the free dates."""
        group = GluedGroup(self.runtime, name=f"{description}.G1")
        all_dates = date_universe(diary.dates() for diary in self.diaries)
        with group.member(name="I1") as member:
            candidates = []
            for date in all_dates:
                slots = self._slots_for(date)
                if len(slots) != len(self.diaries):
                    continue  # someone has no such slot at all
                if all(slot.is_free(action=member.action) for slot in slots):
                    candidates.append(date)
            for date in candidates:
                member.hand_over(*self._slots_for(date))
        self.rounds.append(SchedulingRound.of(0, all_dates, candidates))
        return group, candidates

    def _narrowing_round(self, previous: GluedGroup, index: int,
                         candidates: List[str], acceptable: set):
        """Ii in Gi (inside G(i-1)): keep acceptable dates, release the rest.

        Closing G(i-1) right after Ii commits is what frees the rejected
        slots while the kept ones stay pinned by Gi.
        """
        group = GluedGroup(
            self.runtime, parent=previous.control,
            name=f"G{index + 1}",
        )
        kept = [d for d in candidates if d in acceptable]
        with group.member(name=f"I{index + 1}") as member:
            for date in kept:
                for slot in self._slots_for(date):
                    slot.is_free(action=member.action)  # re-examine
                member.hand_over(*self._slots_for(date))
        previous.close()  # rejected slots become free now
        self.rounds.append(SchedulingRound.of(index, candidates, kept))
        return group, kept

    def _booking_round(self, previous: GluedGroup, chosen: str,
                       description: str, candidates: List[str]) -> None:
        """In: book the chosen date in every diary (permanent at commit)."""
        group = GluedGroup(
            self.runtime, parent=previous.control, name="Gn",
        )
        with group.member(name="In.book") as member:
            for slot in self._slots_for(chosen):
                slot.book(description, action=member.action)
        previous.close()
        group.close()
        self.rounds.append(
            SchedulingRound.of(len(self.rounds), candidates, [chosen]))
