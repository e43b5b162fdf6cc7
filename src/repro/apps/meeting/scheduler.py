"""The §4(v) meeting scheduler, written once.

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

:class:`SchedulerBody` makes every decision as generator methods; each
scheduler supplies only its calling convention — :class:`MeetingScheduler`
over in-process diaries, run by a synchronous trampoline
(:mod:`repro.apps.trampoline`), and
:class:`~repro.apps.meeting.distributed.DistributedMeetingScheduler` over
diary servers, run as a simulation process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.apps.trampoline import done, run_synchronously
from repro.errors import InvalidActionState
from repro.stdobjects.diary import Diary
from repro.structures.glued import GluedGroup, MemberScope


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
        released."""
        examined, kept = list(examined), list(kept)
        return cls(index, examined, kept,
                   released=[d for d in examined if d not in kept])


def date_universe(dates_per_diary: Iterable[Iterable[str]]) -> List[str]:
    """Every date any diary has a slot for, in order (what I1 examines)."""
    return sorted({date for dates in dates_per_diary for date in dates})


class SchedulerBody:
    """Fig. 9's decisions, once: which slots each round examines, keeps,
    hands over and releases, which date is booked, and where the injected
    crash strikes.

    ``diaries`` answer ``dates()`` and ``slot(date)``; a scheduler supplies
    the primitives ``_glued(name, parent)``, ``_member(group, name, body)``
    (run ``body(member)`` as the group's next member), ``_invoke(member,
    slot, method, *args)``, ``_hand_over(group, member, *slots)`` and
    ``_end(group, "close" | "cancel")``.
    """

    def __init__(self, fail_after_round: Optional[int]):
        self.fail_after_round = fail_after_round
        self.rounds: List[SchedulingRound] = []
        #: the control group still holding pins (exposed for experiments)
        self.current_group = None

    def _slots_for(self, date: str) -> list:
        return [diary.slot(date) for diary in self.diaries
                if date in diary.dates()]

    def schedule(self, description: str,
                 preferences: Sequence[Sequence[str]]):
        """Generator: run the glued rounds; returns the booked date.

        ``preferences[i]`` is the set of dates acceptable to participant i,
        consulted in round i+1 (the broadcast-and-narrow of §4(v)).  On
        the injected crash the surviving group keeps its pins until
        :meth:`release_pins`; on any other error it is cancelled.
        """
        self.rounds = []
        group, candidates = yield from self._initial_round(description)
        try:
            for index, acceptable in enumerate(preferences, start=1):
                group, candidates = yield from self._narrowing_round(
                    group, index, candidates, set(acceptable)
                )
                if (self.fail_after_round is not None
                        and index >= self.fail_after_round):
                    raise SchedulerCrash(f"crash after round {index}")
            if not candidates:
                raise NoCommonDate(description)
            chosen = candidates[0]
            yield from self._booking_round(group, chosen, description,
                                           candidates)
            self.current_group = None
            return chosen
        except BaseException as error:
            self.current_group = group
            if not isinstance(error, SchedulerCrash):
                # the generator, whatever face a subclass puts on it
                yield from SchedulerBody.release_pins(self)
            raise

    def release_pins(self):
        """Generator: drop the surviving group's pins (post-crash cleanup)."""
        if (self.current_group is not None
                and not self.current_group.control.status.terminated):
            yield from self._end(self.current_group, "cancel")
        self.current_group = None

    # -- rounds -------------------------------------------------------------------

    def _initial_round(self, description: str):
        """I1 in G1: lock all relevant diary entries, keep the free dates."""
        group = self._glued(f"{description}.G1")
        all_dates = date_universe(diary.dates() for diary in self.diaries)

        def body(member):
            candidates = []
            for date in all_dates:
                slots = self._slots_for(date)
                if len(slots) != len(self.diaries):
                    continue  # someone has no such slot at all
                free = True
                for slot in slots:  # every slot is examined, and locked
                    free &= yield from self._invoke(member, slot, "is_free")
                if free:
                    candidates.append(date)
            for date in candidates:
                yield from self._hand_over(group, member, *self._slots_for(date))
            return candidates

        candidates = yield from self._member(group, "I1", body)
        self.rounds.append(SchedulingRound.of(0, all_dates, candidates))
        return group, candidates

    def _narrowing_round(self, previous, index: int,
                         candidates: List[str], acceptable: set):
        """Ii in Gi (inside G(i-1)): keep acceptable dates, release the rest.

        Closing G(i-1) right after Ii commits is what frees the rejected
        slots while the kept ones stay pinned by Gi.
        """
        group = self._glued(f"G{index + 1}", previous.control)
        kept = [d for d in candidates if d in acceptable]

        def body(member):
            for date in kept:
                for slot in self._slots_for(date):
                    yield from self._invoke(member, slot, "is_free")
                yield from self._hand_over(group, member, *self._slots_for(date))

        yield from self._member(group, f"I{index + 1}", body)
        yield from self._end(previous, "close")  # rejected slots freed now
        self.rounds.append(SchedulingRound.of(index, candidates, kept))
        return group, kept

    def _booking_round(self, previous, chosen: str, description: str,
                       candidates: List[str]):
        """In: book the chosen date in every diary (permanent at commit)."""
        group = self._glued("Gn", previous.control)

        def body(member):
            for slot in self._slots_for(chosen):
                yield from self._invoke(member, slot, "book", description)

        yield from self._member(group, "In.book", body)
        yield from self._end(previous, "close")
        yield from self._end(group, "close")
        self.rounds.append(
            SchedulingRound.of(len(self.rounds), candidates, [chosen]))


class MeetingScheduler(SchedulerBody):
    """Arrange a meeting date across several personal diaries."""

    def __init__(self, runtime, diaries: Sequence[Diary],
                 fail_after_round: Optional[int] = None):
        """``fail_after_round``: fault injection — the application crashes
        after that many completed narrowing rounds (committed rounds'
        results must survive; :meth:`release_pins` drops the last group's
        pins)."""
        super().__init__(fail_after_round)
        self.runtime = runtime
        self.diaries = list(diaries)

    def schedule(self, description: str,
                 preferences: Sequence[Sequence[str]]) -> str:
        """Run the glued rounds; returns the booked date."""
        return run_synchronously(super().schedule(description, preferences))

    def release_pins(self) -> None:
        """Drop the surviving group's pins (post-crash cleanup)."""
        run_synchronously(super().release_pins())

    # -- primitives: in-process calls, none of which yields ------------------------

    def _glued(self, name: str, parent=None) -> GluedGroup:
        return GluedGroup(self.runtime, parent, name)

    def _member(self, group: GluedGroup, name: str, body):
        with group.member(name=name) as member:
            return (yield from body(member))

    def _invoke(self, member: MemberScope, slot, method: str, *args):
        return done(getattr(slot, method)(*args, action=member.action))

    def _hand_over(self, group: GluedGroup, member: MemberScope, *slots):
        return done(member.hand_over(*slots))

    def _end(self, group: GluedGroup, how: str):
        return done(getattr(group, how)())
