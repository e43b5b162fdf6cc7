"""The §4(v) meeting scheduler over the cluster: diaries on many nodes.

Same pairwise-gluing structure as the local scheduler — each round Ii runs
in its own control group Gi nested in G(i-1) — but the diary slots are
:class:`~repro.stdobjects.diary.DiarySlot` objects hosted on the
participants' own workstations, locks live on those object servers, and
each round's narrowing is made permanent by a two-phase commit across the
nodes whose slots it touched.  A client crash between rounds loses only
the current pins (volatile); every committed round survives in the
participants' stable stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.meeting.scheduler import (
    NoCommonDate, SchedulingRound, date_universe)
from repro.cluster.client import ClusterClient, ObjectRef
from repro.cluster.cluster import Cluster
from repro.cluster.structures import ClusterGluedGroup


@dataclass
class RemoteDiary:
    """One participant's slots: date -> ObjectRef, hosted on their node."""

    owner: str
    node: str
    slots: Dict[str, ObjectRef] = field(default_factory=dict)


class DistributedMeetingScheduler:
    """Glued scheduling rounds across diary servers."""

    def __init__(self, cluster: Cluster, client: ClusterClient):
        self.cluster = cluster
        self.client = client
        self.diaries: List[RemoteDiary] = []
        self.rounds: List[SchedulingRound] = []
        self.current_group: Optional[ClusterGluedGroup] = None

    # -- setup -------------------------------------------------------------------

    def create_diaries(self, people: Dict[str, str], dates: Sequence[str]):
        """Generator: one DiarySlot per (person, date) on the person's node."""
        for owner, node in sorted(people.items()):
            diary = RemoteDiary(owner=owner, node=node)
            for date in dates:
                ref = yield from self.client.create(
                    node, "diary_slot", owner, date
                )
                diary.slots[date] = ref
            self.diaries.append(diary)
        return self.diaries

    def _slots_for(self, date: str) -> List[ObjectRef]:
        return [diary.slots[date] for diary in self.diaries
                if date in diary.slots]

    # -- scheduling -----------------------------------------------------------------

    def schedule(self, description: str,
                 preferences: Sequence[Sequence[str]],
                 fail_after_round: Optional[int] = None):
        """Generator: run the rounds; returns the booked date.

        ``fail_after_round``: raise after that many narrowing rounds (the
        crash experiment); committed rounds stay permanent, and
        :meth:`release_pins` drops the surviving group's pins.
        """
        self.rounds = []
        group, candidates = yield from self._initial_round(description)
        try:
            for index, acceptable in enumerate(preferences, start=1):
                group, candidates = yield from self._narrowing_round(
                    group, index, candidates, set(acceptable)
                )
                if fail_after_round is not None and index >= fail_after_round:
                    self.current_group = group
                    raise SchedulerCrashRemote(f"crash after round {index}")
            if not candidates:
                raise NoCommonDate(description)
            chosen = candidates[0]
            yield from self._booking_round(group, chosen, description,
                                           candidates)
            self.current_group = None
            return chosen
        except SchedulerCrashRemote:
            raise
        except BaseException:
            if group is not None and not group.control.status.terminated:
                yield from group.cancel()
            self.current_group = None
            raise

    def release_pins(self):
        """Generator: drop the surviving group's pins after a crash."""
        if (self.current_group is not None
                and not self.current_group.control.status.terminated):
            yield from self.current_group.cancel()
        self.current_group = None

    # -- rounds --------------------------------------------------------------------------

    def _initial_round(self, description: str):
        group = ClusterGluedGroup(self.client, name=f"{description}.G1")
        member = group.member("I1")
        all_dates = date_universe(diary.slots for diary in self.diaries)

        def body():
            candidates = []
            for date in all_dates:
                slots = self._slots_for(date)
                if len(slots) != len(self.diaries):
                    continue
                free = True
                for ref in slots:
                    is_free = yield from self.client.invoke(
                        member, ref, "is_free"
                    )
                    free = free and is_free
                if free:
                    candidates.append(date)
            for date in candidates:
                yield from group.hand_over(member, *self._slots_for(date))
            return candidates

        candidates = yield from self.client.run_scope(member, body())
        self.rounds.append(SchedulingRound.of(0, all_dates, candidates))
        return group, candidates

    def _narrowing_round(self, previous: ClusterGluedGroup, index: int,
                         candidates: List[str], acceptable: set):
        group = ClusterGluedGroup(
            self.client, parent=previous.control, name=f"G{index + 1}",
        )
        member = group.member(f"I{index + 1}")
        kept = [d for d in candidates if d in acceptable]

        def body():
            for date in kept:
                for ref in self._slots_for(date):
                    yield from self.client.invoke(member, ref, "is_free")
                yield from group.hand_over(member, *self._slots_for(date))

        yield from self.client.run_scope(member, body())
        yield from previous.close()  # rejected slots freed cluster-wide
        self.rounds.append(SchedulingRound.of(index, candidates, kept))
        return group, kept

    def _booking_round(self, previous: ClusterGluedGroup, chosen: str,
                       description: str, candidates: List[str]):
        group = ClusterGluedGroup(self.client, parent=previous.control,
                                  name="Gn")
        member = group.member("In.book")

        def body():
            for ref in self._slots_for(chosen):
                yield from self.client.invoke(member, ref, "book", description)

        yield from self.client.run_scope(member, body())
        yield from previous.close()
        yield from group.close()
        self.rounds.append(
            SchedulingRound.of(len(self.rounds), candidates, [chosen]))


class SchedulerCrashRemote(RuntimeError):
    """Injected client failure between distributed rounds."""
