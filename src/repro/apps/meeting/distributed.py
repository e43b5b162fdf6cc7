"""The §4(v) meeting scheduler over the cluster: diaries on many nodes.

The rounds are :class:`~repro.apps.meeting.scheduler.SchedulerBody` 's —
each round Ii runs in its own control group Gi nested in G(i-1) — but the
diary slots are :class:`~repro.stdobjects.diary.DiarySlot` objects hosted
on the participants' own workstations, locks live on those object servers,
and each round's narrowing is made permanent by a two-phase commit across
the nodes whose slots it touched.  A client crash between rounds loses
only the current pins (volatile); every committed round survives in the
participants' stable stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.meeting.scheduler import SchedulerBody
from repro.cluster.client import ClusterAction, ClusterClient, ObjectRef
from repro.cluster.cluster import Cluster
from repro.cluster.structures import ClusterGluedGroup


@dataclass
class RemoteDiary:
    """One participant's slots: date -> ObjectRef, hosted on their node."""

    owner: str
    node: str
    slots: Dict[str, ObjectRef] = field(default_factory=dict)

    def dates(self) -> List[str]:
        """The dates this diary has a slot for."""
        return list(self.slots)

    def slot(self, date: str) -> ObjectRef:
        """The slot object for ``date``."""
        return self.slots[date]


class DistributedMeetingScheduler(SchedulerBody):
    """Glued scheduling rounds across diary servers."""

    def __init__(self, cluster: Cluster, client: ClusterClient,
                 fail_after_round: Optional[int] = None):
        """``fail_after_round``: fault injection — the client crashes after
        that many narrowing rounds; committed rounds stay permanent, and
        :meth:`release_pins` drops the surviving group's pins."""
        super().__init__(fail_after_round)
        self.cluster = cluster
        self.client = client
        self.diaries: List[RemoteDiary] = []

    def create_diaries(self, people: Dict[str, str], dates: Sequence[str]):
        """Generator: one DiarySlot per (person, date) on the person's node."""
        for owner, node in sorted(people.items()):
            diary = RemoteDiary(owner=owner, node=node)
            for date in dates:
                diary.slots[date] = yield from self.client.create(
                    node, "diary_slot", owner, date)
            self.diaries.append(diary)
        return self.diaries

    # -- primitives: every call an RPC ---------------------------------------------

    def _glued(self, name: str, parent=None) -> ClusterGluedGroup:
        return ClusterGluedGroup(self.client, parent, name)

    def _member(self, group: ClusterGluedGroup, name: str, body):
        member = group.member(name)
        return self.client.run_scope(member, body(member))

    def _invoke(self, member: ClusterAction, ref: ObjectRef, method: str, *args):
        return self.client.invoke(member, ref, method, *args)

    def _hand_over(self, group: ClusterGluedGroup, member: ClusterAction, *refs):
        return group.hand_over(member, *refs)

    def _end(self, group: ClusterGluedGroup, how: str):
        return getattr(group, how)()
