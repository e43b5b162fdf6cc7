"""The single-fault sweep over the commit shapes of
``tests/test_commit_rounds.py``.

One run per fault point, counted off the shapes' pinned literals: every
armed send dropped, duplicated or delayed past the RPC timeout, and every
append with its node crashing just before or just after it.  The plan
that records the wire trace takes the fault (:class:`Faulted`), and every
run ends in the §5.1 oracle of ``tests/oracle.py``.  Every point runs on
sim; the :data:`PINNED` crash points run on asyncio too.  EXPERIMENTS.md
Appendix T has the counts, the runtime and the findings.
"""

import pytest

from repro.backend import AsyncioKernel
from tests.oracle import check, stable
from tests.test_commit_rounds import EXPECTED, Tap, drive, wire_lines

#: wire faults: a send's fates (one extra delay per copy) -> the faulted
#: fates; ``delay`` holds every copy back past the RPC timeout
WIRE = {
    "drop": lambda fates, timeout: (),
    "duplicate": lambda fates, timeout: fates + fates,
    "delay": lambda fates, timeout: tuple(extra + timeout + 1.0
                                          for extra in fates),
}


class Faulted(Tap):
    """A :class:`Tap` that takes one sweep point: ``(how, k)`` hits the
    k-th armed send, ``(how, node, i)`` crashes the node just ``before``
    or ``after`` its i-th append, to be repaired ``downtime`` later (one
    retransmission of the 10-unit RPC timeout).  It notes when the fault
    struck (``fired``, on the kernel's clock) and every send and every
    append a down node makes."""

    def __init__(self, cluster, fault, downtime=10.0):
        super().__init__(cluster)
        self.fault, self.downtime = fault, downtime
        self.fired, self.appends, self.dead = None, {}, []

    def fates(self, message):
        if not self.cluster.nodes[message.src].alive:
            self.dead.append((message.src, message.kind))
        fates = super().fates(message)
        if self.lines and self.fault[1:] == (len(self.lines) - 1,):
            self.fired = self.cluster.kernel.now - self.started
            return WIRE[self.fault[0]](fates, self.cluster.rpc_timeout)
        return fates

    def crashes(self, node, kind, after):
        if not after:
            self.appends[node] = self.appends.get(node, 0) + 1
            if not self.cluster.nodes[node].alive:
                self.dead.append((node, kind))
        point = ("after" if after else "before", node, self.appends[node] - 1)
        if point != self.fault:
            return self.beneath.crashes(node, kind, after)
        self.fired = self.cluster.kernel.now
        self.cluster.restart_at(node, self.fired + self.downtime)
        return True

    def arm(self):
        super().arm()
        self.before = stable(self.cluster)

    def colours(self):
        """One oracle group per colour the committed action wrote."""
        if self.action is None:
            return []
        return [{(node, uid): self.before[node, uid]
                 for node, uids in written.items() for uid in uids}
                for written in self.action.written.values()]


#: crash points pinned whole and run on asyncio too — one per participant
#: side, the coordinator's restart redelivering its commit, and one where
#: the restarted coordinator's ``home_restarted`` notice also ends the
#: mirrors of its dead action: the outcome, whether the colour is on the
#: stable stores, the node's log
PINNED = {
    "classic_two_writers-before-p1-0":
        ("commit-error", [False], ["aborted"]),
    "classic_two_writers-after-p1-1":
        ("committed", [True], ["prepared", "committed"]),
    "classic_two_writers-before-coord-1":
        ("ProcessKilled", [True], ["coord_commit", "coord_end"]),
    "classic_two_writers-after-coord-0":
        ("ProcessKilled", [True], ["coord_commit", "coord_end"]),
}


def sweep_points():
    """Every single fault on the commit shapes, counted off their pinned
    literals: each armed send x :data:`WIRE`, each append x {before,
    after}; then the :data:`PINNED` points on asyncio."""
    for scenario, (_outcome, wire, wal) in sorted(EXPECTED.items()):
        for k in range(len(wire_lines(wire))):
            for how in WIRE:
                yield pytest.param(scenario, (how, k), False,
                                   id=f"{scenario}-{how}-{k}")
        for node, kinds in sorted(wal.items()):
            for i in range(len(kinds.split())):
                for how in ("before", "after"):
                    yield pytest.param(scenario, (how, node, i), False,
                                       id=f"{scenario}-{how}-{node}-{i}")
    for point in PINNED:
        scenario, how, node, i = point.rsplit("-", 3)
        yield pytest.param(scenario, (how, node, int(i)), True,
                           id=f"{point}-asyncio")


@pytest.mark.parametrize("scenario,fault,aio", list(sweep_points()))
def test_single_fault_sweep(scenario, fault, aio):
    """The fault happens, a crashed node neither sends nor appends while
    down, and the run still meets §5.1; a commit the client saw succeed
    is on the stable stores, every colour of it."""
    cluster, tap = drive(scenario, AsyncioKernel(time_scale=0.01)
                         if aio else None, lambda c: Faulted(c, fault))
    assert tap.fired is not None and tap.dead == []
    if len(fault) == 3:
        log = [record.kind for record in cluster.nodes[fault[1]].wal.records()]
    applied = check(cluster, tap.colours())
    assert all(applied) or tap.outcome != "committed"
    pinned = PINNED.get(f"{scenario}-{'-'.join(map(str, fault))}")
    if pinned:
        assert (tap.outcome, applied, log) == pinned
    cluster.close()


def test_phase_two_landed_by_a_reaper_ends_the_transaction():
    """p1 stays down past every retransmission of the commit call, so a
    reaper delivers the decision later; the coordinator should then log
    ``coord_end``, or every checkpoint keeps its COMMIT entry."""
    cluster, tap = drive("classic_two_writers", plan=lambda c: Faulted(
        c, ("after", "p1", 1), downtime=40.0))
    assert tap.outcome == "committed"
    assert [record.kind for record in cluster.nodes["coord"].wal.records()] \
        == ["coord_commit", "coord_end"]


@pytest.mark.xfail(strict=True, reason="a commute commit's redo list is "
                   "not on the coordinator's log, so a restarted "
                   "coordinator cannot redeliver it")
def test_a_restarted_coordinator_ends_a_commute_commit():
    """The coordinator crashes just before its ``coord_end``, after both
    commute prepares landed; at restart it should still end the commit
    (the oracle leaves commute commits out for this reason)."""
    cluster, tap = drive("commute_inline_finish", plan=lambda c: Faulted(
        c, ("before", "coord", 1)))
    assert tap.outcome == "ProcessKilled"
    assert [record.kind for record in cluster.nodes["coord"].wal.records()] \
        == ["coord_commit", "coord_end"]
