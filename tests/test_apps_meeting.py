"""Meeting scheduler: glued rounds over diaries (§4(v), fig. 9)."""

import pytest

from repro.apps.meeting.distributed import DistributedMeetingScheduler
from repro.apps.meeting.scheduler import (
    MeetingScheduler,
    NoCommonDate,
    SchedulerCrash,
)
from repro.cluster.cluster import Cluster
from repro.errors import LockTimeout
from repro.locking.modes import LockMode
from repro.stdobjects import Diary

DATES = [f"2026-07-{day:02d}" for day in range(1, 8)]


def diaries_for(runtime, people=("ann", "bob", "cat")):
    return [Diary(runtime, person, DATES) for person in people]


def test_schedules_first_commonly_acceptable_date(runtime):
    diaries = diaries_for(runtime)
    scheduler = MeetingScheduler(runtime, diaries)
    chosen = scheduler.schedule("review", [
        DATES[1:5],        # ann
        DATES[2:6],        # bob
        [DATES[3]],        # cat
    ])
    assert chosen == DATES[3]
    for diary in diaries:
        assert diary.slot(chosen).booked
        assert diary.slot(chosen).description == "review"


def test_only_chosen_slot_booked(runtime):
    diaries = diaries_for(runtime)
    MeetingScheduler(runtime, diaries).schedule(
        "sync", [DATES, DATES, DATES]
    )
    for diary in diaries:
        booked = [d for d in diary.dates() if diary.slot(d).booked]
        assert len(booked) == 1


def test_already_booked_slots_excluded(runtime):
    diaries = diaries_for(runtime)
    with runtime.top_level():
        diaries[0].slot(DATES[0]).book("dentist")
    chosen = MeetingScheduler(runtime, diaries).schedule(
        "m", [DATES[:2], DATES[:2]]
    )
    assert chosen == DATES[1]


def test_no_common_date_raises(runtime):
    diaries = diaries_for(runtime)
    with pytest.raises(NoCommonDate):
        MeetingScheduler(runtime, diaries).schedule(
            "impossible", [[DATES[0]], [DATES[1]]]
        )
    # nothing booked, nothing left locked
    with runtime.top_level() as probe:
        for diary in diaries:
            runtime.acquire(probe, diary.slot(DATES[0]), LockMode.WRITE,
                            timeout=0.05)


def test_rejected_slots_released_each_round(runtime):
    """The §4(v) point: slots dropped in round i are lockable by outsiders
    immediately, while survivors stay pinned."""
    diaries = diaries_for(runtime, people=("ann", "bob"))
    scheduler = MeetingScheduler(runtime, diaries, fail_after_round=1)
    with pytest.raises(SchedulerCrash):
        scheduler.schedule("m", [DATES[:2], [DATES[0]]])
    # round 1 kept DATES[0], DATES[1]... then narrowing round 1 kept
    # DATES[:2]; dropped the rest — those must be free now:
    with runtime.top_level(name="outsider") as outsider:
        runtime.acquire(outsider, diaries[0].slot(DATES[5]), LockMode.WRITE,
                        timeout=0.05)
        # survivors are still pinned by the current group
        with pytest.raises(LockTimeout):
            runtime.acquire(outsider, diaries[0].slot(DATES[0]),
                            LockMode.WRITE, timeout=0.05)
        runtime.abort_action(outsider)
    scheduler.release_pins()
    with runtime.top_level(name="after") as after:
        runtime.acquire(after, diaries[0].slot(DATES[0]), LockMode.WRITE,
                        timeout=0.05)


def test_round_reports_match_narrowing(runtime):
    diaries = diaries_for(runtime, people=("ann", "bob"))
    scheduler = MeetingScheduler(runtime, diaries)
    scheduler.schedule("m", [DATES[:4], DATES[1:3]])
    kept_per_round = [r.kept for r in scheduler.rounds]
    assert kept_per_round[0] == DATES            # I1: all free dates
    assert kept_per_round[1] == DATES[:4]        # ann's preferences
    assert kept_per_round[2] == DATES[1:3]       # bob's preferences
    assert len(kept_per_round[3]) == 1           # the booking


def test_crash_preserves_committed_rounds(runtime):
    """Each Ii is top-level: its narrowing survives the application crash."""
    diaries = diaries_for(runtime, people=("ann", "bob"))
    scheduler = MeetingScheduler(runtime, diaries, fail_after_round=2)
    with pytest.raises(SchedulerCrash):
        scheduler.schedule("m", [DATES[:3], DATES[1:3]])
    assert [r.kept for r in scheduler.rounds][-1] == DATES[1:3]
    scheduler.release_pins()
    # a new run can pick up from the recorded narrowing
    resumed = MeetingScheduler(runtime, diaries)
    chosen = resumed.schedule("m", [DATES[1:3]])
    assert chosen == DATES[1]


# -- both schedulers ---------------------------------------------------------------

@pytest.mark.parametrize("preferences", [
    [DATES[1:5], DATES[2:6], [DATES[3], DATES[5]]],
    [DATES[:2], [DATES[1]]],
    [[DATES[0]], [DATES[1]]],
])
def test_local_and_distributed_schedulers_decide_alike(runtime, preferences):
    """The same rounds and the same booked date (or the same refusal)."""
    people = {"ann": "ws-ann", "bob": "ws-bob", "cat": "ws-cat"}
    local = MeetingScheduler(runtime, diaries_for(runtime, tuple(people)))
    cluster = Cluster(seed=0)
    for node in ("coordinator", *people.values()):
        cluster.add_node(node)
    remote = DistributedMeetingScheduler(
        cluster, cluster.client("coordinator"))
    cluster.run_process("coordinator", remote.create_diaries(people, DATES))

    def outcome(schedule):
        try:
            return schedule()
        except NoCommonDate:
            return None

    chosen = outcome(lambda: local.schedule("m", preferences))
    assert chosen == outcome(lambda: cluster.run_process(
        "coordinator", remote.schedule("m", preferences)))
    assert local.rounds == remote.rounds
