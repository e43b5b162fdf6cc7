"""The distributed meeting scheduler (fig. 9 across object servers)."""

import pytest

from repro.apps.meeting.distributed import DistributedMeetingScheduler
from repro.apps.meeting.scheduler import NoCommonDate, SchedulerCrash
from repro.cluster.cluster import Cluster
from repro.errors import LockTimeout
from repro.objects.state import ObjectState

DATES = [f"d{i}" for i in range(5)]
PEOPLE = {"ann": "ws-ann", "bob": "ws-bob", "cat": "ws-cat"}


def make_scheduler(lock_wait_timeout=60.0, fail_after_round=None):
    cluster = Cluster(seed=0, lock_wait_timeout=lock_wait_timeout)
    cluster.add_node("coordinator")
    for node in PEOPLE.values():
        cluster.add_node(node)
    client = cluster.client("coordinator")
    scheduler = DistributedMeetingScheduler(cluster, client,
                                            fail_after_round=fail_after_round)
    cluster.run_process("coordinator", scheduler.create_diaries(PEOPLE, DATES))
    return cluster, scheduler


def booked_in_stable_store(cluster, scheduler, date):
    """Check the booking reached every participant's stable store."""
    booked = []
    for diary in scheduler.diaries:
        ref = diary.slots[date]
        stored = cluster.nodes[diary.node].stable_store.read_committed(ref.uid)
        state = ObjectState.from_bytes(stored.payload)
        state.unpack_string()           # owner
        state.unpack_string()           # date
        booked.append(state.unpack_bool())
    return booked


def test_distributed_scheduling_books_common_date():
    cluster, scheduler = make_scheduler()

    def app():
        chosen = yield from scheduler.schedule(
            "review", [DATES[1:4], DATES[2:5], [DATES[2]]]
        )
        return chosen

    chosen = cluster.run_process("coordinator", app())
    assert chosen == DATES[2]
    assert booked_in_stable_store(cluster, scheduler, chosen) == [True] * 3


def test_rounds_narrow_monotonically():
    cluster, scheduler = make_scheduler()

    def app():
        return (yield from scheduler.schedule(
            "m", [DATES[:4], DATES[1:3]]
        ))

    cluster.run_process("coordinator", app())
    kept = [len(r.kept) for r in scheduler.rounds]
    assert all(a >= b for a, b in zip(kept, kept[1:]))
    assert kept[-1] == 1


def test_no_common_date_raises_and_releases():
    cluster, scheduler = make_scheduler()

    def app():
        try:
            yield from scheduler.schedule("m", [[DATES[0]], [DATES[1]]])
            return "scheduled"
        except NoCommonDate:
            return "no-date"

    assert cluster.run_process("coordinator", app()) == "no-date"
    # nothing is left pinned: an outsider can lock any slot
    outsider = cluster.client("coordinator", "outsider")

    def probe():
        action = outsider.top_level("probe")
        ref = scheduler.diaries[0].slots[DATES[0]]
        yield from outsider.invoke(action, ref, "book", "other meeting")
        yield from outsider.commit(action)
        return True

    assert cluster.run_process("coordinator", probe())


def test_crash_between_rounds_preserves_committed_narrowing():
    cluster, scheduler = make_scheduler(lock_wait_timeout=10.0,
                                        fail_after_round=1)

    def app():
        try:
            yield from scheduler.schedule("m", [DATES[:3], DATES[1:3]])
            return "finished"
        except SchedulerCrash:
            return "crashed"

    assert cluster.run_process("coordinator", app()) == "crashed"
    assert scheduler.rounds[-1].kept == DATES[:3]
    # survivors still pinned...
    other = cluster.client("ws-ann", "other")

    def probe_pinned():
        action = other.top_level("probe")
        ref = scheduler.diaries[0].slots[DATES[0]]
        try:
            yield from other.invoke(action, ref, "book", "steal the slot")
            yield from other.commit(action)
            return "stole"
        except LockTimeout:
            yield from other.abort(action)
            return "pinned"

    assert cluster.run_process("ws-ann", probe_pinned()) == "pinned"
    # ... until released; then a fresh run resumes from the narrowing
    scheduler.fail_after_round = None

    def finish():
        yield from scheduler.release_pins()
        chosen = yield from scheduler.schedule("m", [scheduler.rounds[-1].kept])
        return chosen

    chosen = cluster.run_process("coordinator", finish())
    assert chosen in DATES[:3]
    assert booked_in_stable_store(cluster, scheduler, chosen) == [True] * 3


def test_rejected_slots_freed_while_running():
    cluster, scheduler = make_scheduler()
    probe_result = {}

    def app():
        chosen = yield from scheduler.schedule(
            "m", [DATES[:2], [DATES[0]]]
        )
        return chosen

    def prober():
        from repro.sim.kernel import Timeout
        # wait until round 2 has released DATES[2:]
        while len(scheduler.rounds) < 2:
            yield Timeout(2.0)
        other = cluster.client("ws-bob", "prober")
        action = other.top_level("probe")
        ref = scheduler.diaries[1].slots[DATES[4]]  # rejected in round 1
        yield from other.invoke(action, ref, "book", "free slot")
        yield from other.commit(action)
        probe_result["booked"] = True

    handle_app = cluster.spawn("coordinator", app())
    handle_probe = cluster.spawn("ws-bob", prober())
    cluster.run()
    assert handle_app.result == DATES[0]
    assert probe_result.get("booked") is True
