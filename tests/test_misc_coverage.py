"""Coverage for smaller behaviours not exercised elsewhere."""

import pytest

from repro.errors import SimulationError
from repro.locking.modes import LockMode
from repro.runtime.runtime import AMBIENT, LocalRuntime
from repro.sim.kernel import Kernel, Timeout
from repro.stdobjects import Account, Counter, FifoQueue
from repro.structures import GluedGroup, SerializingAction


# -- structures: ambient-parent wiring ------------------------------------------

def test_serializing_action_with_ambient_parent(runtime):
    counter = Counter(runtime, value=0)
    with runtime.top_level(name="outer") as outer:
        ser = SerializingAction(runtime, parent=AMBIENT, name="ser")
        assert ser.control.parent is outer
        with ser.constituent(name="B") as b:
            counter.increment(1, action=b)
        ser.close()
    assert counter.value == 1


def test_glued_group_with_ambient_parent(runtime):
    with runtime.top_level(name="outer") as outer:
        glue = GluedGroup(runtime, parent=AMBIENT, name="g")
        assert glue.control.parent is outer
        glue.close()


def test_glued_cancel_without_members_is_clean(runtime):
    glue = GluedGroup(runtime, name="empty")
    from repro.actions.status import Outcome
    assert glue.cancel() is Outcome.ABORTED


def test_serializing_inside_glued_member(runtime):
    """Structures compose: a serializing action nested in a glued member."""
    counter = Counter(runtime, value=0)
    with GluedGroup(runtime, name="g") as glue:
        with glue.member(name="A") as member:
            ser = SerializingAction(runtime, parent=member.action, name="ser")
            with ser.constituent(name="B") as b:
                counter.increment(5, action=b)
            ser.close()
    assert counter.value == 5


# -- action tree queries -------------------------------------------------------------

def test_written_objects_and_undo_records_queries(runtime):
    a = Counter(runtime, value=0)
    b = Counter(runtime, value=0)
    with runtime.top_level() as action:
        a.increment(1)
        b.increment(1)
        written = action.written_objects()
        assert set(written) == {a.uid, b.uid}
        per_colour = action.written_objects(action.single_colour())
        assert set(per_colour) == {a.uid, b.uid}
        assert len(action.undo_records()) == 2


# -- kernel edges ----------------------------------------------------------------------

def test_run_until_settled_reraises_failure():
    kernel = Kernel()
    event = kernel.event()
    kernel.schedule(1.0, lambda: event.fail(ValueError("boom")))
    with pytest.raises(ValueError):
        kernel.run_until_settled(event)


def test_run_until_settled_returns_value():
    kernel = Kernel()
    event = kernel.event()
    kernel.schedule(2.0, lambda: event.trigger("done"))
    assert kernel.run_until_settled(event) == "done"


def test_schedule_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.schedule(-1.0, lambda: None)


def test_all_of_empty_triggers_with_empty_list():
    from repro.sim.kernel import all_of
    kernel = Kernel()

    def proc():
        values = yield all_of(kernel, [])
        return values

    handle = kernel.spawn(proc())
    kernel.run()
    assert handle.result == []


# -- stdobject odds and ends ---------------------------------------------------------------

def test_account_read_statement_is_a_copy(runtime):
    account = Account(runtime, owner="x", balance=10)
    with runtime.top_level():
        account.deposit(1, "tip")
        statement = account.read_statement()
        statement.append(("forged", 999))
    assert account.statement == [("tip", 1)]


def test_fifo_peek_does_not_consume(runtime):
    queue = FifoQueue(runtime)
    with runtime.top_level():
        queue.enqueue("a")
        queue.enqueue("b")
        assert queue.peek_all() == ["a", "b"]
        assert queue.length() == 2
        assert queue.dequeue() == "a"


def test_counter_decrement(runtime):
    counter = Counter(runtime, value=10)
    with runtime.top_level():
        assert counter.decrement(3) == 7
    assert counter.value == 7


# -- runtime odds and ends ---------------------------------------------------------------------

def test_locked_objects_counts_tables(runtime):
    a = Counter(runtime, value=0)
    scope = runtime.top_level()
    with scope as action:
        a.increment(1)
        assert runtime.locked_objects() == 1
    assert runtime.locked_objects() == 0


def test_atomic_with_explicit_none_parent_is_top_level(runtime):
    with runtime.top_level(name="outer"):
        with runtime.atomic(parent=None, name="separate") as separate:
            assert separate.parent is None
            assert len(separate.colours) == 1


def test_deadlock_victims_listing():
    runtime = LocalRuntime()
    import threading
    from repro.errors import DeadlockDetected
    a, b = Counter(runtime, value=0), Counter(runtime, value=0)
    barrier = threading.Barrier(2, timeout=10)

    def worker(first, second):
        try:
            with runtime.top_level():
                first.increment(1)
                barrier.wait()
                second.increment(1)
        except DeadlockDetected:
            pass

    threads = [
        threading.Thread(target=worker, args=(a, b)),
        threading.Thread(target=worker, args=(b, a)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert len(runtime.deadlock_victims()) == 1
