"""Top-level independent actions (figs. 7/13) and compensation (§3.4)."""

import threading

import pytest

from repro.errors import LockTimeout
from repro.locking.modes import LockMode
from repro.structures import AsyncIndependent, CompensationScope, independent_top_level
from repro.stdobjects import Counter


def test_sync_independent_commit_survives_invoker_abort(runtime):
    board = Counter(runtime, value=0)
    with pytest.raises(RuntimeError):
        with runtime.top_level(name="app"):
            with independent_top_level(runtime, name="post") as post:
                board.increment(1, action=post)
            raise RuntimeError("app aborts")
    assert board.value == 1
    assert runtime.store.read_committed(board.uid).payload == board.snapshot()


def test_sync_independent_abort_leaves_invoker_running(runtime):
    board = Counter(runtime, value=0)
    own = Counter(runtime, value=0)
    with runtime.top_level(name="app"):
        own.increment(5)
        with pytest.raises(ValueError):
            with independent_top_level(runtime, name="post") as post:
                board.increment(1, action=post)
                raise ValueError("post fails")
        # invoker continues; its own work is unaffected
        own.increment(5)
    assert board.value == 0
    assert own.value == 10


def test_invoker_can_consult_outcome(runtime):
    """Fig. 7(a): 'subsequent activities of A can be made to depend upon the
    outcome of B' — e.g. A aborts if B aborted."""
    from repro.actions.status import Outcome
    board = Counter(runtime, value=0)
    own = Counter(runtime, value=0)
    with pytest.raises(RuntimeError):
        with runtime.top_level(name="app"):
            own.increment(5)
            scope = independent_top_level(runtime, name="post")
            try:
                with scope as post:
                    board.increment(1, action=post)
                    raise ValueError("post fails")
            except ValueError:
                pass
            assert scope.outcome is Outcome.ABORTED
            raise RuntimeError("A aborts because B aborted")
    assert own.value == 0


def test_independent_commits_are_permanent_immediately(runtime):
    board = Counter(runtime, value=0)
    with runtime.top_level(name="app"):
        with independent_top_level(runtime, name="post") as post:
            board.increment(1, action=post)
        assert runtime.store.read_committed(board.uid).payload == board.snapshot()


def test_fig13b_no_deadlock_with_invoker_held_object(runtime):
    """Invoker A holds locks B needs: the coloured implementation grants B
    (A is B's ancestor) where true top-levels would deadlock — fig. 13.

    Grantable conflicts: B reads what A wrote, and B writes what A read.
    (WRITE over an ancestor's WRITE in a different colour stays blocked —
    §5.2's rule 3 parenthetical — so write responsibility is unambiguous.)
    """
    written_by_a = Counter(runtime, value=0)
    read_by_a = Counter(runtime, value=0)
    with runtime.top_level(name="A") as a:
        written_by_a.increment(1)          # A write-locks
        read_by_a.get()                    # A read-locks
        with independent_top_level(runtime, name="B") as b:
            # B reads past A's WRITE lock (A is an ancestor)...
            assert written_by_a.get(action=b) == 1
            # ...and writes past A's READ lock.
            read_by_a.increment(10, action=b)
    assert read_by_a.value == 10
    assert written_by_a.value == 1


def test_fig13b_write_over_invoker_write_stays_blocked(runtime):
    """The documented exception: write-over-write in another colour waits."""
    shared = Counter(runtime, value=0)
    with runtime.top_level(name="A") as a:
        shared.increment(1)
        with independent_top_level(runtime, name="B") as b:
            with pytest.raises(LockTimeout):
                runtime.acquire(b, shared, LockMode.WRITE, timeout=0.05)
            runtime.abort_action(b)


def test_fig13a_true_top_levels_do_conflict(runtime):
    """The contrast case: a *non-nested* top-level B blocks on A's lock."""
    shared = Counter(runtime, value=0)
    with runtime.top_level(name="A") as a:
        shared.increment(1)
        with independent_top_level(runtime, parent=None, name="B") as b:
            with pytest.raises(LockTimeout):
                runtime.acquire(b, shared, LockMode.WRITE, timeout=0.05)
            runtime.abort_action(b)


def test_async_independent_runs_concurrently_and_commits(runtime):
    board = Counter(runtime, value=0)
    started = threading.Event()
    release = threading.Event()

    def body(action):
        started.set()
        release.wait(2)
        board.increment(1, action=action)

    with runtime.top_level(name="app") as app:
        task = AsyncIndependent(runtime, body, parent=app, name="bg")
        assert started.wait(2)
        release.set()
        assert task.wait(2) is not None
    assert board.value == 1


def test_async_independent_survives_invoker_abort(runtime):
    from repro.actions.status import Outcome
    board = Counter(runtime, value=0)
    release = threading.Event()

    def body(action):
        release.wait(2)
        board.increment(7, action=action)

    with pytest.raises(RuntimeError):
        with runtime.top_level(name="app") as app:
            task = AsyncIndependent(runtime, body, parent=app, name="bg")
            raise RuntimeError("invoker aborts while B still running")
    release.set()
    assert task.wait(3) is Outcome.COMMITTED
    assert board.value == 7


def test_async_independent_reports_body_error(runtime):
    from repro.actions.status import Outcome

    def body(action):
        raise ValueError("bg failure")

    with runtime.top_level(name="app") as app:
        task = AsyncIndependent(runtime, body, parent=app, name="bg")
        assert task.wait(2) is Outcome.ABORTED
    assert isinstance(task.error, ValueError)


def test_compensation_runs_on_governing_abort(runtime):
    """Bulletin-board pattern: the independent post commits; if the invoking
    action aborts, a compensating top-level action retracts it."""
    board = Counter(runtime, value=0)
    with pytest.raises(RuntimeError):
        with runtime.top_level(name="app") as app:
            comp = CompensationScope(runtime, app)
            with independent_top_level(runtime, name="post") as post:
                board.increment(1, action=post)
            comp.register("retract post",
                          lambda action: board.decrement(1, action=action))
            raise RuntimeError("app aborts")
    assert board.value == 0  # posted then compensated
    assert comp.records == []


def test_compensation_not_run_on_commit(runtime):
    board = Counter(runtime, value=0)
    with runtime.top_level(name="app") as app:
        comp = CompensationScope(runtime, app)
        with independent_top_level(runtime, name="post") as post:
            board.increment(1, action=post)
        comp.register("retract", lambda action: board.decrement(1, action=action))
    assert board.value == 1


def test_compensators_run_in_reverse_order(runtime):
    order = []
    with pytest.raises(RuntimeError):
        with runtime.top_level(name="app") as app:
            comp = CompensationScope(runtime, app)
            comp.register("first", lambda a: order.append("first"))
            comp.register("second", lambda a: order.append("second"))
            raise RuntimeError
    assert order == ["second", "first"]


def test_failing_compensator_does_not_stop_the_rest(runtime):
    from repro.actions.status import Outcome
    order = []

    def bad(action):
        raise ValueError("compensator broken")

    with pytest.raises(RuntimeError):
        with runtime.top_level(name="app") as app:
            comp = CompensationScope(runtime, app)
            comp.register("ok-one", lambda a: order.append("one"))
            comp.register("bad", bad)
            comp.register("ok-two", lambda a: order.append("two"))
            raise RuntimeError
    assert order == ["two", "one"]


def test_discarded_compensator_does_not_run(runtime):
    ran = []
    with pytest.raises(RuntimeError):
        with runtime.top_level(name="app") as app:
            comp = CompensationScope(runtime, app)
            record = comp.register("noop", lambda a: ran.append(True))
            comp.discard(record)
            raise RuntimeError
    assert ran == []
