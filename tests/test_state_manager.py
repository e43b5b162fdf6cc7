"""StateManager and the @operation declaration machinery."""

import pytest

from repro.errors import CorruptState, ObjectNotFound
from repro.locking.modes import LockMode
from repro.objects.lockable import operation
from repro.objects.state import ObjectState
from repro.objects.state_manager import StateManager
from repro.stdobjects import Counter, Register
from repro.store.stable import StableStore
from repro.util.uid import UidGenerator

uids = UidGenerator("obj")


class Point(StateManager):
    type_name = "point"

    def __init__(self, uid, x=0, y=0):
        super().__init__(uid)
        self.x, self.y = x, y

    def save_state(self, state: ObjectState) -> None:
        state.pack_int(self.x)
        state.pack_int(self.y)

    def restore_state(self, state: ObjectState) -> None:
        self.x = state.unpack_int()
        self.y = state.unpack_int()


def test_snapshot_restore_roundtrip():
    point = Point(uids.fresh(), 3, -4)
    clone = Point(uids.fresh())
    clone.restore_snapshot(point.snapshot())
    assert (clone.x, clone.y) == (3, -4)


def test_persist_and_activate():
    store = StableStore()
    uid = uids.fresh()
    Point(uid, 7, 8).persist_to(store)
    revived = Point(uid)
    revived.activate_from(store)
    assert (revived.x, revived.y) == (7, 8)


def test_activate_missing_raises():
    with pytest.raises(ObjectNotFound):
        Point(uids.fresh()).activate_from(StableStore())


def test_activate_type_mismatch_raises():
    """Loading a state recorded under a different type must fail loudly."""
    store = StableStore()
    uid = uids.fresh()
    Point(uid, 1, 2).persist_to(store)

    class NotAPoint(StateManager):
        type_name = "not_a_point"

        def save_state(self, state):
            pass

        def restore_state(self, state):
            pass

    with pytest.raises(CorruptState):
        NotAPoint(uid).activate_from(store)


def test_stored_state_carries_identity_and_type():
    point = Point(uids.fresh(), 1, 1)
    stored = point.stored_state()
    assert stored.object_uid == point.uid
    assert stored.type_name == "point"


# -- @operation metadata --------------------------------------------------------

def test_operation_decorator_exposes_mode_and_body():
    assert Counter.increment.__repro_operation__.mode is LockMode.WRITE
    assert Counter.get.__repro_operation__.mode is LockMode.READ
    # the undecorated body mutates without locking (server-side use)
    counter = Counter.__new__(Counter)
    counter.value = 5
    assert Counter.increment.__repro_operation__.body(counter, 3) == 8


def test_operation_wrapper_requires_an_action(runtime):
    from repro.errors import NoCurrentAction
    counter = Counter(runtime, value=0)
    with pytest.raises(NoCurrentAction):
        counter.increment(1)   # no ambient action, none passed


def test_lock_convenience_wrappers(runtime):
    register = Register(runtime, value="x")
    with runtime.top_level() as action:
        assert register.read_lock(action=action) is action
        assert runtime.locks.holds(action.uid, register.uid, LockMode.READ)
        register.write_lock(action=action)
        assert runtime.locks.holds(action.uid, register.uid, LockMode.WRITE)


def test_exclusive_read_lock_wrapper(runtime):
    register = Register(runtime, value="x")
    with runtime.top_level() as action:
        register.exclusive_read_lock(action=action)
        assert runtime.locks.holds(action.uid, register.uid,
                                   LockMode.EXCLUSIVE_READ)
