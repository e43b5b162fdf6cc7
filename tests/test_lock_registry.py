"""LockRegistry: cross-table bookkeeping, transfer and release."""

from repro import Counter, LocalRuntime
from repro.cluster.cluster import Cluster
from repro.colours.colour import Colour
from repro.locking.deadlock import blockers_of
from repro.locking.modes import LockMode
from repro.locking.owner import StubOwner
from repro.locking.registry import LockRegistry
from repro.locking.request import RequestStatus
from repro.util.uid import UidGenerator

auids = UidGenerator("a")
cuids = UidGenerator("colour")
ouids = UidGenerator("obj")

RED = Colour(cuids.fresh(), "red")
BLUE = Colour(cuids.fresh(), "blue")


def owner(path_owners=(), colours=(RED, BLUE)):
    uid = auids.fresh()
    path = tuple(p.uid for p in path_owners) + (uid,)
    return StubOwner(uid=uid, path=path, colours=frozenset(colours))


def test_request_tracks_held_objects():
    registry = LockRegistry()
    me = owner()
    objects = [ouids.fresh() for _ in range(3)]
    for obj in objects:
        registry.request(me, obj, LockMode.WRITE, RED)
    assert registry.objects_held_by(me.uid) == set(objects)


def test_holds_checks_mode_strength_and_colour():
    registry = LockRegistry()
    me = owner()
    obj = ouids.fresh()
    registry.request(me, obj, LockMode.WRITE, RED)
    assert registry.holds(me.uid, obj, LockMode.READ)           # WRITE covers READ
    assert registry.holds(me.uid, obj, LockMode.WRITE, colour=RED)
    assert not registry.holds(me.uid, obj, LockMode.WRITE, colour=BLUE)
    assert not registry.holds(owner().uid, obj, LockMode.READ)


def test_release_action_drops_everything_and_wakes_waiters():
    registry = LockRegistry()
    me, other = owner(), owner()
    obj = ouids.fresh()
    registry.request(me, obj, LockMode.WRITE, RED)
    statuses = []
    registry.request(other, obj, LockMode.WRITE, RED,
                     on_complete=lambda r: statuses.append(r.status))
    assert not statuses
    registry.release_action(me.uid)
    assert statuses == [RequestStatus.GRANTED]
    assert registry.objects_held_by(me.uid) == set()


def test_transfer_on_commit_updates_inheritor_bookkeeping():
    registry = LockRegistry()
    parent = owner(colours=(BLUE,))
    child = owner(path_owners=(parent,), colours=(RED, BLUE))
    obj_red, obj_blue = ouids.fresh(), ouids.fresh()
    registry.request(child, obj_red, LockMode.WRITE, RED)
    registry.request(child, obj_blue, LockMode.WRITE, BLUE)
    registry.transfer_on_commit(
        child.uid, lambda colour: parent if colour == BLUE else None
    )
    assert registry.objects_held_by(child.uid) == set()
    assert registry.objects_held_by(parent.uid) == {obj_blue}
    # the parent can later release what it inherited
    registry.release_action(parent.uid)
    assert registry.objects_held_by(parent.uid) == set()


def test_cancel_waiting_refuses_with_error():
    registry = LockRegistry()
    holder, waiter = owner(), owner()
    obj = ouids.fresh()
    registry.request(holder, obj, LockMode.WRITE, RED)
    captured = []
    registry.request(waiter, obj, LockMode.WRITE, RED,
                     on_complete=lambda r: captured.append(r))
    boom = RuntimeError("victim")
    count = registry.cancel_waiting(waiter.uid, "deadlock", error=boom)
    assert count == 1
    assert captured[0].status is RequestStatus.REFUSED
    assert captured[0].error is boom


def test_waits_for_edges_reflect_blocking():
    registry = LockRegistry()
    a, b = owner(), owner()
    obj1, obj2 = ouids.fresh(), ouids.fresh()
    registry.request(a, obj1, LockMode.WRITE, RED)
    registry.request(b, obj2, LockMode.WRITE, RED)
    registry.request(a, obj2, LockMode.WRITE, RED)  # a waits for b
    registry.request(b, obj1, LockMode.WRITE, RED)  # b waits for a
    assert blockers_of(registry, a.uid) == [b.uid]
    assert blockers_of(registry, b.uid) == [a.uid]


def test_tables_garbage_collected_when_idle():
    registry = LockRegistry()
    me = owner()
    obj = ouids.fresh()
    registry.request(me, obj, LockMode.WRITE, RED)
    assert len(list(registry.tables())) == 1
    registry.release_action(me.uid)
    assert len(list(registry.tables())) == 0


def test_pending_requests_of_owner():
    registry = LockRegistry()
    holder, waiter = owner(), owner()
    obj = ouids.fresh()
    registry.request(holder, obj, LockMode.WRITE, RED)
    registry.request(waiter, obj, LockMode.WRITE, RED)
    pending = registry.pending_requests_of(waiter.uid)
    assert len(pending) == 1 and pending[0].owner.uid == waiter.uid
    assert registry.pending_requests_of(holder.uid) == []


# -- nothing is kept per finished action -------------------------------------


def test_finished_local_actions_leave_no_owner_entries():
    """Committed, aborted, nested and once-queued actions alike: when they
    are over, the registry keeps no entry under any of them."""
    runtime = LocalRuntime()
    counters = [Counter(runtime, value=0) for _ in range(3)]
    for index in range(12):
        try:
            with runtime.top_level(name=f"t{index}"):
                with runtime.atomic(name=f"t{index}.child"):
                    counters[index % 3].increment()
                for counter in counters:
                    counter.increment()
                if index % 3 == 0:
                    raise RuntimeError("abort")
        except RuntimeError:
            pass
    assert counters[0].value == 8
    assert runtime.locks._waiting_by == {}
    assert runtime.locks._held_by == {}


def test_finished_cluster_actions_leave_no_owner_entries():
    cluster = Cluster(seed=3)
    for name in ("home", "server"):
        cluster.add_node(name)
    first, second = (cluster.client("home", name=n) for n in ("a", "b"))

    def app():
        ref = yield from first.create("server", "counter", value=0)
        for index in range(12):
            holder = first.top_level(f"h{index}")
            yield from first.invoke(holder, ref, "increment", 1)
            # a second action queues behind the first, then is granted
            waiter = second.top_level(f"w{index}")
            queued = cluster.spawn("home", second.invoke(
                waiter, ref, "increment", 1))
            if index % 2:
                yield from first.abort(holder)
            else:
                yield from first.commit(holder)
            yield queued.join()
            yield from second.commit(waiter)

    cluster.run_process("home", app())
    cluster.run()
    registry = cluster.servers["server"].registry
    assert registry._waiting_by == {}
    assert registry._held_by == {}


def test_an_owner_waits_on_while_another_of_its_requests_stays_queued():
    """a's WRITE queues behind b's READ; a's READ then is granted on a's
    own record.  a still waits at the object, so its queued WRITE stays
    listed and the walk still sees the cycle b's WRITE closes."""
    registry = LockRegistry()
    a, b = owner(), owner()
    obj = ouids.fresh()
    registry.request(a, obj, LockMode.READ, RED)
    registry.request(b, obj, LockMode.READ, RED)
    upgrade = registry.request(a, obj, LockMode.WRITE, RED)
    assert registry.request(a, obj, LockMode.READ, RED).status \
        is RequestStatus.GRANTED
    assert registry.pending_requests_of(a.uid) == [upgrade]
    registry.request(b, obj, LockMode.WRITE, RED)
    assert blockers_of(registry, a.uid) == [b.uid]
    assert registry.cancel_waiting(a.uid, "victim") == 1
