"""The waits-for walk, and how the local runtime breaks what it finds."""

import threading
import time

from hypothesis import given, settings, strategies as st

from repro.colours.colour import Colour
from repro.errors import DeadlockDetected
from repro.locking.deadlock import blockers_of, cycle_through
from repro.locking.modes import LockMode
from repro.locking.owner import StubOwner
from repro.locking.registry import LockRegistry
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter
from repro.util.uid import UidGenerator

auids = UidGenerator("a")
cuids = UidGenerator("colour")
ouids = UidGenerator("obj")
RED = Colour(cuids.fresh(), "red")


def owner():
    uid = auids.fresh()
    return StubOwner(uid=uid, path=(uid,), colours=frozenset((RED,)))


def ring(registry, size):
    """``size`` owners, each holding its own object and queued for the
    next one's: a cycle of length ``size``."""
    owners = [owner() for _ in range(size)]
    objects = [ouids.fresh() for _ in owners]
    for who, obj in zip(owners, objects):
        registry.request(who, obj, LockMode.WRITE, RED)
    for who, obj in zip(owners, objects[1:] + objects[:1]):
        registry.request(who, obj, LockMode.WRITE, RED)
    return [who.uid for who in owners]


def test_graph_finds_simple_cycle():
    registry = LockRegistry()
    a, b = ring(registry, 2)
    assert cycle_through(registry, a) == [a, b]
    assert cycle_through(registry, b) == [b, a]


def test_graph_no_cycle_in_dag():
    """a waits for b and c, b waits for c, c runs."""
    registry = LockRegistry()
    a, b, c = owner(), owner(), owner()
    held_by_b, held_by_c = ouids.fresh(), ouids.fresh()
    registry.request(b, held_by_b, LockMode.WRITE, RED)
    registry.request(c, held_by_c, LockMode.WRITE, RED)
    registry.request(b, held_by_c, LockMode.WRITE, RED)
    registry.request(a, held_by_b, LockMode.WRITE, RED)
    registry.request(a, held_by_c, LockMode.WRITE, RED)
    assert blockers_of(registry, a.uid) == sorted([b.uid, c.uid])
    assert blockers_of(registry, b.uid) == [c.uid]
    for who in (a, b, c):
        assert cycle_through(registry, who.uid) is None


def test_graph_finds_long_cycle():
    registry = LockRegistry()
    members = ring(registry, 5)
    assert cycle_through(registry, members[0]) == members


def test_self_edges_ignored():
    """a's upgrade queues behind b's shared lock, not behind a's own."""
    registry = LockRegistry()
    a, b = owner(), owner()
    obj = ouids.fresh()
    registry.request(a, obj, LockMode.READ, RED)
    registry.request(b, obj, LockMode.READ, RED)
    registry.request(a, obj, LockMode.WRITE, RED)
    assert blockers_of(registry, a.uid) == [b.uid]
    assert cycle_through(registry, a.uid) is None


def test_walk_hands_each_blocker_waiting_elsewhere_over_once():
    """Three waiters behind one holder: the walk from the last reaches the
    holder by four paths, and hands it over once, on the first."""
    registry = LockRegistry()
    holder, *waiters = [owner() for _ in range(4)]
    obj = ouids.fresh()
    for who in (holder, *waiters):
        registry.request(who, obj, LockMode.WRITE, RED)
    handed = []
    last = waiters[-1].uid
    assert cycle_through(registry, last,
                         elsewhere=lambda *args: handed.append(args)) is None
    assert handed == [(holder.uid, (last,))]


def test_walk_takes_the_path_it_was_handed_as_visited():
    """A chase that reached b by way of a closes the cycle back to a; one
    that came from elsewhere by way of c does not re-enter c."""
    registry = LockRegistry()
    a, b, c = ring(registry, 3)
    assert cycle_through(registry, b, path=(a,)) == [a, b, c]
    handed = []
    assert cycle_through(registry, b, path=(owner().uid, c),
                         elsewhere=lambda *args: handed.append(args)) is None
    assert handed == []


def wait_for(runtime, action, wanted, outcomes):
    """A thread asks for ``wanted`` for ``action`` and, refused as a
    deadlock victim, aborts it.  Returns the thread, once its request
    has queued."""
    def body():
        try:
            wanted.increment(1, action=action)
            outcomes[action.name] = "granted"
        except DeadlockDetected:
            runtime.abort_action(action)
            outcomes[action.name] = "deadlock"

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not runtime.locks.pending_requests_of(action.uid):
        assert thread.is_alive() and time.monotonic() < deadline
        thread.join(0.001)
    return thread


def elder_closes_a_cycle():
    """The younger holds y and waits for x; the elder holds x and asks
    for y, closing the cycle.  Returns the runtime, both actions, both
    objects and the outcomes, once the younger's thread has ended."""
    runtime = LocalRuntime()
    x, y = Counter(runtime, value=0), Counter(runtime, value=0)
    elder = runtime.new_action([runtime.fresh_colour()], parent=None,
                               name="elder")
    younger = runtime.new_action([runtime.fresh_colour()], parent=None,
                                 name="younger")
    assert elder.uid < younger.uid
    outcomes = {}
    x.increment(1, action=elder)
    y.increment(1, action=younger)
    thread = wait_for(runtime, younger, x, outcomes)
    y.increment(1, action=elder)
    thread.join(5)
    assert not thread.is_alive()
    return runtime, elder, younger, (x, y), outcomes


def test_detector_picks_youngest_victim_and_refuses_its_requests():
    """The elder's request closes the cycle, yet the younger is refused."""
    runtime, _elder, younger, _objects, outcomes = elder_closes_a_cycle()
    assert outcomes == {"younger": "deadlock"}
    assert runtime.deadlock_victims() == [younger.uid]


def test_detector_none_when_no_cycle():
    registry = LockRegistry()
    holder, waiter = owner(), owner()
    obj = ouids.fresh()
    registry.request(holder, obj, LockMode.WRITE, RED)
    registry.request(waiter, obj, LockMode.WRITE, RED)
    assert cycle_through(registry, waiter.uid) is None
    assert cycle_through(registry, holder.uid) is None


def test_victim_release_unblocks_survivor():
    """The victim's abort lets the elder's wait through."""
    runtime, elder, _younger, (x, y), _outcomes = elder_closes_a_cycle()
    runtime.commit_action(elder)
    assert (x.value, y.value) == (1, 1)


def test_one_request_breaks_every_cycle_it_closes():
    """Two younger readers of ``shared`` each wait for ``mine``, held by
    the elder; the elder's write on ``shared`` closes two cycles through
    itself.  Neither victim is the requester: both cycles are broken and
    the elder's write goes through."""
    runtime = LocalRuntime()
    mine, shared = Counter(runtime, value=0), Counter(runtime, value=0)
    elder = runtime.new_action([runtime.fresh_colour()], parent=None,
                               name="elder")
    readers = [runtime.new_action([runtime.fresh_colour()], parent=None,
                                  name=f"reader{i}") for i in range(2)]
    outcomes = {}
    mine.increment(1, action=elder)
    threads = []
    for reader in readers:
        shared.get(action=reader)
        threads.append(wait_for(runtime, reader, mine, outcomes))
    shared.increment(1, action=elder)
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == {"reader0": "deadlock", "reader1": "deadlock"}
    assert runtime.deadlock_victims() == [r.uid for r in readers]
    runtime.commit_action(elder)
    assert (mine.value, shared.value) == (1, 1)


# -- the walk against brute force ------------------------------------------

requests = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3),
              st.sampled_from([LockMode.READ, LockMode.WRITE])),
    max_size=24)


def reachable(edges, start):
    """Every node reachable from ``start`` in one step or more."""
    found, frontier = set(), [start]
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    return found


@settings(max_examples=200, deadline=None)
@given(requests)
def test_walk_agrees_with_a_brute_force_graph(script):
    registry = LockRegistry()
    owners = [owner() for _ in range(6)]
    objects = [ouids.fresh() for _ in range(4)]
    for who, obj, mode in script:
        registry.request(owners[who], objects[obj], mode, RED)
    edges = {}
    for table in registry.tables():
        for queued in table.queue:
            edges.setdefault(queued.owner.uid, set()).update(
                table.blocked_on(queued))
    for who in owners:
        handed = []
        cycle = cycle_through(registry, who.uid,
                              elsewhere=lambda b, _chain: handed.append(b))
        assert (cycle is not None) == (who.uid in reachable(edges, who.uid))
        if cycle is not None:
            assert cycle[0] == who.uid
            for waiter, blocker in zip(cycle, cycle[1:] + cycle[:1]):
                assert blocker in edges[waiter]
        assert len(handed) == len(set(handed))
