"""Distributed deadlock detection: edge-chasing probes across servers.

When the chaser speaks: a wait is chased once it is one ``probe_interval``
old, and again only when its blockers change; a blocker or victim queued
at the chasing server is handled there, without a probe, each once per
chase, and a blocker PREPARED there is not chased at all.  The one timer chain that watches
a wait and keeps its deadline ends once the wait settles or its server
restarts.  The cycle cases run on both execution backends under one
test id each.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.message import decode_uid
from repro.cluster.network import LOST
from repro.errors import DeadlockDetected, LockTimeout
from repro.sim.kernel import Timeout
from tests.oracle import FIXED, Over, cluster_of, on_both_backends


def make_cluster(edge_chasing=True, lock_wait_timeout=600.0, backend=None,
                 config=None, nodes=("home1", "home2", "s1", "s2")):
    """Long wait timeout so only the probes (not the backstop) can break
    cycles within the test horizon."""
    cluster = Cluster(seed=0, edge_chasing=edge_chasing,
                      lock_wait_timeout=lock_wait_timeout,
                      probe_interval=3.0, backend=backend, config=config)
    for name in nodes:
        cluster.add_node(name)
    return cluster


def tap_probes(cluster, drop=False):
    """``(src, target uid)`` of every ``dl_probe`` sent, in order; with
    ``drop`` each one is lost on the way."""
    probes = []

    def decide(message):
        if message.kind == "dl_probe":
            probes.append((message.src,
                           decode_uid(message.payload["target"])))
            return LOST if drop else None
        return None

    Over(cluster.network, decide)
    return probes


def cycles_detected(cluster):
    """Cycles the edge chasers closed, from ``deadlock_cycles_total``."""
    return sum(counter.value for _labels, counter
               in cluster.obs.metrics.series("deadlock_cycles_total"))


def finish(cluster, handles, limit):
    """Run until every process in ``handles`` has ended; returns now."""
    for handle in handles:
        cluster.kernel.run_until_settled(handle.join(), limit=limit)
    return cluster.kernel.now


def worker(client, label, refs, first, second, results, actions=None):
    """Lock ``first``, pause so every worker holds its first lock, lock
    ``second``, commit; a refusal is recorded and the action aborted."""
    action = client.top_level(label)
    if actions is not None:
        actions[label] = action
    try:
        yield from client.invoke(action, refs[first], "increment", 1)
        yield Timeout(5.0)  # ensure every worker holds its first lock
        yield from client.invoke(action, refs[second], "increment", 1)
        yield from client.commit(action)
        results[label] = "committed"
    except (DeadlockDetected, LockTimeout) as error:
        results[label] = type(error).__name__
        if not action.status.terminated:
            yield from client.abort(action)


def cross_server_deadlock(cluster, results):
    """Client 1 (home1): lock obj1@s1 then obj2@s2.
    Client 2 (home2): lock obj2@s2 then obj1@s1 — a 2-cycle across servers."""
    c1 = cluster.client("home1", "c1")
    c2 = cluster.client("home2", "c2")
    refs = {}

    def setup():
        refs["obj1"] = yield from c1.create("s1", "counter", value=0)
        refs["obj2"] = yield from c1.create("s2", "counter", value=0)

    cluster.run_process("home1", setup())
    h1 = cluster.spawn("home1", worker(c1, "t1", refs, "obj1", "obj2",
                                       results))
    h2 = cluster.spawn("home2", worker(c2, "t2", refs, "obj2", "obj1",
                                       results))
    return h1, h2, refs


@on_both_backends
def test_edge_chasing_breaks_cross_server_cycle(backend):
    cluster = make_cluster(edge_chasing=True, backend=backend)
    results = {}
    h1, h2, refs = cross_server_deadlock(cluster, results)
    # exactly one victim (the youngest), and the survivor commits — within
    # the 400-unit horizon, far inside the 600-unit timeout backstop.
    assert finish(cluster, [h1, h2], limit=400) < 400
    assert not h1.alive and not h2.alive
    outcomes = sorted(results.values())
    assert outcomes == ["DeadlockDetected", "committed"]
    assert cycles_detected(cluster) >= 1


def test_without_edge_chasing_only_timeout_breaks_it():
    """The contrast: with only the timeout backstop, *both* symmetric
    waiters expire — the blunt instrument cannot pick a single victim, so
    the whole episode's work is lost (this is why the probes exist)."""
    cluster = make_cluster(edge_chasing=False, lock_wait_timeout=50.0)
    results = {}
    h1, h2, refs = cross_server_deadlock(cluster, results)
    cluster.run(until=600)
    assert not h1.alive and not h2.alive
    outcomes = sorted(results.values())
    assert outcomes == ["LockTimeout", "LockTimeout"]


def test_lost_probes_leave_the_cycle_to_the_lock_wait_timeout():
    """Every ``dl_probe`` lost: nothing re-sends it while the blockers stay
    the same, and the lock-wait timeout breaks the cycle instead."""
    cluster = make_cluster(edge_chasing=True, lock_wait_timeout=50.0)
    probes = tap_probes(cluster, drop=True)
    results = {}
    h1, h2, refs = cross_server_deadlock(cluster, results)
    assert finish(cluster, [h1, h2], limit=200) < 200
    assert probes  # the chase was attempted, and lost
    assert "LockTimeout" in results.values()
    assert "DeadlockDetected" not in results.values()
    assert cycles_detected(cluster) == 0


def contention(hold):
    """home1's holder keeps obj@s1 for ``hold`` units after its lock comes
    back; home2's waiter queues for obj meanwhile (fixed one-unit delays:
    it queues at 2.5, the holder's commit releases at ``hold`` + 3).
    Returns the outcomes, how long the waiter queued at s1, and the
    probes sent."""
    cluster = make_cluster(edge_chasing=True, config=FIXED)
    probes = tap_probes(cluster)
    c1 = cluster.client("home1", "c1")
    c2 = cluster.client("home2", "c2")
    results = {}
    refs = {}

    def setup():
        refs["obj"] = yield from c1.create("s1", "counter", value=0)

    def holder():
        action = c1.top_level("holder")
        yield from c1.invoke(action, refs["obj"], "increment", 1)
        yield Timeout(hold)
        yield from c1.commit(action)
        results["holder"] = "committed"

    def waiter():
        yield Timeout(1.5)
        action = c2.top_level("waiter")
        yield from c2.invoke(action, refs["obj"], "increment", 10)
        yield from c2.commit(action)
        results["waiter"] = "committed"

    cluster.run_process("home1", setup())
    cluster.spawn("home1", holder())
    cluster.spawn("home2", waiter())
    cluster.run()
    assert cluster.servers["s1"].lock_waits == 1
    waited = sum(histogram.total for _labels, histogram
                 in cluster.obs.metrics.series("lock_wait_time"))
    return results, waited, probes


def test_probes_do_not_disturb_contention_without_cycle():
    """Plain contention (no cycle): the waiter gets the lock when the
    holder commits; nobody is aborted by a probe."""
    results, _waited, _probes = contention(hold=30.0)
    assert results == {"holder": "committed", "waiter": "committed"}


def test_a_wait_shorter_than_the_probe_interval_sends_no_probe():
    results, waited, probes = contention(hold=1.0)
    assert results["waiter"] == "committed"
    assert 0 < waited < 3.0
    assert probes == []


def test_a_long_wait_with_unchanged_blockers_is_chased_once():
    """Queued for nine intervals behind a holder that never waits: one
    chase round — one probe to the holder's home, which ends it there —
    and not one per interval."""
    results, waited, probes = contention(hold=27.0)
    assert results["waiter"] == "committed"
    assert waited > 9 * 3.0
    assert len(probes) == 1 and probes[0][0] == "s1"


def test_a_queue_behind_one_holder_sends_a_probe_per_waiter():
    """Ten waiters queue at s1 behind a holder that runs on: each chase
    walks the queue ahead of its waiter once, so the holder's home gets
    one probe per waiter, not one per path through the queue."""
    cluster = make_cluster(edge_chasing=True, config=FIXED)
    probes = tap_probes(cluster)
    c1 = cluster.client("home1", "c1")
    c2 = cluster.client("home2", "c2")
    refs = {}
    results = {}

    def setup():
        refs["obj"] = yield from c1.create("s1", "counter", value=0)

    def holder():
        action = c1.top_level("holder")
        yield from c1.invoke(action, refs["obj"], "increment", 1)
        yield Timeout(40.0)
        yield from c1.commit(action)
        results["holder"] = "committed"

    def waiter(index):
        yield Timeout(1.5 + 0.1 * index)
        action = c2.top_level(f"waiter{index}")
        yield from c2.invoke(action, refs["obj"], "increment", 1)
        yield from c2.commit(action)
        results[f"waiter{index}"] = "committed"

    cluster.run_process("home1", setup())
    cluster.spawn("home1", holder())
    for index in range(10):
        cluster.spawn("home2", waiter(index))
    cluster.run()
    assert cluster.servers["s1"].lock_waits == 10
    assert set(results.values()) == {"committed"} and len(results) == 11
    assert 0 < len(probes) <= 10


def prepared_holder(backend, edge_chasing=True):
    """The holder writes x@s1 and y@s2 and commits: s1 gets the classic
    prepare (PREPARED at t = 5), s2 the decision.  Its finish to s1 is
    lost until t = 26, so the waiter queues at s1 (t = 6.5) behind a
    holder that is committing and waits for nothing, and gets x once the
    finish lands.  Returns the cluster, the probes sent and when the
    last action committed; both actions have committed."""
    cluster = make_cluster(edge_chasing=edge_chasing, config=FIXED,
                           backend=backend)
    c1 = cluster.client("home1", "c1")
    c2 = cluster.client("home2", "c2")
    refs = {}
    results = {}
    committed_at = []

    def setup():
        refs["x"] = yield from c1.create("s1", "counter", value=0)
        refs["y"] = yield from c1.create("s2", "counter", value=0)

    cluster.run_process("home1", setup())
    start = cluster.kernel.now
    probes = tap_probes(cluster)
    Over(cluster.network, lambda message: LOST if (
        message.dst == "s1" and message.kind == "rpc_batch"
        and cluster.kernel.now < start + 26) else None)

    def holder():
        action = c1.top_level("holder")
        yield from c1.invoke(action, refs["x"], "increment", 1)
        yield from c1.invoke(action, refs["y"], "increment", 1)
        yield from c1.commit(action)
        results["holder"] = "committed"
        committed_at.append(cluster.kernel.now)

    def waiter():
        yield Timeout(5.5)
        action = c2.top_level("waiter")
        yield from c2.invoke(action, refs["x"], "increment", 10)
        yield from c2.commit(action)
        results["waiter"] = "committed"
        committed_at.append(cluster.kernel.now)

    handles = [cluster.spawn("home1", holder()),
               cluster.spawn("home2", waiter())]
    assert finish(cluster, handles, limit=start + 100) < start + 100
    assert results == {"holder": "committed", "waiter": "committed"}
    assert cluster.servers["s1"].lock_waits == 1
    return cluster, probes, max(committed_at)


@on_both_backends
def test_a_holder_prepared_at_the_chasing_server_gets_no_probe(backend):
    """No probe goes to a PREPARED holder's home."""
    _cluster, probes, _committed = prepared_holder(backend)
    assert probes == []


@on_both_backends
def test_a_granted_wait_stops_holding_the_clock(backend):
    """The wait's timer chain ends within one interval of its grant, so
    ``run()`` drains soon after the last commit rather than at the
    600-unit lock-wait deadline — with edge chasing on and off."""
    for edge_chasing in (True, False):
        cluster, _probes, committed = prepared_holder(backend, edge_chasing)
        drained = cluster.run()
        assert drained - committed <= (cluster.probe_interval
                                       + cluster.rpc_timeout)


def test_a_wait_from_before_a_restart_refuses_nothing_after_it():
    """B queues behind A at s1 (t = 1.5), then s1 crashes and restarts.
    Its new lock registry numbers requests from 1 again, so D, queued
    behind C at t = 13, has the id B's request had.  B's wait died with
    the crash: its deadline (t = 41.5) must not refuse D, which gets x
    when C commits."""
    cluster = cluster_of(("home1", "home2", "s1"), config=FIXED,
                         lock_wait_timeout=40.0, rpc_timeout=100.0)
    c1 = cluster.client("home1", "c1")
    c2 = cluster.client("home2", "c2")
    refs = {}
    results = {}

    def setup():
        refs["x"] = yield from c1.create("s1", "counter", value=0)

    cluster.run_process("home1", setup())
    start = cluster.kernel.now

    def body(client, label, delay, hold):
        yield Timeout(delay)
        action = client.top_level(label)
        try:
            yield from client.invoke(action, refs["x"], "increment", 1)
            yield Timeout(hold)
            yield from client.commit(action)
            results[label] = "committed"
        except LockTimeout:
            results[label] = "LockTimeout"

    cluster.spawn("home1", body(c1, "A", 0.0, 1000.0))
    cluster.spawn("home2", body(c2, "B", 0.5, 0.0))
    cluster.crash_at("s1", start + 5)
    cluster.restart_at("s1", start + 6)
    cluster.spawn("home1", body(c1, "C", 10.0, 35.0))
    waiter = cluster.spawn("home2", body(c2, "D", 12.0, 0.0))
    cluster.kernel.run_until_settled(waiter.join(), limit=start + 100)
    assert results == {"C": "committed", "D": "committed"}


def test_a_cycle_closed_by_inheritance_alone_is_detected():
    """§5.3 closes the cycle without a request queueing.  The parent P
    waits at s2 on W; W waits at s1 on P's running child C; C commits and
    passes its lock on X to P.  Only W's blockers at s1 changed ({C} →
    {P}); the chase that change triggers finds P → W → P."""
    cluster = make_cluster(edge_chasing=True)
    cp = cluster.client("home1", "cp")
    cw = cluster.client("home2", "cw")
    refs = {}
    results = {}

    def setup():
        refs["X"] = yield from cp.create("s1", "counter", value=0)
        refs["Y"] = yield from cp.create("s2", "counter", value=0)

    cluster.run_process("home1", setup())
    parent = cp.top_level("P")
    start = cluster.kernel.now

    def child():
        action = cp.atomic(parent, "C")
        yield from cp.invoke(action, refs["X"], "increment", 1)
        yield Timeout(30.0)  # P and W queue meanwhile
        yield from cp.commit(action)
        results["C"] = "committed"

    def parent_body():
        yield Timeout(10.0)  # after W holds Y
        try:
            yield from cp.invoke(parent, refs["Y"], "increment", 1)
            yield from cp.commit(parent)
            results["P"] = "committed"
        except DeadlockDetected as error:
            results["P"] = type(error).__name__
            yield from cp.abort(parent)

    def w_body():
        action = cw.top_level("W")
        try:
            yield from cw.invoke(action, refs["Y"], "increment", 1)
            yield Timeout(8.0)  # after C holds X
            yield from cw.invoke(action, refs["X"], "increment", 1)
            yield from cw.commit(action)
            results["W"] = "committed"
        except DeadlockDetected as error:
            results["W"] = type(error).__name__
            yield from cw.abort(action)

    handles = [cluster.spawn("home1", child()),
               cluster.spawn("home1", parent_body()),
               cluster.spawn("home2", w_body())]
    resolved = finish(cluster, handles, limit=start + 600) - start
    assert results["C"] == "committed"
    assert sorted([results["P"], results["W"]]) == \
        ["DeadlockDetected", "committed"]
    assert resolved < 60  # C's commit reaches s1 at ~34; the timeout is 600


def three_party_cycle(servers, backend=None):
    """t1 locks A then B, t2 B then C, t3 C then A, each from its own home;
    ``servers`` says where A, B and C live.  Returns the outcomes, the
    actions and the probes sent."""
    homes = ("h1", "h2", "h3")
    cluster = make_cluster(backend=backend,
                           nodes=homes + tuple(dict.fromkeys(servers)))
    probes = tap_probes(cluster)
    clients = {f"t{i}": cluster.client(f"h{i}", f"c{i}") for i in (1, 2, 3)}
    refs = {}
    results = {}
    actions = {}

    def setup():
        bootstrap = cluster.client("h1", "setup")
        for name, server in zip("ABC", servers):
            refs[name] = yield from bootstrap.create(server, "counter",
                                                     value=0)

    cluster.run_process("h1", setup())
    handles = [
        cluster.spawn(f"h{i}", worker(clients[f"t{i}"], f"t{i}", refs,
                                      first, second, results, actions))
        for i, (first, second) in enumerate(
            [("A", "B"), ("B", "C"), ("C", "A")], start=1)]
    assert finish(cluster, handles, limit=500) < 500
    return results, actions, probes


@on_both_backends
def test_three_party_cycle_detected(backend):
    """A 3-cycle across three servers and three homes."""
    results, _actions, _probes = three_party_cycle(("sA", "sB", "sC"),
                                                   backend)
    outcomes = sorted(results.values())
    assert outcomes.count("committed") >= 1
    assert "DeadlockDetected" in outcomes
    assert len(results) == 3  # nobody left hanging


def test_a_blocker_queued_at_the_chasing_server_is_followed_in_place():
    """A and B on s1, C on s2: t1 (on B) and t3 (on A) both queue at s1,
    t2 (on C) at s2.  Every chase reaching t1 does so at s1 and follows it
    there — no probe ever names t1 — and the cycle still resolves to one
    victim."""
    results, actions, probes = three_party_cycle(("s1", "s1", "s2"))
    assert sorted(results.values()) == \
        ["DeadlockDetected", "committed", "committed"]
    assert probes  # the edges between s1 and s2 still go by probe
    assert actions["t1"].uid not in {target for _src, target in probes}
