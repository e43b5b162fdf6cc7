"""What a lock wait costs, and when it ends.

A queued request's deadline follows its blocker set: a wait whose queue
moves by commits and grants starts its ``lock_wait_timeout`` afresh, and a
wait that stops moving — behind a partitioned holder, or in a cycle —
times out ``lock_wait_timeout`` after it last moved, with chasing on or
off.  A request that waits less than half an rpc timeout is never acked:
it costs its request and its reply.  And a deadlock victim is refused
wherever it waits, whichever server closes the cycle on it.  The
single-wait cases run on both execution backends under one test id each.
"""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import LockTimeout
from repro.sim.kernel import Timeout
from tests.oracle import (BACKENDS, FIXED, Over, cluster_of,
                          on_both_backends)

TIMEOUT = 20.0


def lock_events(cluster, kind):
    """``(tick, owner)`` of every ``kind`` lock event from now on."""
    seen = []
    cluster.obs.bus.subscribe(
        lambda event: seen.append((event.tick, event.labels["owner"])),
        kinds=[kind])
    return seen


def one_server(backend, edge_chasing):
    return cluster_of(("h", "w", "s"), config=FIXED, backend=backend,
                      edge_chasing=edge_chasing, probe_interval=3.0,
                      lock_wait_timeout=TIMEOUT)


def hold(client, ref, label, pause):
    """Increment ``ref`` in a fresh action, keep its lock ``pause`` units,
    then commit."""
    action = client.top_level(label)
    yield from client.invoke(action, ref, "increment", 1)
    yield Timeout(pause)
    yield from client.commit(action)


def wait_in_line(client, ref, outcome):
    """Queue behind the holders; note how the action ended."""
    action = client.top_level("waiter")
    try:
        yield from client.invoke(action, ref, "increment", 1)
        yield from client.commit(action)
        outcome.append("committed")
    except LockTimeout:
        outcome.append("timed out")
        yield from client.abort(action)


def on_both_backends_chasing_on_and_off(body):
    """Run ``body(backend, edge_chasing)`` once per backend under one test
    id per ``edge_chasing``."""
    @pytest.mark.parametrize("edge_chasing", [True, False])
    def test(edge_chasing):
        for make in BACKENDS:
            with make() as backend:
                body(backend, edge_chasing)
    test.__name__, test.__doc__ = body.__name__, body.__doc__
    return test


@on_both_backends_chasing_on_and_off
def test_a_wait_behind_a_partitioned_holder_times_out_when_queued_plus_timeout(
        backend, edge_chasing):
    """The holder's home is cut off from the server: its blockers never
    change, so the waiter is refused exactly ``lock_wait_timeout`` after it
    queued."""
    cluster = one_server(backend, edge_chasing)
    holder, waiter = cluster.client("h"), cluster.client("w")
    blocked = lock_events(cluster, "lock.blocked")
    refused = lock_events(cluster, "lock.refused")
    outcome = []

    def app():
        ref = yield from waiter.create("s", "counter", value=0)
        cluster.spawn("h", hold(holder, ref, "holder", 200.0))
        yield Timeout(5.0)
        cluster.network.partition("h", "s")
        yield from wait_in_line(waiter, ref, outcome)

    cluster.run_process("w", app())
    assert outcome == ["timed out"]
    (queued, _), = blocked
    (timed_out, _), = refused
    assert timed_out - queued == pytest.approx(TIMEOUT, abs=0.5)
    cluster.close()


@on_both_backends_chasing_on_and_off
def test_a_wait_behind_a_moving_queue_outlasts_the_timeout_and_commits(
        backend, edge_chasing):
    """Three holders queue one after another, each keeping the lock 10
    units: the waiter behind them waits about 35 units, longer than the
    20-unit timeout, and commits."""
    cluster = one_server(backend, edge_chasing)
    holders, waiter = cluster.client("h"), cluster.client("w")
    granted = lock_events(cluster, "lock.granted")
    blocked = lock_events(cluster, "lock.blocked")
    outcome = []

    def app():
        ref = yield from waiter.create("s", "counter", value=0)
        for index in range(3):
            cluster.spawn("h", hold(holders, ref, f"holder{index}", 10.0))
        yield Timeout(0.5)
        yield from wait_in_line(waiter, ref, outcome)

    cluster.run_process("w", app())
    cluster.run()
    assert outcome == ["committed"]
    waiter_uid = blocked[-1][1]
    (queued, _), = [event for event in blocked if event[1] == waiter_uid]
    (got, _), = [event for event in granted if event[1] == waiter_uid]
    assert got - queued > TIMEOUT
    cluster.close()


@on_both_backends
def test_a_wait_shorter_than_half_a_timeout_is_never_acked(backend):
    """The waiter queues behind a holder that commits within three units:
    its invoke costs a request and a reply, and nobody sends an ack."""
    cluster = one_server(backend, True)
    holder, waiter = cluster.client("h"), cluster.client("w")
    blocked = lock_events(cluster, "lock.blocked")
    sent = []
    outcome = []

    def app():
        ref = yield from waiter.create("s", "counter", value=0)
        cluster.spawn("h", hold(holder, ref, "holder", 2.0))
        yield Timeout(1.5)
        Over(cluster.network, lambda message: sent.append(message.kind))
        yield from wait_in_line(waiter, ref, outcome)

    cluster.run_process("w", app())
    cluster.run()
    assert outcome == ["committed"] and len(blocked) == 1
    assert "rpc_ack" not in sent
    cluster.close()


# -- deadlock victims are refused where they wait -------------------------------


def on_cycle(edges):
    """The owners that lie on a cycle of the waits-for graph ``edges``."""
    members = set()
    for start in edges:
        stack, seen = list(edges[start]), set()
        while stack:
            uid = stack.pop()
            if uid == start:
                members.add(start)
                break
            if uid not in seen:
                seen.add(uid)
                stack.extend(edges.get(uid, ()))
    return members


class CycleWatch:
    """Since when each owner has been on a cycle of the global waits-for
    graph, read from every server's lock tables just after each lock
    event; and, at each lock-wait timeout, how long its waiter had been
    on one."""

    def __init__(self, cluster):
        self.cluster, self.since, self.timeouts = cluster, {}, []
        #: how long each stay on a cycle lasted (the mean stay that
        #: EXPERIMENTS.md Appendix AI reports over seeds 1-30)
        self.spells = []
        cluster.obs.bus.subscribe(self._event)

    def _event(self, event):
        if not event.kind.startswith("lock."):
            return
        if (event.kind == "lock.refused"
                and event.labels.get("error") == "LockTimeout"):
            since = self.since.get(event.labels["owner"])
            self.timeouts.append(
                0.0 if since is None else event.tick - since)
        self.cluster.kernel.schedule(0.0, self._read)

    def _read(self):
        edges = {}
        for server in self.cluster.servers.values():
            for table in server.registry.tables():
                for queued in table.queue:
                    edges.setdefault(str(queued.owner.uid), set()).update(
                        str(uid) for uid in table.blocked_on(queued))
        now, members = self.cluster.kernel.now, on_cycle(edges)
        for uid in [uid for uid in self.since if uid not in members]:
            self.spells.append(now - self.since.pop(uid))
        for uid in members:
            self.since.setdefault(uid, now)


def abba_run(seed, objects):
    """``benchmarks/scenarios._contention_run``'s abba variant: six
    workers on ``n0``–``n2``, five actions each, every one incrementing
    two counters in sampled order."""
    cluster = Cluster(seed=seed, lock_wait_timeout=40.0)
    nodes = ("n0", "n1", "n2")
    for name in nodes:
        cluster.add_node(name)
    watch = CycleWatch(cluster)
    refs, committed = [], []

    def setup():
        client = cluster.client("n0")
        for index in range(objects):
            refs.append((yield from client.create(
                nodes[index % len(nodes)], "counter", value=0)))

    cluster.run_process("n0", setup())

    def worker(worker_id):
        client = cluster.client(nodes[worker_id % len(nodes)],
                                name=f"w{worker_id}")
        rng = random.Random(seed * 1000 + worker_id)
        for op in range(5):
            action = client.top_level(f"w{worker_id}.op{op}")
            try:
                for ref in rng.sample(refs, k=2):
                    yield from client.invoke(action, ref, "increment", 1)
                yield from client.commit(action)
                committed.append(action)
            except Exception:
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(1.0 + rng.random())

    for worker_id in range(6):
        cluster.spawn(nodes[worker_id % len(nodes)], worker(worker_id))
    cluster.run()
    return watch, len(committed)


@pytest.mark.parametrize("objects, seed",
                         [(2, 10), (3, 2), (3, 7), (3, 11), (3, 18)])
def test_no_lock_wait_timeout_refuses_a_waiter_long_on_a_cycle(objects, seed):
    """Clients homed on server nodes: a cycle closed on a victim that
    waits at another server, or that the detecting server has no mirror
    of, is broken through the victim's home — not left to the timeout.
    ``(3, 18)`` is where such a cycle outlives 20 units even once moving
    waits no longer time out."""
    watch, committed = abba_run(seed, objects)
    assert committed > 0
    assert all(age <= 20.0 for age in watch.timeouts), watch.timeouts
