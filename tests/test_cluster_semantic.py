"""Type-specific concurrency control over the cluster."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.structures import ClusterSerializingAction
from repro.errors import LockingError, LockTimeout
from repro.locking.modes import LockMode
from repro.sim.kernel import Timeout
from tests.oracle import committed_int


def make_cluster(lock_wait_timeout=20.0):
    cluster = Cluster(seed=0, lock_wait_timeout=lock_wait_timeout)
    for name in ("c1", "c2", "server"):
        cluster.add_node(name)
    return cluster


def test_remote_commuting_updates_do_not_block():
    """Two clients on different nodes add to one counter concurrently;
    neither waits for the other."""
    cluster = make_cluster()
    c1 = cluster.client("c1", "c1")
    c2 = cluster.client("c2", "c2")
    refs = {}
    times = {}

    def setup():
        refs["ctr"] = yield from c1.create("server", "commuting_counter", value=0)

    def updater(client, label, amount, hold):
        action = client.top_level(label)
        yield from client.invoke(action, refs["ctr"], "add", amount)
        times[f"{label}-locked"] = cluster.kernel.now
        yield Timeout(hold)
        yield from client.commit(action)
        times[f"{label}-done"] = cluster.kernel.now

    cluster.run_process("c1", setup())
    cluster.spawn("c1", updater(c1, "u1", 1, hold=50.0))
    cluster.spawn("c2", updater(c2, "u2", 10, hold=5.0))
    cluster.run()
    # u2 locked while u1 still held its update lock: no blocking
    assert times["u2-locked"] < times["u1-done"]
    assert committed_int(cluster, refs["ctr"]) == 11


def test_remote_abort_compensates_only_own_operations():
    cluster = make_cluster()
    c1 = cluster.client("c1", "c1")
    c2 = cluster.client("c2", "c2")
    refs = {}

    def setup():
        refs["ctr"] = yield from c1.create("server", "commuting_counter", value=100)

    cluster.run_process("c1", setup())

    def scenario():
        a = c1.top_level("a")
        yield from c1.invoke(a, refs["ctr"], "add", 1)
        b = c2.top_level("b")
        yield from c2.invoke(b, refs["ctr"], "add", 10)
        yield from c2.commit(b)          # B's +10 committed
        yield from c1.abort(a)           # A compensates only its +1
        reader = c1.top_level("r")
        value = yield from c1.invoke(reader, refs["ctr"], "get")
        yield from c1.commit(reader)
        return value

    assert cluster.run_process("c1", scenario()) == 110


def test_remote_observer_conflicts_with_updater():
    cluster = make_cluster(lock_wait_timeout=5.0)
    c1 = cluster.client("c1", "c1")
    c2 = cluster.client("c2", "c2")
    refs = {}

    def setup():
        refs["ctr"] = yield from c1.create("server", "commuting_counter", value=0)

    cluster.run_process("c1", setup())

    def scenario():
        updater = c1.top_level("u")
        yield from c1.invoke(updater, refs["ctr"], "add", 1)
        reader = c2.top_level("r")
        try:
            yield from c2.invoke(reader, refs["ctr"], "get")
            blocked = False
        except LockTimeout:
            blocked = True
            yield from c2.abort(reader)
        yield from c1.commit(updater)
        return blocked

    assert cluster.run_process("c1", scenario()) is True


def test_remote_semantic_in_serializing_action_retained():
    """The companion retain-group pin works across the wire."""
    cluster = make_cluster(lock_wait_timeout=5.0)
    c1 = cluster.client("c1", "c1")
    c2 = cluster.client("c2", "c2")
    refs = {}

    def setup():
        refs["ctr"] = yield from c1.create("server", "commuting_counter", value=0)

    cluster.run_process("c1", setup())

    def scenario():
        ser = ClusterSerializingAction(c1, name="ser")
        constituent = ser.constituent("B")

        def body():
            yield from c1.invoke(constituent, refs["ctr"], "add", 5)

        yield from ser.run_constituent(constituent, body())
        # even another *updater* is blocked: the retain pin conflicts with
        # everything, not just observers
        outsider = c2.top_level("out")
        try:
            yield from c2.invoke(outsider, refs["ctr"], "add", 1)
            blocked = False
        except LockTimeout:
            blocked = True
            yield from c2.abort(outsider)
        yield from ser.close()
        after = c2.top_level("after")
        yield from c2.invoke(after, refs["ctr"], "add", 1)
        yield from c2.commit(after)
        return blocked

    assert cluster.run_process("c1", scenario()) is True
    assert committed_int(cluster, refs["ctr"]) == 6


def test_remote_commuting_counter_survives_crash_of_committed_state():
    cluster = make_cluster()
    c1 = cluster.client("c1", "c1")
    refs = {}

    def setup_and_commit():
        refs["ctr"] = yield from c1.create("server", "commuting_counter", value=0)
        action = c1.top_level("t")
        yield from c1.invoke(action, refs["ctr"], "add", 7)
        yield from c1.commit(action)

    cluster.run_process("c1", setup_and_commit())
    cluster.crash("server")
    cluster.restart("server")

    def read():
        action = c1.top_level("r")
        value = yield from c1.invoke(action, refs["ctr"], "get")
        yield from c1.commit(action)
        return value

    assert cluster.run_process("c1", read()) == 7


def test_lock_rpc_in_the_other_kind_of_mode_is_refused_by_the_rule_set():
    """A ``lock`` RPC's mode is wire input: a group name sent to an object
    locked by data modes, or a data mode sent to one locked by groups, is
    refused with the rule set's reason — nothing is installed, the server
    keeps serving and the owner's next ordinary operation succeeds."""
    cluster = make_cluster()
    c1 = cluster.client("c1", "c1")

    def scenario():
        plain = yield from c1.create("server", "counter", value=0)
        commuting = yield from c1.create("server", "commuting_counter", value=0)
        action = c1.top_level("t")
        reasons = []
        for ref, mode in ((plain, "update"), (commuting, LockMode.WRITE)):
            try:
                yield from c1.lock(action, ref, mode)
            except LockingError as error:
                reasons.append(str(error))
        held = cluster.servers["server"].registry.snapshot()["held"]
        yield from c1.invoke(action, plain, "increment", 1)
        yield from c1.invoke(action, commuting, "add", 2)
        yield from c1.commit(action)
        return plain, commuting, reasons, held

    plain, commuting, reasons, held = cluster.run_process("c1", scenario())
    assert len(reasons) == 2
    assert "not by operation group 'update'" in reasons[0]
    assert "unknown operation group 'write'" in reasons[1]
    assert held == 0
    assert committed_int(cluster, plain) == 1
    assert committed_int(cluster, commuting) == 2


def test_status_query_answers_while_group_locks_are_held():
    """Group locks live in the same table as data-mode locks, so the
    introspection snapshot lists them, the group name as the mode."""
    cluster = make_cluster()
    c1 = cluster.client("c1", "c1")

    def scenario():
        ref = yield from c1.create("server", "commuting_counter", value=0)
        action = c1.top_level("t")
        yield from c1.invoke(action, ref, "add", 1)
        reply = yield from cluster.transports["c1"].call(
            "server", "status_query", {})
        yield from c1.commit(action)
        return action, reply["status"]["locks"]

    action, locks = cluster.run_process("c1", scenario())
    assert locks["held"] == 1
    assert locks["objects"][0]["holders"] == [
        {"owner": str(action.uid), "mode": "update",
         "colour": str(action.lock_colour())}]
