"""Distributed structures: lifecycle edges and fig. 7 over the cluster."""

import pytest

from repro.cluster.cluster import DEFAULT_CLASSES, Cluster
from repro.cluster.structures import ClusterGluedGroup, ClusterSerializingAction
from repro.errors import InvalidActionState
from repro.locking.modes import LockMode
from repro.objects.lockable import operation
from repro.sim.kernel import Timeout
from repro.stdobjects import Counter
from tests.oracle import committed_int


def make_cluster():
    cluster = Cluster(seed=0)
    for name in ("home", "s1", "s2"):
        cluster.add_node(name)
    return cluster


def test_independent_action_fig7_on_cluster():
    """B commits independently of A across nodes; A's abort spares it."""
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        board = yield from client.create("s1", "counter", value=0)
        own = yield from client.create("s2", "counter", value=0)
        a = client.top_level("A")
        yield from client.invoke(a, own, "increment", 1)
        b = client.independent_top_level(a, name="B")
        yield from client.invoke(b, board, "increment", 1)
        yield from client.commit(b)
        yield from client.abort(a)
        return board, own

    board, own = cluster.run_process("home", app())
    assert committed_int(cluster, board) == 1   # B survived
    assert committed_int(cluster, own) == 0     # A's own work undone


def test_async_independent_on_cluster():
    """Fig. 7(b): the invoked action runs as its own process and commits
    after the invoker has already aborted."""
    cluster = make_cluster()
    client = cluster.client("home")
    refs = {}
    marks = {}

    def setup():
        refs["board"] = yield from client.create("s1", "counter", value=0)

    cluster.run_process("home", setup())

    def invoked(action):
        from repro.sim.kernel import Timeout
        yield Timeout(40.0)  # still running when A ends
        yield from client.invoke(action, refs["board"], "increment", 1)
        yield from client.commit(action)
        marks["b_done"] = cluster.kernel.now

    def invoker():
        a = client.top_level("A")
        b = client.independent_top_level(a, name="B")
        handle = cluster.spawn("home", invoked(b), name="B-body")
        yield from client.abort(a)
        marks["a_done"] = cluster.kernel.now
        yield handle.join()

    cluster.run_process("home", invoker())
    assert marks["a_done"] < marks["b_done"]
    assert committed_int(cluster, refs["board"]) == 1


def test_serializing_constituent_after_close_rejected():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ser = ClusterSerializingAction(client, name="ser")
        yield from ser.close()
        try:
            ser.constituent("late")
            return "accepted"
        except InvalidActionState:
            return "rejected"

    assert cluster.run_process("home", app()) == "rejected"


def test_glued_member_after_close_rejected():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        glue = ClusterGluedGroup(client, name="g")
        yield from glue.close()
        try:
            glue.member("late")
            return "accepted"
        except InvalidActionState:
            return "rejected"

    assert cluster.run_process("home", app()) == "rejected"


def test_glued_cancel_aborts_active_member_but_keeps_committed_work():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        done = yield from client.create("s1", "counter", value=0)
        pending = yield from client.create("s2", "counter", value=0)
        glue = ClusterGluedGroup(client, name="g")
        first = glue.member("A")

        def body():
            yield from client.invoke(first, done, "increment", 1)
            yield from glue.hand_over(first, done)

        yield from client.run_scope(first, body())
        second = glue.member("B")
        yield from client.invoke(second, pending, "increment", 100)
        yield from glue.cancel()   # aborts B, keeps A's committed work
        return done, pending, second.status.value

    done, pending, second_status = cluster.run_process("home", app())
    assert committed_int(cluster, done) == 1
    assert committed_int(cluster, pending) == 0
    assert second_status == "aborted"


def test_nested_serializing_inside_cluster_action():
    """A serializing action nested under an ordinary top-level action."""
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        obj = yield from client.create("s1", "counter", value=0)
        outer = client.top_level("outer")
        ser = ClusterSerializingAction(client, parent=outer, name="ser")
        constituent = ser.constituent("B")

        def body():
            yield from client.invoke(constituent, obj, "increment", 4)

        yield from ser.run_constituent(constituent, body())
        yield from ser.close()
        yield from client.commit(outer)
        return obj

    obj = cluster.run_process("home", app())
    assert committed_int(cluster, obj) == 4


class InspectedCounter(Counter):
    """A counter with an operation that reads under EXCLUSIVE_READ."""

    type_name = "inspected_counter"

    @operation(LockMode.EXCLUSIVE_READ)
    def inspect(self) -> int:
        return self.value


def test_serializing_constituent_exclusive_read_is_retained_exclusively():
    """§5.3 companion rule over the wire: an EXCLUSIVE_READ operation of a
    serializing constituent is shadowed as EXCLUSIVE_READ in the control
    colour (not READ), so no outsider's read interposes before close()."""
    cluster = Cluster(
        seed=0, classes={**DEFAULT_CLASSES,
                         InspectedCounter.type_name: InspectedCounter})
    for name in ("home", "other", "s1"):
        cluster.add_node(name)
    client = cluster.client("home")
    outsider_client = cluster.client("other")
    marks = {}

    def app():
        ref = yield from client.create("s1", "inspected_counter", value=7)
        ser = ClusterSerializingAction(client, name="ser")
        constituent = ser.constituent("B")

        def body():
            yield from client.invoke(constituent, ref, "inspect")

        yield from ser.run_constituent(constituent, body())
        marks["held"] = [
            (holder["owner"], holder["mode"], holder["colour"])
            for image in cluster.servers["s1"].registry.snapshot()["objects"]
            for holder in image["holders"]
        ]
        marks["expected"] = [(str(ser.control.uid), "exclusive_read",
                              str(ser.control_colour))]

        def outsider():
            action = outsider_client.top_level("out")
            value = yield from outsider_client.invoke(action, ref, "get")
            marks["read_at"] = cluster.kernel.now
            yield from outsider_client.commit(action)
            return value

        handle = cluster.spawn("other", outsider(), name="outsider")
        yield Timeout(30.0)
        marks["queued"] = cluster.servers["s1"].registry.snapshot()["queued"]
        marks["closed_at"] = cluster.kernel.now
        yield from ser.close()
        return (yield handle.join())

    assert cluster.run_process("home", app()) == 7
    assert marks["held"] == marks["expected"]
    assert marks["queued"] == 1
    assert marks["read_at"] > marks["closed_at"]


def test_server_builds_no_mirror_for_ancestors_that_never_come():
    """A mirror is built for the acting action only: its ancestors reach a
    server through the context's path, and nobody would ever tell the
    server to retire a mirror of an action that was never involved there."""
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ref = yield from client.create("s1", "counter", value=0)
        for index in range(3):
            parent = client.top_level(f"P{index}")
            child = client.atomic(parent, f"aborting{index}")
            yield from client.invoke(child, ref, "increment", 100)
            yield from client.abort(child)
            yield from client.commit(parent)
        for index in range(3):
            parent = client.top_level(f"Q{index}")
            child = client.independent_top_level(parent, f"committing{index}")
            yield from client.invoke(child, ref, "increment", 1)
            yield from client.commit(child)
            yield from client.commit(parent)
        return ref

    ref = cluster.run_process("home", app())
    assert committed_int(cluster, ref) == 3
    server = cluster.servers["s1"]
    assert server.mirrors == {}
    assert server.status_summary()["mirrors"] == []
    assert cluster.obs.auditor.report() == []
