"""Distributed actions: invoke/commit/abort, 2PC durability, colours, structures."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkConfig
from repro.cluster.structures import ClusterGluedGroup, ClusterSerializingAction
from repro.errors import ActionAborted, InvalidActionState, LockTimeout
from repro.locking.modes import LockMode
from tests.oracle import committed_int


def make_cluster(nodes=("alpha", "beta", "gamma"), seed=0, config=None):
    cluster = Cluster(seed=seed, config=config)
    for name in nodes:
        cluster.add_node(name)
    return cluster


def test_every_tuning_value_reaches_every_component():
    # the components keep no defaults of their own: Cluster passes each one
    cluster = Cluster(lock_wait_timeout=7.0, rpc_timeout=2.0, rpc_retries=5,
                      probe_interval=1.5, fast_paths=False, commute=False)
    cluster.add_node("alpha")
    cluster.add_node("beta")
    for name in ("alpha", "beta"):
        server = cluster.servers[name]
        assert server.lock_wait_timeout == 7.0
        assert server.edge_chaser.probe_interval == 1.5
        transport = cluster.transports[name]
        assert transport.default_timeout == 2.0
        assert transport.default_retries == 5
        assert transport.default_completion_timeout == 7.0 + 3 * 2.0
        client = cluster.client(name)
        assert client.name == f"client@{name}"
        assert (client.fast_paths, client.commute) == (False, False)
    unchased = Cluster(edge_chasing=False)
    unchased.add_node("alpha")
    assert unchased.servers["alpha"].edge_chaser is None


def test_commit_persists_across_nodes():
    cluster = make_cluster()
    client = cluster.client("alpha")

    def app():
        ref1 = yield from client.create("beta", "counter", value=0)
        ref2 = yield from client.create("gamma", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref1, "increment", 5)
        yield from client.invoke(action, ref2, "increment", 7)
        yield from client.commit(action)
        return ref1, ref2

    ref1, ref2 = cluster.run_process("alpha", app())
    assert committed_int(cluster, ref1) == 5
    assert committed_int(cluster, ref2) == 7


def test_abort_restores_remote_state_and_releases_locks():
    cluster = make_cluster()
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=10)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 99)
        yield from client.abort(action)
        reader = client.top_level("r")
        value = yield from client.invoke(reader, ref, "get")
        yield from client.commit(reader)
        return value, ref

    value, ref = cluster.run_process("alpha", app())
    assert value == 10
    assert committed_int(cluster, ref) == 10


def test_uncommitted_state_not_in_stable_store():
    cluster = make_cluster()
    client = cluster.client("alpha")
    holder = {}

    def app():
        ref = yield from client.create("beta", "counter", value=1)
        holder["ref"] = ref
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 100)
        holder["mid"] = committed_int(cluster, ref)
        yield from client.commit(action)

    cluster.run_process("alpha", app())
    assert holder["mid"] == 1  # permanence only at commit
    assert committed_int(cluster, holder["ref"]) == 101


def test_nested_actions_across_nodes():
    cluster = make_cluster()
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        outer = client.top_level("outer")
        inner = client.atomic(outer, "inner")
        yield from client.invoke(inner, ref, "increment", 4)
        yield from client.commit(inner)
        # inner committed into outer; abort outer -> undone
        yield from client.abort(outer)
        reader = client.top_level("r")
        value = yield from client.invoke(reader, ref, "get")
        yield from client.commit(reader)
        return value

    assert cluster.run_process("alpha", app()) == 0


def test_fig10_semantics_on_cluster():
    """Red permanent at B's commit, blue undone by A's abort — distributed."""
    cluster = make_cluster()
    client = cluster.client("alpha")

    def app():
        o_red = yield from client.create("beta", "counter", value=1)
        o_blue = yield from client.create("gamma", "counter", value=2)
        red = client.fresh_colour("red")
        blue = client.fresh_colour("blue")
        a = client.coloured([blue], name="A")
        b = client.coloured([red, blue], parent=a, name="B")
        yield from client.invoke(b, o_red, "increment", 10, colour=red)
        yield from client.invoke(b, o_blue, "increment", 20, colour=blue)
        yield from client.commit(b)
        red_mid = committed_int(cluster, o_red)
        yield from client.abort(a)
        reader = client.top_level("r")
        red_after = yield from client.invoke(reader, o_red, "get")
        blue_after = yield from client.invoke(reader, o_blue, "get")
        yield from client.commit(reader)
        return red_mid, red_after, blue_after

    red_mid, red_after, blue_after = cluster.run_process("alpha", app())
    assert red_mid == 11        # permanent at B's commit
    assert red_after == 11      # survives A's abort
    assert blue_after == 2      # undone by A's abort


def test_lock_conflict_between_clients_resolves_on_commit():
    cluster = make_cluster()
    c1 = cluster.client("alpha", "c1")
    c2 = cluster.client("gamma", "c2")
    trace = []
    actions = {}
    at_beta = []  # (kind, owner, tick) of every lock event at the server
    cluster.obs.bus.subscribe(
        lambda event: event.labels.get("node") == "beta" and at_beta.append(
            (event.kind, event.labels["owner"], cluster.kernel.now)),
        kinds=("lock.blocked", "lock.granted", "lock.released"))

    def writer():
        ref = yield from c1.create("beta", "counter", value=0)
        trace.append(("ref", ref))
        action = actions["w"] = c1.top_level("w")
        yield from c1.invoke(action, ref, "increment", 1)
        trace.append(("locked", cluster.kernel.now))
        from repro.sim.kernel import Timeout
        yield Timeout(30.0)
        yield from c1.commit(action)

    def reader():
        from repro.sim.kernel import Timeout
        while not any(t[0] == "locked" for t in trace):
            yield Timeout(1.0)
        ref = next(t[1] for t in trace if t[0] == "ref")
        action = actions["r"] = c2.top_level("r")
        value = yield from c2.invoke(action, ref, "get", colour=None)
        yield from c2.commit(action)
        return value

    cluster.spawn("alpha", writer())
    handle = cluster.spawn("gamma", reader())
    cluster.run()
    assert handle.result == 1
    # the order the server decided, not two independently drawn reply
    # delays: the READ queued behind the WRITE and was granted only once
    # the writer's commit released it there
    writer_uid, reader_uid = str(actions["w"].uid), str(actions["r"].uid)
    kinds = [(kind, owner) for kind, owner, _tick in at_beta]
    assert ("lock.blocked", reader_uid) in kinds
    released = kinds.index(("lock.released", writer_uid))
    granted = kinds.index(("lock.granted", reader_uid))
    assert released < granted
    assert at_beta[released][2] <= at_beta[granted][2]


def test_epoch_change_aborts_action(  ):
    cluster = make_cluster()
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 1)
        cluster.crash("beta")
        cluster.restart("beta")
        try:
            yield from client.invoke(action, ref, "increment", 1)
            return "unexpected"
        except ActionAborted:
            return action.status.value

    assert cluster.run_process("alpha", app()) == "aborted"


def test_cluster_serializing_action():
    """Distributed fig. 3: constituents permanent, control retains locks."""
    # short lock-wait bound so the blocked outsider read fails fast
    cluster = Cluster(seed=0, lock_wait_timeout=5.0)
    for name in ("alpha", "beta", "gamma"):
        cluster.add_node(name)
    client = cluster.client("alpha")
    other = cluster.client("gamma", "other")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        ser = ClusterSerializingAction(client, name="ser")
        b = ser.constituent("B")

        def b_body():
            yield from client.invoke(b, ref, "increment", 7)

        yield from ser.run_constituent(b, b_body())
        permanent_mid = committed_int(cluster, ref)
        # outsider cannot even read while the control action retains ER
        outsider = other.top_level("out")
        blocked = False
        try:
            yield from other.invoke(outsider, ref, "get")
        except LockTimeout:
            blocked = True
        if not outsider.status.terminated:
            yield from other.abort(outsider)
        yield from ser.cancel()   # the serializing action aborts
        reader = client.top_level("r")
        value = yield from client.invoke(reader, ref, "get")
        yield from client.commit(reader)
        return permanent_mid, blocked, value

    permanent_mid, blocked, value = cluster.run_process("alpha", app())
    assert permanent_mid == 7   # B's effects permanent at B's commit
    assert blocked              # retention until the serializing action ends
    assert value == 7           # and they survive its abort


def test_cluster_glued_group():
    """Distributed fig. 12: pinned object passes member to member."""
    cluster = make_cluster()
    client = cluster.client("alpha")

    def app():
        kept = yield from client.create("beta", "counter", value=0)
        dropped = yield from client.create("gamma", "counter", value=0)
        glue = ClusterGluedGroup(client, name="g")
        a = glue.member("A")

        def a_body():
            yield from client.invoke(a, kept, "increment", 1)
            yield from client.invoke(a, dropped, "increment", 1)
            yield from glue.hand_over(a, kept)

        yield from client.run_scope(a, a_body())
        # dropped is free for outsiders now; kept is pinned
        free_probe = client.top_level("probe")
        yield from client.invoke(free_probe, dropped, "get")
        yield from client.commit(free_probe)
        b = glue.member("B")

        def b_body():
            value = yield from client.invoke(b, kept, "get")
            yield from client.invoke(b, kept, "increment", 10)
            return value

        seen = yield from client.run_scope(b, b_body())
        yield from glue.close()
        reader = client.top_level("r")
        final = yield from client.invoke(reader, kept, "get")
        yield from client.commit(reader)
        return seen, final

    seen, final = cluster.run_process("alpha", app())
    assert seen == 1
    assert final == 11


@pytest.mark.parametrize("ending", ["commit", "abort"])
@pytest.mark.parametrize("factory", [
    lambda client, parent: client.atomic(parent, "child"),
    lambda client, parent: client.coloured(parent.colours, parent=parent),
    lambda client, parent: client.independent_top_level(parent),
], ids=["atomic", "coloured", "independent_top_level"])
def test_cannot_nest_under_terminated_cluster_action(factory, ending):
    """The local runtime's rule, on the cluster: no action is created under
    a parent that has ended — it used to be accepted, its update lost and
    its WRITE lock inherited by nobody who would ever release it."""
    cluster = make_cluster()
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        parent = client.top_level("parent")
        yield from client.invoke(parent, ref, "increment", 1)
        yield from getattr(client, ending)(parent)
        with pytest.raises(InvalidActionState, match="cannot nest under"):
            factory(client, parent)
        assert not client.live_actions
        outsider = client.top_level("outsider")
        yield from client.invoke(outsider, ref, "increment", 1)
        yield from client.commit(outsider)
        return ref

    ref = cluster.run_process("alpha", app())
    assert committed_int(cluster, ref) == (2 if ending == "commit" else 1)
    for server in cluster.servers.values():
        assert server.registry.snapshot()["held"] == 0
    assert cluster.obs.auditor.report() == []
