"""Edge cases of the cluster client API: misuse, partitions, colours."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import LOST
from repro.errors import (
    ClusterError,
    InvalidActionState,
    LockTimeout,
    ObjectNotFound,
    RpcTimeout,
)
from repro.sim.kernel import Timeout
from tests.oracle import Over


def make_cluster(**kwargs):
    cluster = Cluster(seed=0, **kwargs)
    for name in ("home", "server", "other"):
        cluster.add_node(name)
    return cluster


def test_invoke_on_terminated_action_rejected():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ref = yield from client.create("server", "counter", value=0)
        action = client.top_level("t")
        yield from client.commit(action)
        try:
            yield from client.invoke(action, ref, "increment", 1)
            return "ran"
        except InvalidActionState:
            return "rejected"

    assert cluster.run_process("home", app()) == "rejected"


def test_commit_twice_rejected():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        action = client.top_level("t")
        yield from client.commit(action)
        try:
            yield from client.commit(action)
            return "ran"
        except InvalidActionState:
            return "rejected"

    assert cluster.run_process("home", app()) == "rejected"


def test_abort_idempotent():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        action = client.top_level("t")
        yield from client.abort(action)
        outcome = yield from client.abort(action)
        return outcome

    from repro.actions.status import Outcome
    assert cluster.run_process("home", app()) is Outcome.ABORTED


def test_invoke_with_foreign_colour_rejected():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ref = yield from client.create("server", "counter", value=0)
        action = client.top_level("t")
        stray = client.fresh_colour("stray")
        try:
            yield from client.invoke(action, ref, "increment", 1, colour=stray)
            return "ran"
        except InvalidActionState:
            yield from client.abort(action)
            return "rejected"

    assert cluster.run_process("home", app()) == "rejected"


def test_invoke_unknown_method_rejected():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ref = yield from client.create("server", "counter", value=0)
        action = client.top_level("t")
        try:
            yield from client.invoke(action, ref, "frobnicate")
            return "ran"
        except ClusterError:
            yield from client.abort(action)
            return "rejected"

    assert cluster.run_process("home", app()) == "rejected"


def test_invoke_missing_object():
    from repro.util.uid import Uid
    from repro.cluster.client import ObjectRef
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ghost = ObjectRef("server", Uid("obj@server", 999), "counter")
        action = client.top_level("t")
        try:
            yield from client.invoke(action, ghost, "get")
            return "ran"
        except ObjectNotFound:
            yield from client.abort(action)
            return "missing"

    assert cluster.run_process("home", app()) == "missing"


def test_operation_error_does_not_apply_or_poison_locks():
    """A failing body (InsufficientFunds) reports the error; the action can
    retry with valid arguments under the same lock."""
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ref = yield from client.create("server", "account",
                                       owner="ann", balance=10)
        action = client.top_level("t")
        try:
            yield from client.invoke(action, ref, "withdraw", 100)
            first = "withdrew"
        except InvalidActionState:
            first = "refused"
        balance = yield from client.invoke(action, ref, "withdraw", 5)
        yield from client.commit(action)
        return first, balance

    first, balance = cluster.run_process("home", app())
    assert first == "refused"
    assert balance == 5


def test_partition_during_action_aborts_cleanly():
    cluster = make_cluster()
    client = cluster.client("home")

    def app():
        ref = yield from client.create("server", "counter", value=3)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 1)
        cluster.network.partition("home", "server")
        try:
            yield from client.invoke(action, ref, "increment", 1)
            outcome = "ran"
        except RpcTimeout:
            outcome = "timed out"
        cluster.network.heal_all()
        # the abort during the partition could not reach the server; its
        # locks expire via the lock-wait bound or a later conflicting use.
        return outcome, action.status.value, ref

    outcome, status, ref = cluster.run_process("home", app())
    assert outcome == "timed out"
    assert status == "aborted"


def test_partition_healed_lock_eventually_expires_for_others():
    """The stranded lock from a partitioned abort is bounded by the
    lock-wait timeout on the server side, not held forever."""
    cluster = make_cluster(lock_wait_timeout=15.0)
    client = cluster.client("home")
    other = cluster.client("other", "other")

    def app():
        ref = yield from client.create("server", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 1)
        cluster.network.partition("home", "server")
        try:
            yield from client.invoke(action, ref, "increment", 1)
        except RpcTimeout:
            pass
        cluster.network.heal_all()
        return ref

    ref = cluster.run_process("home", app())
    # the old action's server-side lock is still there; a competitor waits
    # out the bound, then the abort retransmission or timeout frees it.
    def competitor():
        action = other.top_level("c")
        try:
            yield from other.invoke(action, ref, "increment", 10)
            yield from other.commit(action)
            return "committed"
        except LockTimeout:
            yield from other.abort(action)
            return "lock timeout"

    result = cluster.run_process("other", competitor())
    assert result in ("committed", "lock timeout")
    # in either case the system is live afterwards:
    def after():
        action = other.top_level("after")
        value = yield from other.invoke(action, ref, "get")
        yield from other.commit(action)
        return value

    value = cluster.run_process("other", after())
    assert isinstance(value, int)


def test_first_contact_timeout_leaves_nothing_on_the_server():
    """The action's *first* invoke at a node runs there, but every
    ``rpc_reply``/``rpc_ack`` back is lost until the client gives up: the
    outcome is unknown, so the abort must go to that node too — or its
    WRITE lock and mirror stay forever."""
    cluster = make_cluster()
    client = cluster.client("home")
    lost, healed = [], []

    def one_way(message):
        if message.kind == "abort_action":
            healed.append(message)               # gave up: the link heals
        elif (not healed and message.src == "server"
              and message.kind in ("rpc_reply", "rpc_ack")):
            lost.append(message.kind)
            return LOST
        return None

    def app():
        ref = yield from client.create("server", "counter", value=3)
        action = client.top_level("t")
        Over(cluster.network, one_way)
        with pytest.raises(RpcTimeout, match="unacknowledged"):
            yield from client.invoke(action, ref, "increment", 1)
        return ref, action

    ref, action = cluster.run_process("home", app())
    cluster.run()
    assert action.status.value == "aborted"
    assert "rpc_reply" in lost                   # it ran there, unheard
    server = cluster.servers["server"]
    assert server.mirrors == {}
    assert server.registry.snapshot()["held"] == 0

    def after():
        reader = client.top_level("after")
        value = yield from client.invoke(reader, ref, "get")
        yield from client.commit(reader)
        return value

    assert cluster.run_process("home", after()) == 3
    assert cluster.obs.auditor.report() == []


def test_refused_first_lock_request_leaves_no_mirror_on_the_server():
    """The server *answers* an action's first lock request there with a
    failure (its wait timed out): the client notes nothing for that node
    and sends no abort there, so the empty mirror must go with the answer."""
    cluster = make_cluster()
    holder = cluster.client("home")
    waiter = cluster.client("home", name="waiter")

    def app():
        ref = yield from holder.create("server", "counter", value=3)
        holding = holder.top_level("holding")
        yield from holder.invoke(holding, ref, "increment", 1)
        blocked = waiter.top_level("blocked")
        with pytest.raises(LockTimeout):
            yield from waiter.invoke(blocked, ref, "increment", 10)
        assert blocked.uid not in cluster.servers["server"].mirrors
        yield from waiter.abort(blocked)
        yield from holder.commit(holding)
        return ref

    cluster.run_process("home", app())
    cluster.run()
    server = cluster.servers["server"]
    assert server.mirrors == {}
    assert server.registry.snapshot()["held"] == 0
    assert cluster.obs.auditor.report() == []
