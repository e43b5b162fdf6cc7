"""Stragglers: requests that reach a server after their caller gave up.

A request held up in the network past its call's last timeout may still
arrive.  Its caller has moved on — aborted the action, aborted the
transaction — and the server, which forgets decided transactions at its
checkpoints, must not act on it: the straggler is stale (``transport.py``)
as soon as any later request from the same caller has arrived, and the
abort that followed the give-up is such a request.  Every case runs on
both execution backends.
"""

import pytest

from repro.cluster.txn import COORDINATOR, PARTICIPANT, TxnState
from repro.errors import CommitError, RpcTimeout
from tests.oracle import cluster_of, committed_int, on_both_backends
from tests.test_transport_ack_phase import Hold


def run_until(cluster, done, horizon=200.0):
    """Advance the cluster a unit at a time until ``done()`` holds."""
    limit = cluster.kernel.now + horizon
    while not done():
        assert cluster.kernel.now < limit
        cluster.run(until=cluster.kernel.now + 1.0)


def carries_the_decision(message):
    """A delegated ``txn_prepare``, sent plain or inside a batch."""
    if message.kind == "rpc_batch":
        return any(call["payload"].get("decide")
                   for call in message.payload["calls"])
    return message.kind == "txn_prepare" and bool(
        message.payload.get("decide"))


@on_both_backends
def test_invoke_held_past_its_timeout_and_the_abort_builds_nothing(backend):
    """Every copy of an action's first invoke at a server is held until the
    client has timed out and its ``abort_action`` has been answered there;
    released then, the invoke builds no mirror and takes no lock."""
    cluster = cluster_of(["home", "server"], backend=backend)
    client = cluster.client("home")
    server = cluster.servers["server"]
    held = Hold(cluster, lambda message: message.kind == "invoke")

    def app():
        ref = yield from client.create("server", "counter", value=3)
        action = client.top_level("t")
        with pytest.raises(RpcTimeout):
            yield from client.invoke(action, ref, "increment", 1)
        return ref, action

    ref, action = cluster.run_process("home", app())
    assert action.status.value == "aborted"
    assert len(held.held) == 4          # the first send and 3 retransmissions
    held.release()
    cluster.run()
    assert server.invocations == 0
    assert server.mirrors == {}
    assert server.registry.snapshot()["held"] == 0

    def read():
        reader = client.top_level("read")
        value = yield from client.invoke(reader, ref, "get")
        yield from client.commit(reader)
        return value

    assert cluster.run_process("home", read()) == 3
    assert cluster.obs.auditor.report() == []


@on_both_backends
def test_prepare_held_past_txn_abort_and_a_checkpoint_prepares_nothing(
        backend):
    """A classic prepare to ``s1`` is held until the coordinator has given
    up on it, the abort — ``txn_abort`` and ``abort_action`` in one
    message — has landed at ``s1`` and ``s1`` has checkpointed the ABORTED
    record away.  Released then, it prepares nothing."""
    cluster = cluster_of(["home", "s1", "s2"], backend=backend,
                         fast_paths=False)
    client = cluster.client("home")
    s1 = cluster.servers["s1"]
    held = Hold(cluster, lambda message: False)

    def app():
        refs = []
        for node_name in ("s1", "s2"):
            refs.append((yield from client.create(node_name, "counter",
                                                  value=0)))
        action = client.top_level("t")
        for ref in refs:
            yield from client.invoke(action, ref, "increment", 1)
        held.catch = lambda message: (message.dst == "s1"
                                      and message.kind != "rpc_batch")
        with pytest.raises(CommitError):
            yield from client.commit(action)
        return action

    action = cluster.run_process("home", app())
    assert action.status.value == "aborted"
    assert s1.node.wal.last("aborted") is not None
    s1.checkpoint()
    assert s1.node.wal.last("aborted") is None
    held.release("txn_prepare")
    cluster.run(until=cluster.kernel.now + 5.0)
    assert s1.prepared == {}
    held.release()
    cluster.run()
    assert s1.prepared == {}
    assert s1.mirrors == {}
    assert s1.in_doubt_objects == set()


@on_both_backends
def test_delegated_prepare_held_past_a_forced_abort_and_a_checkpoint_decides_nothing(
        backend):
    """Every copy of the delegated prepare to the last agent ``s2`` is held,
    and so is ``s2``'s ``abort_action``.  Meanwhile ``s1``, prepared,
    restarts and asks the coordinator for the decision; the outcome query
    that answer needs forces an ABORTED record at ``s2``, which ``s2`` then
    checkpoints away.  Released then — the write set still there — the
    delegated prepare commits nothing: the abort ``s1`` was told stands."""
    cluster = cluster_of(["home", "s1", "s2"], backend=backend)
    client = cluster.client("home")
    s1, s2 = cluster.servers["s1"], cluster.servers["s2"]
    held = Hold(cluster, lambda message: False)
    refs = []

    def app():
        for node_name in ("s1", "s2"):
            refs.append((yield from client.create(node_name, "counter",
                                                  value=0)))
        action = client.top_level("t")
        for ref in refs:
            yield from client.invoke(action, ref, "increment", 1)
        held.catch = lambda message: message.dst == "s2" and (
            carries_the_decision(message) or message.kind == "abort_action")
        with pytest.raises(CommitError):
            yield from client.commit(action)

    committing = cluster.spawn("home", app())
    run_until(cluster, lambda: held.held)
    txn_id = next(iter(s1.prepared))
    cluster.crash("s1")
    cluster.restart("s1")
    run_until(cluster, lambda: s2.node.txns.state(PARTICIPANT, txn_id)
              is TxnState.ABORTED)
    s2.checkpoint()
    assert s2.node.wal.last("aborted") is None
    held.release()
    cluster.run()
    assert committing.error is None
    assert committing.result is None     # the commit ended, in CommitError
    home = cluster.nodes["home"].txns
    assert home.state(COORDINATOR, txn_id) is TxnState.ABORT
    assert s1.node.txns.state(PARTICIPANT, txn_id) is TxnState.ABORTED
    assert s2.node.txns.state(PARTICIPANT, txn_id) is not TxnState.COMMITTED
    assert [committed_int(cluster, ref) for ref in refs] == [0, 0]
    assert s1.prepared == {} and s1.in_doubt_objects == set()
    assert s2.mirrors == {}
    assert cluster.obs.auditor.report() == []
