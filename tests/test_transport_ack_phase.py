"""The two-phase RPC protocol: who acks and when, long operations, and how
a lost reply is recovered in each phase.

The reply is the ack: a handler that answers inside the dispatch that
received the request costs two messages; ``rpc_ack`` is sent only for a
request still executing — at the end of the dispatch that received it, or
at once for a duplicate of it.  Every test body runs on both execution
backends (sim first), because "the end of the dispatch" is a real
event-loop turn only on asyncio.
"""

from repro.backend import AsyncioBackend, SimBackend
from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkConfig
from repro.errors import RpcTimeout

BACKENDS = (SimBackend, lambda: AsyncioBackend(time_scale=0.01))


def on_both_backends(body):
    """Run ``body(backend)`` once per backend under the one test id."""
    def test():
        for make in BACKENDS:
            with make() as backend:
                body(backend)
    test.__name__, test.__doc__ = body.__name__, body.__doc__
    return test


def pair(backend, config=None, seed=0):
    cluster = Cluster(seed=seed, config=config, backend=backend)
    cluster.add_node("a")
    cluster.add_node("b")
    return cluster, cluster.transports["a"], cluster.transports["b"]


def first_reply(kind, sent):
    return kind == "rpc_reply" and "rpc_reply" not in sent


def tap(cluster, lose=lambda kind, sent: False):
    """Record the kind of every ``Network.send`` in order; a send for which
    ``lose(kind, sent so far)`` holds is recorded and then lost."""
    network = cluster.network
    send = network.send
    sent = []

    def tapped(message):
        lost = lose(message.kind, sent)
        sent.append(message.kind)
        if lost:
            network.dropped_count += 1
        else:
            send(message)

    network.send = tapped
    return sent


def later(cluster, delay, respond, value="done"):
    cluster.kernel.schedule(delay, lambda: respond(True, value))


@on_both_backends
def test_long_operation_outlives_short_attempt_timeout(backend):
    """A handler that takes 50 units must not be failed by the 5-unit
    per-attempt timeout: the ACK switches the client to patient waiting."""
    cluster, ta, tb = pair(backend)
    tb.register("slow", lambda msg, respond: later(cluster, 50.0, respond))
    started = cluster.kernel.now

    def app():
        value = yield from ta.call("b", "slow", {}, timeout=5.0, retries=2,
                                   completion_timeout=200.0)
        return (value, cluster.kernel.now - started)

    value, took = cluster.run_process("a", app())
    assert value == "done"
    assert took >= 50.0


@on_both_backends
def test_unacknowledged_fails_fast(backend):
    """A dead server never ACKs: failure within attempts*timeout, without
    waiting out the long completion bound."""
    cluster, ta, tb = pair(backend)
    cluster.crash("b")
    started = cluster.kernel.now

    def app():
        try:
            yield from ta.call("b", "x", {}, timeout=2.0, retries=2,
                               completion_timeout=500.0)
        except RpcTimeout as error:
            return (str(error), cluster.kernel.now - started)

    message, took = cluster.run_process("a", app())
    assert "unacknowledged" in message
    assert took < 20.0


@on_both_backends
def test_synchronous_handler_costs_two_messages_and_no_ack(backend):
    cluster, ta, tb = pair(backend)
    tb.register("op", lambda msg, respond: respond(True, "value"))
    sent = tap(cluster)

    def app():
        return (yield from ta.call("b", "op", {}))

    assert cluster.run_process("a", app()) == "value"
    cluster.run()
    assert sent == ["op", "rpc_reply"]


@on_both_backends
def test_waiting_handler_is_acked_once_in_the_receiving_dispatch(backend):
    cluster, ta, tb = pair(backend)
    sent = tap(cluster)
    next_turn = []

    def waiting(msg, respond):
        # runs after this dispatch returns and before any later event
        cluster.kernel.schedule(0.0, lambda: next_turn.extend(sent))
        later(cluster, 20.0, respond)

    tb.register("wait", waiting)

    def app():
        return (yield from ta.call("b", "wait", {}, timeout=50.0))

    assert cluster.run_process("a", app()) == "done"
    cluster.run()
    assert next_turn == ["wait", "rpc_ack"]
    assert sent == ["wait", "rpc_ack", "rpc_reply"]


@on_both_backends
def test_batch_is_acked_only_while_a_sub_call_waits(backend):
    cluster, ta, tb = pair(backend)
    tb.register("op", lambda msg, respond: respond(True, "now"))
    tb.register("wait", lambda msg, respond: later(cluster, 20.0, respond))
    sent = tap(cluster)

    def app(kinds):
        outcomes = yield from ta.call_many(
            "b", [(kind, {}) for kind in kinds], timeout=50.0)
        return [value for _ok, value in outcomes]

    assert cluster.run_process("a", app(["op", "op"])) == ["now", "now"]
    assert sent == ["rpc_batch", "rpc_reply"]
    del sent[:]
    assert cluster.run_process("a", app(["op", "wait", "op"])) \
        == ["now", "done", "now"]
    cluster.run()
    assert sent == ["rpc_batch", "rpc_ack", "rpc_reply"]


@on_both_backends
def test_lost_reply_without_ack_recovered_by_retransmission(backend):
    """A synchronous handler sends no ack, so its lost reply leaves the
    client in the ack phase: the retransmission is answered from the reply
    cache, the handler having run once."""
    cluster, ta, tb = pair(backend)
    executions = {"n": 0}

    def handler(msg, respond):
        executions["n"] += 1
        respond(True, "value")

    tb.register("op", handler)
    sent = tap(cluster, lose=first_reply)

    def app():
        return (yield from ta.call("b", "op", {}, timeout=5.0, retries=3,
                                   completion_timeout=100.0))

    assert cluster.run_process("a", app()) == "value"
    cluster.run()
    assert executions["n"] == 1
    assert sent == ["op", "rpc_reply", "op", "rpc_reply"]


@on_both_backends
def test_lost_reply_recovered_by_polling(backend):
    """The request arrives (ACKed, executed once, answered later); the reply
    is lost; the client's completion-phase poll fetches it from the reply
    cache."""
    cluster, ta, tb = pair(backend)
    executions = {"n": 0}

    def handler(msg, respond):
        executions["n"] += 1
        later(cluster, 2.0, respond, "value")

    tb.register("op", handler)
    sent = tap(cluster, lose=first_reply)

    def app():
        return (yield from ta.call("b", "op", {}, timeout=5.0, retries=3,
                                   completion_timeout=100.0))

    assert cluster.run_process("a", app()) == "value"
    cluster.run()
    assert executions["n"] == 1      # the poll hit the cache, no re-execution
    assert sent == ["op", "rpc_ack", "rpc_reply", "op", "rpc_reply"]


@on_both_backends
def test_acked_but_crashed_server_times_out_at_completion_bound(backend):
    cluster, ta, tb = pair(backend)

    def never(msg, respond):
        pass  # still unanswered when its dispatch ends: acked, then silence

    tb.register("void", never)
    started = cluster.kernel.now

    def app():
        try:
            yield from ta.call("b", "void", {}, timeout=2.0, retries=1,
                               completion_timeout=30.0)
        except RpcTimeout as error:
            return (str(error), cluster.kernel.now - started)

    message, took = cluster.run_process("a", app())
    assert "no reply within" in message
    assert 30.0 <= took < 60.0


@on_both_backends
def test_duplicate_request_reacked_not_reexecuted(backend):
    cluster, ta, tb = pair(
        backend, config=NetworkConfig(duplicate_probability=0.5), seed=13
    )
    executions = {"n": 0}

    def handler(msg, respond):
        executions["n"] += 1
        later(cluster, 20.0, respond, executions["n"])

    tb.register("op", handler)
    sent = tap(cluster)

    def app():
        results = []
        for _ in range(5):
            value = yield from ta.call("b", "op", {}, timeout=3.0, retries=5,
                                       completion_timeout=100.0)
            results.append(value)
        return results

    assert cluster.run_process("a", app()) == [1, 2, 3, 4, 5]
    assert executions["n"] == 5
    # one ack per first delivery plus one per duplicate that found the
    # request executing
    assert sent.count("rpc_ack") > 5
