"""RPC transport: request/reply, retransmission, at-most-once, errors."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkConfig
from repro.cluster.node import Node
from repro.cluster.transport import RpcTransport
from repro.errors import LockRefused, RpcTimeout
from repro.sim.kernel import Kernel, Timeout


def pair(config=None, seed=0):
    cluster = Cluster(seed=seed, config=config)
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    return cluster, cluster.transports["a"], cluster.transports["b"]


def test_basic_call_returns_value():
    cluster, ta, tb = pair()
    calls = []
    tb.register("echo", lambda msg, respond: (
        calls.append(msg.payload["text"]),
        respond(True, msg.payload["text"].upper()),
    ))

    def app():
        result = yield from ta.call("b", "echo", {"text": "hi"})
        return result

    assert cluster.run_process("a", app()) == "HI"
    assert calls == ["hi"]


def test_error_reply_raises_matching_exception():
    cluster, ta, tb = pair()
    tb.register("deny", lambda msg, respond: respond(
        False, LockRefused("not yours")
    ))

    def app():
        try:
            yield from ta.call("b", "deny", {})
        except LockRefused as error:
            return str(error)

    assert "not yours" in cluster.run_process("a", app())


def test_retransmission_survives_heavy_loss():
    cluster, ta, tb = pair(
        config=NetworkConfig(drop_probability=0.4), seed=9
    )
    tb.register("echo", lambda msg, respond: respond(True, "pong"))

    def app():
        results = []
        for _ in range(10):
            value = yield from ta.call("b", "echo", {}, timeout=5.0, retries=10)
            results.append(value)
        return results

    assert cluster.run_process("a", app()) == ["pong"] * 10


def test_at_most_once_execution_under_duplication_and_loss():
    """Retransmitted requests must not re-execute the handler."""
    cluster, ta, tb = pair(
        config=NetworkConfig(drop_probability=0.3, duplicate_probability=0.3),
        seed=21,
    )
    executions = {"n": 0}

    def handler(msg, respond):
        executions["n"] += 1
        respond(True, executions["n"])

    tb.register("bump", handler)

    def app():
        values = []
        for _ in range(20):
            value = yield from ta.call("b", "bump", {}, timeout=4.0, retries=12)
            values.append(value)
        return values

    values = cluster.run_process("a", app())
    assert values == list(range(1, 21))          # each call executed once
    assert executions["n"] == 20


def test_timeout_when_target_down():
    cluster, ta, tb = pair()
    cluster.crash("b")

    def app():
        try:
            yield from ta.call("b", "anything", {}, timeout=2.0, retries=1)
        except RpcTimeout:
            return "timed out"

    assert cluster.run_process("a", app()) == "timed out"


def test_delayed_response_supported():
    """Handlers may respond later (lock waits do); client keeps waiting."""
    cluster, ta, tb = pair()

    def slow(msg, respond):
        cluster.kernel.schedule(7.0, lambda: respond(True, "eventually"))

    tb.register("slow", slow)

    def app():
        value = yield from ta.call("b", "slow", {}, timeout=20.0)
        return (value, cluster.kernel.now)

    value, when = cluster.run_process("a", app())
    assert value == "eventually"
    assert when >= 7.0


def test_reply_cache_cleared_by_crash():
    """After a crash the server forgets processed rpc ids — a *new* rpc id
    re-executes (the old incarnation's effects are volatile anyway)."""
    cluster, ta, tb = pair()
    executions = {"n": 0}
    tb.register("bump", lambda msg, respond: (
        executions.__setitem__("n", executions["n"] + 1),
        respond(True, executions["n"]),
    ))

    def first():
        return (yield from ta.call("b", "bump", {}))

    cluster.run_process("a", first())
    cluster.crash("b")
    cluster.restart("b")

    def second():
        return (yield from ta.call("b", "bump", {}))

    assert cluster.run_process("a", second()) == 2
    assert executions["n"] == 2


def test_duplicate_handler_registration_rejected():
    from repro.errors import ClusterError
    cluster, ta, tb = pair()
    tb.register("x", lambda m, r: r(True))
    with pytest.raises(ClusterError):
        tb.register("x", lambda m, r: r(True))


def test_handler_crash_answers_promptly_and_clears_inflight():
    """A handler raising a non-Repro error must still answer (as a cluster
    error) — not leave the call executing until the completion timeout
    while retransmits are ACKed but never answered."""
    from repro.errors import ClusterError
    cluster, ta, tb = pair()

    def broken(msg, respond):
        raise ValueError("boom")

    tb.register("broken", broken)

    def app():
        try:
            yield from ta.call("b", "broken", {})
        except ClusterError as error:
            return (str(error), cluster.kernel.now)

    text, when = cluster.run_process("a", app())
    assert "boom" in text
    assert when < 30.0  # one round trip, nowhere near the 90s completion cap
    (caller,) = cluster.nodes["b"].volatile["rpc_cache"].values()
    assert None not in caller.replies.values()   # nothing left executing
    assert cluster.obs.metrics.value("rpc_handler_crashes_total",
                                     kind="broken") == 1


def test_call_many_returns_aligned_outcomes():
    """One failing sub-call must not mask its batch-mates."""
    cluster, ta, tb = pair()
    tb.register("echo", lambda m, r: r(True, m.payload["text"]))
    tb.register("deny", lambda m, r: r(False, LockRefused("nope")))

    def app():
        outcomes = yield from ta.call_many("b", [
            ("echo", {"text": "x"}),
            ("deny", {}),
            ("echo", {"text": "y"}),
        ])
        return outcomes

    outcomes = cluster.run_process("a", app())
    assert [ok for ok, _ in outcomes] == [True, False, True]
    assert outcomes[0][1] == "x" and outcomes[2][1] == "y"
    assert isinstance(outcomes[1][1], LockRefused)


def test_call_many_dispatches_sub_calls_in_order():
    cluster, ta, tb = pair()
    order = []
    tb.register("mark", lambda m, r: (order.append(m.payload["tag"]),
                                      r(True, m.payload["tag"])))

    def app():
        outcomes = yield from ta.call_many(
            "b", [("mark", {"tag": i}) for i in range(5)])
        return [value for _, value in outcomes]

    assert cluster.run_process("a", app()) == [0, 1, 2, 3, 4]
    assert order == [0, 1, 2, 3, 4]


def test_call_many_at_most_once_under_duplication_and_loss():
    """Retransmitted batches must not re-execute sub-handlers."""
    cluster, ta, tb = pair(
        config=NetworkConfig(drop_probability=0.3, duplicate_probability=0.3),
        seed=13,
    )
    executions = {"n": 0}

    def handler(msg, respond):
        executions["n"] += 1
        respond(True, executions["n"])

    tb.register("bump", handler)

    def app():
        values = []
        for _ in range(10):
            outcomes = yield from ta.call_many(
                "b", [("bump", {}), ("bump", {})], timeout=4.0, retries=12)
            values.extend(value for ok, value in outcomes if ok)
        return values

    values = cluster.run_process("a", app())
    assert values == list(range(1, 21))
    assert executions["n"] == 20


def test_call_many_delayed_sub_replies_supported():
    """Sub-handlers may respond asynchronously (lock waits do); the batch
    answers once the last sub-reply lands."""
    cluster, ta, tb = pair()

    def slow(msg, respond):
        cluster.kernel.schedule(6.0, lambda: respond(True, "late"))

    tb.register("slow", slow)
    tb.register("fast", lambda m, r: r(True, "now"))

    def app():
        outcomes = yield from ta.call_many(
            "b", [("slow", {}), ("fast", {})], completion_timeout=30.0)
        return ([value for _, value in outcomes], cluster.kernel.now)

    values, when = cluster.run_process("a", app())
    assert values == ["late", "now"]
    assert when >= 6.0


def test_a_lossless_call_costs_four_kernel_callbacks():
    """The caller's first step, the request's delivery, the reply's
    delivery and the caller's resume: the reply wakes the waiting call
    directly, with no hop in between."""
    cluster, ta, tb = pair()
    tb.register("echo", lambda msg, respond: respond(True, "pong"))
    before = cluster.kernel.stats["callbacks_run"]

    assert cluster.run_process("a", ta.call("b", "echo", {})) == "pong"
    assert cluster.kernel.stats["callbacks_run"] - before == 4


def test_a_reply_landing_at_its_deadline_is_used_after_one_resend():
    """At a tie the deadline, posted first, runs first: the request is
    sent once more, and then the reply that landed at that instant is
    the call's result."""
    cluster = Cluster(config=NetworkConfig(min_delay=5.0, max_delay=5.0))
    cluster.add_node("a")
    cluster.add_node("b")
    client = cluster.client("a")
    assert cluster.rpc_timeout == 10.0

    def app():
        yield from client.create("b", "counter", value=0)
        return cluster.kernel.now

    assert cluster.run_process("a", app()) == 10.0
    sent = cluster.network.by_kind["sent"]
    assert sent["create"] == 2
    assert sent["rpc_reply"] == 1
