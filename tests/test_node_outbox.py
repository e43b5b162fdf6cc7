"""One network message per destination per dispatch (``cluster/node.py``).

What one ``_on_message`` dispatch sends to one destination leaves as one
network message: a lone message unchanged, two or more as one ``bundle``
carrying them in send order, which the receiver unpacks into one dispatch
per inner message.  The protocol case is a commit's finish whose lock
release grants a queued waiter from the same home: the finish's reply and
the grant's reply travel together (the commit-round shape
``finish_grants_waiter``).  Sends from process steps and timers stay single
messages.  Every case runs on both backends; wire lines are
:class:`~tests.test_commit_rounds.Tap`'s.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.node import BUNDLE_KIND
from repro.sim.kernel import Kernel, Timeout
from tests.oracle import FIXED, Over, check, on_both_backends
from tests.test_commit_rounds import Tap, drive
from tests.test_fault_sweep import Faulted


def tapped(cluster):
    """A :class:`Tap` armed now: it records every send from here on."""
    tap = Tap(cluster)
    tap.arm()
    return tap


def untimed(tap):
    return [line.split(" ", 1)[1] for line in tap.lines]


def send_four(node):
    """``x1``, ``y1``, ``x2``, ``x3``: ``x`` to ``a``, ``y`` to ``c``."""
    for dst, kind in (("a", "x1"), ("c", "y1"), ("a", "x2"), ("a", "x3")):
        node.send(dst, kind)


def fan_out(backend, behave=send_four):
    """Three nodes; ``b`` answers a ``ping`` from ``a`` by ``behave(b)`` in
    one dispatch.  Returns the cluster, once run, its tap, and each other
    message each node was handed, each in a dispatch of its own."""
    cluster = Cluster(seed=0, config=FIXED, backend=backend)
    got = {}
    for name in ("a", "b", "c"):
        node = cluster.add_node(name)

        def handle(message, node=node):
            if message.kind == "ping":
                behave(node)
            else:
                got.setdefault(node.name, []).append(message)
            return True

        node.add_dispatcher(handle)
    tap = tapped(cluster)
    cluster.nodes["a"].send("b", "ping")
    cluster.run()
    return cluster, tap, got


def kinds(got):
    return {name: [message.kind for message in messages]
            for name, messages in got.items()}


@on_both_backends
def test_one_message_per_destination_per_dispatch(backend):
    """Three sends to ``a`` and one to ``c`` in one dispatch are two
    network messages, in first-send order of destination; ``a`` is handed
    its three in send order, one dispatch each."""
    cluster, tap, got = fan_out(backend)
    assert untimed(tap) == ["a>b ping", "b>a bundle(x1 x2 x3)", "b>c y1"]
    assert kinds(got) == {"a": ["x1", "x2", "x3"], "c": ["y1"]}
    assert cluster.network.by_kind["sent"] == {
        "ping": 1, BUNDLE_KIND: 1, "y1": 1}
    assert cluster.network.sent_count == 3
    cluster.close()


@on_both_backends
def test_a_lone_message_is_never_wrapped(backend):
    """One message per destination leaves as itself, id and all."""
    ids = []

    def send_two(node):
        ids.extend(node.send(dst, kind).msg_id
                   for dst, kind in (("a", "x1"), ("c", "y1")))

    cluster, tap, got = fan_out(backend, send_two)
    assert untimed(tap) == ["a>b ping", "b>a x1", "b>c y1"]
    assert kinds(got) == {"a": ["x1"], "c": ["y1"]}
    assert [got[name][0].msg_id for name in ("a", "c")] == ids
    cluster.close()


@on_both_backends
def test_a_crash_point_sends_what_the_dispatch_sent_before_it(backend):
    """``b`` sends to ``a`` and ``c``, crashes at a log append, and would
    send to ``a`` again: what it sent before the crash leaves, and nothing
    after it does."""
    def crash_midway(node):
        Over(node.network, crash=lambda name, kind, after: name == "b")
        node.send("a", "x1")
        node.send("c", "y1")
        node.txns.crash_point("prepared", False)
        node.send("a", "x2")

    cluster, tap, got = fan_out(backend, crash_midway)
    assert not cluster.nodes["b"].alive
    assert untimed(tap) == ["a>b ping", "b>a x1", "b>c y1"]
    assert kinds(got) == {"a": ["x1"], "c": ["y1"]}
    cluster.close()


@on_both_backends
def test_a_finish_reply_carries_the_grant_reply(backend):
    cluster, tap = drive("finish_grants_waiter", backend)
    assert "p1>coord bundle(rpc_reply rpc_reply)" in untimed(tap)
    check(cluster)
    cluster.close()


def faulted_bundle(backend, how):
    """``finish_grants_waiter`` with its bundle, the commit's second wire
    line, dropped or duplicated; the run is then judged by the oracle."""
    cluster, tap = drive("finish_grants_waiter", backend,
                         lambda c: Faulted(c, (how, 1)))
    assert tap.fired is not None and tap.outcome == "committed"
    assert untimed(tap)[1] == "p1>coord bundle(rpc_reply rpc_reply)"
    assert check(cluster, tap.colours()) == [True]
    return cluster, tap


@on_both_backends
def test_a_dropped_bundle_loses_every_reply_it_carries(backend):
    """Both calls complete anyway: the first action's prepare and the
    second's invoke are each sent again and answered from p1's reply
    cache."""
    cluster, tap = faulted_bundle(backend, "drop")
    assert cluster.network.by_kind["dropped"] == {BUNDLE_KIND: 1}
    lines = untimed(tap)
    assert lines.count("coord>p1 txn_prepare[decide,finish]") == 2
    assert lines.count("coord>p1 invoke") == 1
    cluster.close()


@on_both_backends
def test_a_duplicated_bundle_executes_nothing_twice(backend):
    cluster, tap = faulted_bundle(backend, "duplicate")
    assert cluster.network.by_kind["delivered"][BUNDLE_KIND] == 2
    assert untimed(tap).count("coord>p1 txn_prepare[decide,finish]") == 1
    cluster.close()


@on_both_backends
def test_the_ack_and_the_probe_of_a_queued_request_stay_two_messages(
        backend):
    """Half an rpc timeout after a request queues, the transport's
    ``rpc_ack`` and the chaser's ``dl_probe`` leave ``s`` for ``home`` at
    the same instant; each is a timer's send, not a dispatch's, so each
    is a message of its own."""
    cluster = Cluster(seed=0, config=FIXED, backend=backend)
    for name in ("home", "s"):
        cluster.add_node(name)
    client = cluster.client("home")
    tap = tapped(cluster)

    def app():
        ref = yield from client.create("s", "counter", value=0)
        first = client.top_level("first")
        yield from client.invoke(first, ref, "increment", 1)
        second = client.top_level("second")
        waiting = cluster.spawn("home", client.invoke(
            second, ref, "increment", 1))
        yield Timeout(8.0)      # the queued invoke is acked meanwhile
        yield from client.commit(first)
        yield waiting
        yield from client.commit(second)

    cluster.run_process("home", app())
    cluster.run()
    timed = [line.split() for line in tap.lines
             if line.endswith((" rpc_ack", " dl_probe"))]
    assert sorted(line[1:] for line in timed) == [
        ["s>home", "dl_probe"], ["s>home", "rpc_ack"]]
    if type(backend) is Kernel:     # one instant on sim
        assert timed[0][0] == timed[1][0]
    check(cluster)
    cluster.close()
