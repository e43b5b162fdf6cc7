"""The two-phase RPC protocol: who acks and when, long operations, how a
lost reply is recovered in each phase, and when a request is stale.

The reply is the ack: a handler that answers inside the dispatch that
received the request costs two messages; ``rpc_ack`` is sent only for a
request still executing — at the end of the dispatch that received it, or
at once for a duplicate of it.  A request whose call its caller has
finished — as a later request from it says — is dropped unanswered, and
the reply cache keeps replies of live calls only.  Every test body runs
on both execution backends (sim first), because "the end of the dispatch"
is a real event-loop turn only on asyncio.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.network import LOST, NetworkConfig
from repro.errors import RpcTimeout
from tests.oracle import Over, on_both_backends



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
    sent = []

    def decide(message):
        lost = lose(message.kind, sent)
        sent.append(message.kind)
        return LOST if lost else None

    Over(cluster.network, decide)
    return sent


class Hold(Over):
    """Keep back every ``Network.send`` that ``catch(message)`` selects,
    until released.  The wire counts a held message as lost and its
    release as a fresh send: no test reads the counters under a hold."""

    def __init__(self, cluster, catch):
        super().__init__(cluster.network)
        self.catch, self.held, self._passing = catch, [], None

    def fates(self, message):
        if message is not self._passing and self.catch(message):
            self.held.append(message)
            return LOST
        return self.beneath.fates(message)

    def release(self, kind=None):
        """Send the held messages again (those of ``kind`` only, if
        given); releasing them all also stops holding."""
        if kind is None:
            self.catch = lambda message: False
        kept = []
        for message in self.held:
            if kind is None or message.kind == kind:
                self._passing = message
                self.network.send(message)
            else:
                kept.append(message)
        self.held, self._passing = kept, None


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


# -- staleness: what a server may forget -------------------------------------


def counting(executions):
    """A synchronous handler noting what each request asked (its ``n``, or
    its kind) and answering with it."""
    def handler(msg, respond):
        executions.append(msg.payload.get("n", msg.kind))
        respond(True, executions[-1])
    return handler


def copies(cluster, kind):
    """Every message of ``kind`` sent from now on, kept for sending again."""
    kept = []
    Over(cluster.network, lambda message: (
        kept.append(message) if message.kind == kind else None))
    return kept


@on_both_backends
def test_stale_duplicate_is_dropped_its_handler_having_run_once(backend):
    """A copy of a finished call's request that arrives after a later
    request from the same caller is stale: no handler, no reply."""
    cluster, ta, tb = pair(backend)
    executions = []
    tb.register("op", counting(executions))
    requests = copies(cluster, "op")
    sent = tap(cluster)

    def app():
        for n in (1, 2):
            yield from ta.call("b", "op", {"n": n})

    cluster.run_process("a", app())
    cluster.network.send(requests[0])  # a late duplicate of call 1
    cluster.run()
    assert executions == [1, 2]
    assert sent == ["op", "rpc_reply", "op", "rpc_reply", "op"]


@on_both_backends
def test_reply_cache_holds_replies_of_live_calls_only(backend):
    """A call's reply stays cached while the call may still ask for it:
    until the caller's next request says the call is over."""
    cluster, ta, tb = pair(backend)
    tb.register("op", counting([]))
    tb.register("wait", lambda msg, respond: later(cluster, 30.0, respond))
    sizes = []

    def replies():
        return cluster.nodes["b"].volatile["rpc_cache"]["a"].replies

    def calls():
        for n in range(20):
            yield from ta.call("b", "op", {"n": n})
            sizes.append(len(replies()))

    waiting = cluster.spawn("a", ta.call("b", "wait", {}, timeout=50.0))
    cluster.run_process("a", calls())
    cluster.run()
    assert waiting.result == "done"
    assert max(sizes) <= 2           # the last call's, and the waiter's
    cluster.run_process("a", calls())
    assert len(replies()) == 1       # the last call: nobody said it is over


@on_both_backends
def test_request_from_an_older_caller_epoch_is_stale(backend):
    """A request sent before its caller crashed and delivered after the
    restarted caller was heard from belongs to a call that died with the
    old epoch: its handler never runs."""
    cluster, ta, tb = pair(backend)
    executions = []
    tb.register("op", counting(executions))
    held = Hold(cluster, lambda message: message.kind == "op")
    cluster.spawn("a", ta.call("b", "op", {"n": 1}))
    cluster.run(until=cluster.kernel.now + 1.0)
    cluster.crash("a")
    cluster.restart("a")
    held.catch = lambda message: False    # the epoch-1 copies stay held
    cluster.run_process("a", ta.call("b", "op", {"n": 2}))
    assert [message.payload["n"] for message in held.held] == [1]
    held.release()
    cluster.run()
    assert executions == [2]


@on_both_backends
def test_live_call_is_answered_from_the_cache_past_later_calls(backend):
    """Later calls from the same caller finish while an earlier call's
    reply is lost: the earlier call is still live, so its completion-phase
    poll and its ack-phase retransmission are both answered from the
    cache, each handler having run once."""
    cluster, ta, tb = pair(backend)
    executions = []
    tb.register("op", counting(executions))
    tb.register("sync", counting(executions))
    tb.register("wait", lambda msg, respond: (
        executions.append("wait"), later(cluster, 2.0, respond, "wait")))
    lost = []

    def first_reply_to_an_early_call(message):
        value = message.payload.get("value")
        if (message.kind == "rpc_reply" and value in ("wait", "sync")
                and value not in lost):
            lost.append(value)
            return True
        return False

    Hold(cluster, first_reply_to_an_early_call)

    def later_calls():
        for n in range(4):
            yield from ta.call("b", "op", {"n": n})

    early = [cluster.spawn("a", ta.call("b", kind, {}, timeout=5.0,
                                        completion_timeout=100.0))
             for kind in ("wait", "sync")]
    cluster.run_process("a", later_calls())
    cluster.run()
    assert [handle.result for handle in early] == ["wait", "sync"]
    assert sorted(lost) == ["sync", "wait"]
    assert sorted(map(str, executions)) == ["0", "1", "2", "3", "sync", "wait"]
