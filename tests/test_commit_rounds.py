"""Golden wire + log trace of every coordinator commit-round shape.

For each shape a commit can take — classic, one-phase, piggybacked
decision, batched multi-colour run, commute — and for the failure variants
that exercise the round's own error handling, one seeded sim run is pinned
as a *readable* literal: every ``Network.send`` from the moment ``commit``
is called, as ``<tick since commit> <src>><dst> <wire kind>[<prepare
flags>]`` in send order, plus the WAL record kinds each node ends up with.

Send *order within a tick* is protocol-observable here, not an accident:
``Network.send`` draws every delay and every drop/duplicate roll from one
seeded stream, so reordering two sends of the same tick changes every
gated sim-time figure downstream.  A refactor of the coordinator must
leave these literals untouched.  No ``rpc_ack`` appears in them: every
handler on the commit path answers inside the dispatch that received the
request, and the transport acks only a request whose handler is still
waiting (``tests/test_transport_ack_phase.py``).

On ``AsyncioKernel`` ticks and order are wall-clock, so the same
scenarios pin the *multiset* of ``(src>dst, kind, flags)`` and the WAL
kinds.  The trace is recorded by a fault plan laid over the network's
(:class:`Tap`), and every fault in a scenario is a trigger on that plan,
fired by a send (never by a timer), which is what makes the message bill
the same on both backends.

``tests/test_fault_sweep.py`` lays one more fault over these shapes at a
time: a pinned send dropped, duplicated or delayed past the RPC timeout,
or a node crashing just before or just after one of its appends.
"""

from collections import Counter

import pytest

from repro.backend import AsyncioKernel
from repro.cluster.cluster import Cluster
from repro.errors import CommitError, ReproError
from repro.sim.kernel import ProcessKilled
from tests.oracle import FIXED, Over

#: what a ``txn_prepare`` payload may carry beyond the classic prepare
FLAGS = ("read_only", "decide", "commute", "finish", "forget")


def describe(kind, payload):
    """A wire kind; prepares with their flags, batches with their calls."""
    if kind == "txn_prepare":
        flags = ",".join(sorted(f for f in FLAGS if payload.get(f)))
        return f"txn_prepare[{flags}]"
    if kind == "rpc_batch":
        calls = " ".join(describe(call["kind"], call["payload"])
                         for call in payload["calls"])
        return f"rpc_batch({calls})"
    return kind


class Tap(Over):
    """Records every ``Network.send`` once armed; fires one-shot triggers
    (``when(src, dst, kind, do)``) just before the matching send."""

    def __init__(self, cluster):
        super().__init__(cluster.network)
        self.cluster = cluster
        self.lines = None
        self.started = 0.0
        self.outcome = self.action = None
        self.triggers = []

    def fates(self, message):
        if self.lines is not None:
            for trigger in list(self.triggers):
                if trigger[:3] == (message.src, message.dst, message.kind):
                    self.triggers.remove(trigger)
                    trigger[3]()
            self.lines.append(
                f"{self.cluster.kernel.now - self.started:g} "
                f"{message.src}>{message.dst} "
                f"{describe(message.kind, message.payload)}")
        return self.beneath.fates(message)

    def arm(self):
        self.lines = []
        self.started = self.cluster.kernel.now

    def when(self, src, dst, kind, do):
        self.triggers.append((src, dst, kind, do))

    def commit(self, client, action):
        """Arm, commit, and note how it ended."""
        self.arm()
        self.action = action
        try:
            yield from client.commit(action)
            self.outcome = "committed"
        except CommitError:
            self.outcome = "commit-error"


def bounce(cluster, name):
    """Crash and restart: the node loses every uncommitted write set and
    refuses the action's prepares from its new epoch."""
    cluster.crash(name)
    cluster.restart(name)


# -- the scenarios: (node names, Cluster kwargs, body) ------------------------


def classic_two_writers(cluster, client, tap):
    p1 = yield from client.create("p1", "counter", value=0)
    p2 = yield from client.create("p2", "counter", value=0)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "increment", 1)
    yield from client.invoke(action, p2, "increment", 1)
    yield from tap.commit(client, action)


def one_phase(cluster, client, tap):
    # a first commit leaves a delegated record behind, so the pinned one
    # also shows the lazy ``forget`` riding its prepare
    p1 = yield from client.create("p1", "counter", value=0)
    first = client.top_level("first")
    yield from client.invoke(first, p1, "increment", 1)
    yield from client.commit(first)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "increment", 1)
    yield from tap.commit(client, action)


def piggyback_with_reader(cluster, client, tap):
    p1 = yield from client.create("p1", "counter", value=0)
    p2 = yield from client.create("p2", "counter", value=0)
    r = yield from client.create("r", "counter", value=5)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "increment", 1)
    yield from client.invoke(action, p2, "increment", 1)
    yield from client.invoke(action, r, "get")
    yield from tap.commit(client, action)


def fresh_colours(client, count=3):
    """``count`` fresh colours in uid order, and an action in all of them."""
    colours = sorted((client.fresh_colour(f"c{i}") for i in range(count)),
                     key=lambda colour: colour.uid)
    return colours, client.coloured(colours, name="coloured")


def batched_run_with_rider(cluster, client, tap):
    a = yield from client.create("a", "counter", value=0)
    a2 = yield from client.create("a", "counter", value=0)
    b = yield from client.create("b", "counter", value=0)
    b2 = yield from client.create("b", "counter", value=0)
    b3 = yield from client.create("b", "counter", value=9)
    r = yield from client.create("r", "counter", value=9)
    (c1, c2, c3), action = fresh_colours(client)
    yield from client.invoke(action, a, "increment", 1, colour=c1)
    yield from client.invoke(action, b, "increment", 1, colour=c1)
    yield from client.invoke(action, a2, "increment", 1, colour=c2)
    yield from client.invoke(action, b3, "get", colour=c2)   # rides b's batch
    yield from client.invoke(action, r, "get", colour=c2)    # r: not visited
    yield from client.invoke(action, b2, "increment", 1, colour=c3)
    yield from tap.commit(client, action)


def commute_inline_finish(cluster, client, tap):
    p1 = yield from client.create("p1", "commuting_counter", value=0)
    p2 = yield from client.create("p2", "commuting_counter", value=0)
    r = yield from client.create("r", "counter", value=5)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "add", 1)
    yield from client.invoke(action, p2, "add", 1)
    yield from client.invoke(action, r, "get")
    yield from tap.commit(client, action)


def mixed_run(cluster, client, tap):
    """Colours [classic, commuting, classic] are three rounds in uid order;
    the third's prepare carries the lazy forget of the first's."""
    p1 = yield from client.create("p1", "counter", value=0)
    p1b = yield from client.create("p1", "counter", value=0)
    p2 = yield from client.create("p2", "commuting_counter", value=0)
    (c1, c2, c3), action = fresh_colours(client)
    yield from client.invoke(action, p1, "increment", 1, colour=c1)
    yield from client.invoke(action, p2, "add", 1, colour=c2)
    yield from client.invoke(action, p1b, "increment", 1, colour=c3)
    yield from tap.commit(client, action)


def semantic_classic(cluster, client, tap):
    """A colour that adds to commuting counters and increments a plain
    one commits by 2PC.  Its PREPARED record at p1 carries the add, and
    p1 stages committed state ⊕ add as its shadow at the decision; p2,
    the last agent, stages it at its piggybacked one.  Either way the
    shadow precedes the ``committed`` record, which precedes promotion."""
    p1 = yield from client.create("p1", "commuting_counter", value=0)
    p2 = yield from client.create("p2", "counter", value=0)
    p2c = yield from client.create("p2", "commuting_counter", value=0)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "add", 1)
    yield from client.invoke(action, p2, "increment", 1)
    yield from client.invoke(action, p2c, "add", 1)
    yield from tap.commit(client, action)


def _three_writers(client):
    refs = []
    for name in ("p1", "p2", "p3"):
        ref = yield from client.create(name, "counter", value=0)
        refs.append(ref)
    action = client.top_level("t")
    for ref in refs:
        yield from client.invoke(action, ref, "increment", 1)
    return action


def rollback_vote(cluster, client, tap):
    """p1 already holds an abort for the txn: it votes rollback, p2 votes
    commit, the last agent p3 is never asked."""
    action = yield from _three_writers(client)
    colour, = action.colours
    txn_id = (f"txn:coord:{action.uid.sequence}:{colour.uid.sequence}:1")
    yield from cluster.transports["coord"].call(
        "p1", "txn_abort", {"txn_id": txn_id})
    yield from tap.commit(client, action)


def refusal_with_straggler(cluster, client, tap):
    """p1 refuses (it restarted) while p2's prepare is still undelivered:
    the straggler is killed — no retransmission follows — and both get
    the txn_abort, in front of abort_action in one batch."""
    action = yield from _three_writers(client)
    bounce(cluster, "p1")
    cluster.network.partition("coord", "p2")
    tap.when("coord", "p1", "rpc_batch", cluster.network.heal_all)
    yield from tap.commit(client, action)


def lost_delegated_reply(cluster, client, tap):
    """The delegate's reply is lost (no ack precedes it: the reply is the
    ack); every retransmission too.  The coordinator resolves through
    txn_outcome_query once the link heals, and reports the commit that
    happened."""
    p1 = yield from client.create("p1", "counter", value=0)
    p2 = yield from client.create("p2", "counter", value=0)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "increment", 1)
    yield from client.invoke(action, p2, "increment", 1)
    tap.when("p2", "coord", "rpc_reply",
             lambda: cluster.network.partition("coord", "p2"))
    tap.when("coord", "p2", "txn_outcome_query", cluster.network.heal_all)
    yield from tap.commit(client, action)


def failing_middle_colour(cluster, client, tap):
    """Colour 2's only participant restarted: colour 1 stays permanent,
    colour 2 aborts, colour 3 cascades."""
    a = yield from client.create("a", "counter", value=0)
    a2 = yield from client.create("a", "counter", value=0)
    b = yield from client.create("b", "counter", value=0)
    (c1, c2, c3), action = fresh_colours(client)
    yield from client.invoke(action, a, "increment", 1, colour=c1)
    yield from client.invoke(action, b, "increment", 1, colour=c2)
    yield from client.invoke(action, a2, "increment", 1, colour=c3)
    bounce(cluster, "b")
    yield from tap.commit(client, action)


def commute_then_refusal(cluster, client, tap):
    """Colour 1 commutes at q, decided before its wave; colour 2's only
    participant p restarted and refuses: colour 1 stays permanent and
    the abort undoes colour 2."""
    q = yield from client.create("q", "commuting_counter", value=0)
    p = yield from client.create("p", "counter", value=0)
    (c1, c2), action = fresh_colours(client, 2)
    yield from client.invoke(action, q, "add", 1, colour=c1)
    yield from client.invoke(action, p, "increment", 1, colour=c2)
    bounce(cluster, "p")
    yield from tap.commit(client, action)


def drive(scenario, backend=None, plan=Tap):
    """Drive one scenario under ``plan(cluster)``, a :class:`Tap`, until
    nothing is left to do; returns the cluster and its tap."""
    nodes, kwargs, body = SCENARIOS[scenario]
    cluster = Cluster(seed=7, config=FIXED, backend=backend, **kwargs)
    for name in ("coord",) + nodes:
        cluster.add_node(name)
    tap = plan(cluster)
    try:
        cluster.run_process("coord",
                            body(cluster, cluster.client("coord"), tap))
    except (ProcessKilled, ReproError) as error:  # a fault ended the body
        tap.outcome = type(error).__name__
    # a trigger left armed when a fault ended the body early would cut a
    # link for good: §2 repairs what fails
    tap.triggers.clear()
    cluster.network.heal_all()
    cluster.run()       # reapers and late replies, until nothing is left
    return cluster, tap


def run(scenario, backend=None):
    """Drive one scenario; returns ``(outcome, wire lines, wal kinds)``."""
    cluster, tap = drive(scenario, backend)
    wal = {name: " ".join(record.kind for record in node.wal.records())
           for name, node in cluster.nodes.items()}
    assert cluster.obs.auditor.report() == []
    assert not cluster.obs.bus.errors
    cluster.close()
    return tap.outcome, tap.lines, wal


SCENARIOS = {
    "classic_two_writers":
        (("p1", "p2"), {"fast_paths": False}, classic_two_writers),
    "one_phase": (("p1",), {}, one_phase),
    "piggyback_with_reader": (("p1", "p2", "r"), {}, piggyback_with_reader),
    "batched_run_with_rider": (("a", "b", "r"), {}, batched_run_with_rider),
    "commute_inline_finish": (("p1", "p2", "r"), {}, commute_inline_finish),
    "mixed_run": (("p1", "p2"), {}, mixed_run),
    "semantic_classic": (("p1", "p2"), {}, semantic_classic),
    "rollback_vote": (("p1", "p2", "p3"), {}, rollback_vote),
    "refusal_with_straggler":
        (("p1", "p2", "p3"), {}, refusal_with_straggler),
    "lost_delegated_reply": (("p1", "p2"), {}, lost_delegated_reply),
    "failing_middle_colour": (("a", "b"), {}, failing_middle_colour),
    "commute_then_refusal": (("q", "p"), {}, commute_then_refusal),
}

#: scenario -> (outcome, wire trace, WAL record kinds per node)
EXPECTED = {
    "classic_two_writers": ("committed", """
        0 coord>p1 txn_prepare[]
        0 coord>p2 txn_prepare[]
        1 p1>coord rpc_reply
        1 p2>coord rpc_reply
        2 coord>p1 rpc_batch(txn_commit finish_commit)
        2 coord>p2 rpc_batch(txn_commit finish_commit)
        3 p1>coord rpc_reply
        3 p2>coord rpc_reply
        """, {
            "coord": "coord_commit coord_end",
            "p1": "prepared committed",
            "p2": "prepared committed",
        }),
    "one_phase": ("committed", """
        0 coord>p1 txn_prepare[decide,finish,forget]
        1 p1>coord rpc_reply
        """, {
            "coord": "coord_delegated coord_commit coord_end "
                     "coord_delegated coord_commit coord_end",
            "p1": "committed committed",
        }),
    "piggyback_with_reader": ("committed", """
        0 coord>r txn_prepare[read_only]
        0 coord>p1 txn_prepare[]
        1 r>coord rpc_reply
        1 p1>coord rpc_reply
        2 coord>p2 txn_prepare[decide,finish]
        3 p2>coord rpc_reply
        4 coord>p1 rpc_batch(txn_commit finish_commit)
        5 p1>coord rpc_reply
        """, {
            "coord": "coord_delegated coord_commit coord_end",
            "p1": "prepared committed",
            "p2": "committed",
            "r": "",
        }),
    "batched_run_with_rider": ("committed", """
        0 coord>a rpc_batch(txn_prepare[] txn_prepare[])
        0 coord>b rpc_batch(txn_prepare[] txn_prepare[] txn_prepare[read_only])
        1 a>coord rpc_reply
        1 b>coord rpc_reply
        2 coord>a rpc_batch(txn_commit txn_commit finish_commit)
        2 coord>b rpc_batch(txn_commit txn_commit finish_commit)
        2 coord>r rpc_batch(finish_commit)
        3 a>coord rpc_reply
        3 b>coord rpc_reply
        3 r>coord rpc_reply
        """, {
            "coord": "coord_commit coord_commit coord_commit "
                     "coord_end coord_end coord_end",
            "a": "prepared prepared committed committed",
            "b": "prepared prepared committed committed",
            "r": "",
        }),
    "commute_inline_finish": ("committed", """
        0 coord>r txn_prepare[read_only]
        0 coord>p1 txn_prepare[commute,finish]
        0 coord>p2 txn_prepare[commute,finish]
        1 r>coord rpc_reply
        1 p1>coord rpc_reply
        1 p2>coord rpc_reply
        """, {
            "coord": "coord_commit coord_end",
            "p1": "committed",
            "p2": "committed",
            "r": "",
        }),
    "mixed_run": ("committed", """
        0 coord>p1 txn_prepare[decide]
        1 p1>coord rpc_reply
        2 coord>p2 txn_prepare[commute,finish]
        3 p2>coord rpc_reply
        4 coord>p1 txn_prepare[decide,forget]
        5 p1>coord rpc_reply
        6 coord>p1 rpc_batch(finish_commit)
        7 p1>coord rpc_reply
        """, {
            "coord": "coord_delegated coord_commit coord_commit coord_end "
                     "coord_delegated coord_commit coord_end coord_end",
            "p1": "committed committed",
            "p2": "committed",
        }),
    "semantic_classic": ("committed", """
        0 coord>p1 txn_prepare[]
        1 p1>coord rpc_reply
        2 coord>p2 txn_prepare[decide,finish]
        3 p2>coord rpc_reply
        4 coord>p1 rpc_batch(txn_commit finish_commit)
        5 p1>coord rpc_reply
        """, {
            "coord": "coord_delegated coord_commit coord_end",
            "p1": "prepared committed",
            "p2": "committed",
        }),
    "rollback_vote": ("commit-error", """
        0 coord>p1 txn_prepare[]
        0 coord>p2 txn_prepare[]
        1 p1>coord rpc_reply
        1 p2>coord rpc_reply
        2 coord>p1 rpc_batch(txn_abort abort_action)
        2 coord>p2 rpc_batch(txn_abort abort_action)
        2 coord>p3 abort_action
        3 p1>coord rpc_reply
        3 p2>coord rpc_reply
        3 p3>coord rpc_reply
        """, {
            "coord": "",
            "p1": "aborted",
            "p2": "prepared aborted",
            "p3": "",
        }),
    "refusal_with_straggler": ("commit-error", """
        0 coord>p1 txn_prepare[]
        0 coord>p2 txn_prepare[]
        1 p1>coord rpc_reply
        2 coord>p1 rpc_batch(txn_abort abort_action)
        2 coord>p2 rpc_batch(txn_abort abort_action)
        2 coord>p3 abort_action
        3 p1>coord rpc_reply
        3 p2>coord rpc_reply
        3 p3>coord rpc_reply
        """, {
            "coord": "",
            "p1": "aborted",
            "p2": "aborted",
            "p3": "",
        }),
    "lost_delegated_reply": ("committed", """
        0 coord>p1 txn_prepare[]
        1 p1>coord rpc_reply
        2 coord>p2 txn_prepare[decide,finish]
        3 p2>coord rpc_reply
        12 coord>p2 txn_prepare[decide,finish]
        22 coord>p2 txn_prepare[decide,finish]
        32 coord>p2 txn_prepare[decide,finish]
        42 coord>p2 txn_outcome_query
        43 p2>coord rpc_reply
        44 coord>p1 rpc_batch(txn_commit finish_commit)
        45 p1>coord rpc_reply
        """, {
            "coord": "coord_delegated coord_commit coord_end",
            "p1": "prepared committed",
            "p2": "committed",
        }),
    "failing_middle_colour": ("commit-error", """
        0 coord>a rpc_batch(txn_prepare[] txn_prepare[])
        0 coord>b rpc_batch(txn_prepare[])
        1 a>coord rpc_reply
        1 b>coord rpc_reply
        2 coord>a rpc_batch(txn_commit txn_abort abort_action)
        2 coord>b rpc_batch(txn_abort abort_action)
        3 a>coord rpc_reply
        3 b>coord rpc_reply
        """, {
            "coord": "coord_commit coord_end",
            "a": "prepared prepared committed aborted",
            "b": "aborted",
        }),
    "commute_then_refusal": ("commit-error", """
        0 coord>q txn_prepare[commute,finish]
        1 q>coord rpc_reply
        2 coord>p txn_prepare[decide,finish]
        3 p>coord rpc_reply
        4 coord>p txn_outcome_query
        5 p>coord rpc_reply
        6 coord>p abort_action
        6 coord>q abort_action
        7 p>coord rpc_reply
        7 q>coord rpc_reply
        """, {
            "coord": "coord_commit coord_end coord_delegated coord_abort",
            "q": "committed",
            "p": "aborted",
        }),
}


def wire_lines(text):
    return [line.strip() for line in text.strip().splitlines()]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_sim_wire_and_log_trace(scenario):
    outcome, wire, wal = EXPECTED[scenario]
    got_outcome, got_wire, got_wal = run(scenario)
    assert got_outcome == outcome
    assert got_wire == wire_lines(wire)
    assert got_wal == wal


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_asyncio_message_bill_and_log(scenario):
    outcome, wire, wal = EXPECTED[scenario]
    got_outcome, got_wire, got_wal = run(
        scenario, backend=AsyncioKernel(time_scale=0.005))

    def untimed(lines):
        return Counter(line.split(" ", 1)[1] for line in lines)

    assert got_outcome == outcome
    assert untimed(got_wire) == untimed(wire_lines(wire))
    assert {name: Counter(kinds.split()) for name, kinds in got_wal.items()} \
        == {name: Counter(kinds.split()) for name, kinds in wal.items()}
