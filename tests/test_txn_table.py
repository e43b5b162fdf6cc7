"""The transaction state table: exhaustive over (role, state, event).

Three angles on one table (``repro.cluster.txn.TRANSITIONS``):

- every triple is either an edge — and ``advance`` does exactly what the
  edge says — or is rejected and changes nothing;
- every edge is reachable: each one is driven on a real two-node cluster,
  by wire messages or whole commits, with the online auditor silent;
- the auditor's independent, hand-written 2PC machine agrees on what is
  *illegal*: each decision the table refuses, fed to it as a synthetic
  event stream, is a finding.
"""

import itertools
import re
from pathlib import Path

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.message import encode_colour, encode_uid
from repro.cluster.network import LOST
from repro.cluster.txn import (
    COORDINATOR,
    EVENTS,
    PARTICIPANT,
    STATE_OF_RECORD,
    TRANSITIONS,
    IllegalTransition,
    TxnState,
    TxnTable,
    decision_of,
    render_paths,
    render_table,
)
from repro.obs.audit import InvariantAuditor
from repro.obs.audit import findings as F
from repro.obs.bus import ObsEvent
from repro.store.wal import WriteAheadLog
from tests.oracle import Over

ALL_EVENTS = sorted(set(itertools.chain.from_iterable(EVENTS.values())))
#: (role, state) -> the record kind that puts a transaction there
RECORD_FOR = {found: kind for kind, found in STATE_OF_RECORD.items()}


# -- the table itself -----------------------------------------------------------


def test_the_fold_agrees_with_every_logging_edge():
    for (role, _state, _event), (following, record) in TRANSITIONS.items():
        if record is not None:
            assert STATE_OF_RECORD[record] == (role, following)
    assert set(STATE_OF_RECORD) == {
        "prepared", "committed", "aborted",
        "coord_delegated", "coord_commit", "coord_abort", "coord_end"}


@pytest.mark.parametrize("role", [PARTICIPANT, COORDINATOR])
@pytest.mark.parametrize("state", list(TxnState))
@pytest.mark.parametrize("event", ALL_EVENTS)
def test_every_triple_is_an_edge_or_rejected(role, state, event):
    edge = TRANSITIONS.get((role, state, event))
    if state is not TxnState.NONE and (role, state) not in RECORD_FOR:
        assert edge is None  # no record puts this role in this state
        return
    wal = WriteAheadLog()
    if state is not TxnState.NONE:
        wal.append(RECORD_FOR[role, state], txn_id="t")
    table = TxnTable.replay(wal)
    assert table.state(role, "t") is state
    depth = len(wal)
    if edge is None:
        with pytest.raises(IllegalTransition):
            table.advance(role, "t", event)
        assert len(wal) == depth and table == TxnTable.replay(wal)
        return
    following, record = edge
    entry = table.advance(role, "t", event, note=1)
    assert table.state(role, "t") is following
    if record is None:  # answer-only: nothing moves
        assert entry is None and len(wal) == depth
    else:
        last = wal.last()
        assert (last.kind, last.payload) == (record, {"txn_id": "t", "note": 1})
        assert entry is table.get(role, "t") and entry.lsn == last.lsn
    assert table == TxnTable.replay(wal)


def test_decided_participant_states_absorb_everything():
    for decided in (TxnState.COMMITTED, TxnState.ABORTED):
        for event in EVENTS[PARTICIPANT]:
            assert TRANSITIONS[PARTICIPANT, decided, event] == (decided, None)


def test_a_checkpoint_keeps_every_record_of_the_pending_entries_only():
    table = TxnTable(WriteAheadLog())
    table.advance(PARTICIPANT, "undecided", "prepare")
    table.advance(PARTICIPANT, "forgotten", "decide", delegated=True)
    table.advance(COORDINATOR, "crossing", "delegate", last_agent="a")
    table.advance(COORDINATOR, "crossing", "decide_commit")
    table.forgotten.add("forgotten")
    table.checkpoint()
    assert [r.kind for r in table.wal.records()] == [
        "prepared", "coord_delegated", "coord_commit", "checkpoint"]
    replayed = TxnTable.replay(table.wal)  # what a restart would see
    assert replayed == table and not table.forgotten
    assert replayed.get(PARTICIPANT, "forgotten") is None
    assert replayed.get(COORDINATOR, "crossing").payload["last_agent"] == "a"


def test_a_commit_owing_nobody_ends_at_its_first_report():
    """A one-phase commit: the delegate took the decision, so the COMMIT
    entry owes nobody.  The first report ends it, with one ``coord_end``;
    later reports are answer-only."""
    table = TxnTable(WriteAheadLog())
    table.advance(COORDINATOR, "one", "delegate", last_agent="a", owed=[])
    table.advance(COORDINATOR, "one", "decide_commit")
    assert table.owed == {}
    assert table.acked("one", ()) is True
    assert table.state(COORDINATOR, "one") is TxnState.ENDED
    assert table.acked("one", ("a",)) is False
    assert [r.kind for r in table.wal.records()] == [
        "coord_delegated", "coord_commit", "coord_end"]
    assert table == TxnTable.replay(table.wal)


def test_protocol_doc_renders_the_table():
    doc = (Path(__file__).resolve().parent.parent
           / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
    section = doc.split("### 3.5 Transaction states", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines()
            if re.match(r"\|( role |---| participant | coordinator )", line)]
    assert "\n".join(rows) == render_table()
    # ... and §2 opens with the prepare-path table
    opening = doc.split("## 2. Fast paths", 1)[1].split("\n- ", 1)[0]
    assert opening.rstrip().endswith(render_paths())


# -- every edge, on a real cluster ------------------------------------------------


@pytest.fixture
def edges_taken(monkeypatch):
    """Record every ``(role, state, event)`` any node's table is asked for."""
    taken = set()
    advance = TxnTable.advance

    def recording(self, role, txn_id, event, **payload):
        taken.add((role, self.state(role, txn_id), event))
        return advance(self, role, txn_id, event, **payload)

    monkeypatch.setattr(TxnTable, "advance", recording)
    return taken


def two_nodes(**options):
    cluster = Cluster(seed=3, **options)
    for name in ("coord", "part"):
        cluster.add_node(name)
    return cluster, cluster.client("coord")


def call(cluster, kind, payload, src="coord", dst="part"):
    return cluster.run_process(
        src, cluster.transports[src].call(dst, kind, payload))


def prepare_payload(action, ref, txn_id, **flags):
    return dict({
        "txn_id": txn_id,
        "action_uid": encode_uid(action.uid),
        "colour": encode_colour(next(iter(action.colours))),
        "object_uids": [encode_uid(ref.uid)],
        "expected_epoch": action.server_epochs.get(ref.node),
    }, **flags)


def decide(cluster, txn_id, decision):
    cluster.nodes["coord"].txns.advance(
        COORDINATOR, txn_id, f"decide_{decision}")
    cluster.obs.emit("twopc.decision", txn=txn_id, decision=decision,
                     node="coord")


def redeliver_everything(cluster, action, ref, txn_id):
    """Every participant event against a decided transaction: answer-only."""
    part = cluster.nodes["part"]
    state, depth = part.txns.state(PARTICIPANT, txn_id), len(part.wal)
    for flags in ({}, {"decide": True}, {"commute": True},
                  {"read_only": True}):
        call(cluster, "txn_prepare",
             prepare_payload(action, ref, txn_id, **flags))
    assert call(cluster, "txn_commit", {"txn_id": txn_id})["applied"] is False
    call(cluster, "txn_abort", {"txn_id": txn_id})
    answer = call(cluster, "txn_outcome_query", {"txn_id": txn_id})
    assert answer["decision"] == decision_of(state)
    assert part.txns.state(PARTICIPANT, txn_id) is state
    assert len(part.wal) == depth


def forged_rounds(decision):
    """Wire-level: prepare, duplicate prepare, decision, then every event
    once more against the decided transaction."""
    cluster, client = two_nodes()
    ref = cluster.run_process(
        "coord", client.create("part", "counter", value=0))
    action = client.top_level("forged")
    cluster.run_process("coord", client.invoke(action, ref, "increment", 1))
    txn_id = f"txn:forged:{decision}"
    for _duplicate in range(2):
        vote = call(cluster, "txn_prepare",
                    prepare_payload(action, ref, txn_id))["vote"]
        assert vote == "commit"
    decide(cluster, txn_id, decision)
    call(cluster, f"txn_{decision}", {"txn_id": txn_id})
    redeliver_everything(cluster, action, ref, txn_id)
    # nothing known: an ack, a logged abort, a forced abort
    assert call(cluster, "txn_commit", {"txn_id": "txn:unknown:1"}) \
        == {"epoch": 1, "applied": False}
    call(cluster, "txn_abort", {"txn_id": "txn:unknown:2"})
    assert call(cluster, "txn_outcome_query",
                {"txn_id": "txn:unknown:3"})["decision"] == "abort"
    return cluster


def whole_commits():
    """The client's own paths: one-phase, read-only vote, commute."""
    cluster, client = two_nodes()

    def app():
        plain = yield from client.create("part", "counter", value=0)
        local = yield from client.create("coord", "counter", value=0)
        hot = yield from client.create("part", "commuting_counter", value=0)
        one_phase = client.top_level("one-phase")
        yield from client.invoke(one_phase, plain, "increment", 1)
        yield from client.commit(one_phase)
        reader = client.top_level("reader-at-part")
        yield from client.invoke(reader, local, "increment", 1)
        yield from client.invoke(reader, plain, "get")
        yield from client.commit(reader)
        commute = client.top_level("commute")
        yield from client.invoke(commute, hot, "add", 1)
        yield from client.commit(commute)

    cluster.run_process("coord", app())
    return cluster


def refused_commit(**options):
    """The participant restarts under the action: its prepare is refused —
    a presumed abort (classic) or a delegation resolved to abort (fast)."""
    cluster, client = two_nodes(**options)

    def app():
        ref = yield from client.create("part", "counter", value=0)
        action = client.top_level("doomed")
        yield from client.invoke(action, ref, "increment", 1)
        cluster.crash("part")
        cluster.restart("part")
        with pytest.raises(Exception):
            yield from client.commit(action)

    cluster.run_process("coord", app())
    return cluster


def lost_delegated_reply():
    """The delegated prepare lands but the link dies under its reply: the
    coordinator resolves through the last agent, then decides itself."""
    cluster, client = two_nodes()

    def partition_on_commit(node, kind, after):
        if (node, kind, after) == ("part", "committed", False):
            cluster.network.partition("coord", "part")
            cluster.kernel.schedule(60.0, cluster.network.heal_all)

    Over(cluster.network, crash=partition_on_commit)

    def app():
        ref = yield from client.create("part", "counter", value=0)
        action = client.top_level("lost-reply")
        yield from client.invoke(action, ref, "increment", 1)
        yield from client.commit(action)

    cluster.run_process("coord", app())
    return cluster


def query_while_delegated():
    """An in-doubt participant's decision query finds the delegation open.
    Its resolver waits until the delegated call — every reply to it lost —
    has ended, then asks the last agent too; that query held back, the
    answer arrives after the client's own resolver ended the transaction."""
    cluster, client = two_nodes()
    answers = []
    delegated_ids, outcome_queries = set(), []

    class Tamper(Over):
        def fates(self, message):
            if (message.kind == "txn_prepare"
                    and message.payload.get("decide")):
                delegated_ids.add(message.payload["rpc_id"])
            elif message.kind == "txn_outcome_query":
                outcome_queries.append(message)
                if len(outcome_queries) == 2:  # the decision query's resolver
                    return tuple(extra + 4.0
                                 for extra in self.beneath.fates(message))
            elif (message.kind == "rpc_reply"
                  and message.payload["rpc_id"] in delegated_ids):
                return LOST
            return self.beneath.fates(message)

    def ask(txn_id):
        reply = yield from cluster.transports["part"].call(
            "coord", "txn_decision_query", {"txn_id": txn_id})
        answers.append(reply["decision"])

    def query_on_delegation(node, kind, after):
        if (node, kind, after) == ("coord", "coord_delegated", True):
            record = cluster.nodes[node].wal.last()
            cluster.spawn("part", ask(record.payload["txn_id"]))

    Tamper(cluster.network, crash=query_on_delegation)

    def app():
        ref = yield from client.create("part", "counter", value=0)
        action = client.top_level("queried")
        yield from client.invoke(action, ref, "increment", 1)
        yield from client.commit(action)

    cluster.run_process("coord", app())
    cluster.run(until=cluster.kernel.now + 50)
    assert answers == ["commit"]
    return cluster


def test_every_edge_is_driven_on_a_real_cluster_with_the_auditor_silent(
        edges_taken):
    clusters = [
        forged_rounds("commit"),
        forged_rounds("abort"),
        whole_commits(),
        refused_commit(fast_paths=False),
        refused_commit(),
        lost_delegated_reply(),
        query_while_delegated(),
    ]
    for cluster in clusters:
        assert cluster.obs.auditor.report() == []
        for node in cluster.nodes.values():
            assert TxnTable.replay(node.wal) == node.txns
    assert edges_taken == set(TRANSITIONS)


# -- the auditor agrees on what is illegal ----------------------------------------


def audit(events):
    auditor = InvariantAuditor()
    for index, (kind, labels) in enumerate(events):
        auditor.consume(ObsEvent(tick=float(index), kind=kind,
                                 labels=dict(labels, txn="t"),
                                 seq=index + 1))
    return {finding.kind for finding in auditor.report()}


#: how each coordinator state shows on the event stream
REACHED_BY = {
    TxnState.COMMIT: [("twopc.decision", {"decision": "commit", "node": "c"})],
    TxnState.ABORT: [("twopc.decision", {"decision": "abort", "node": "c"})],
    TxnState.ENDED: [("twopc.decision", {"decision": "commit", "node": "c"}),
                     ("twopc.end", {"node": "c"})],
}


def test_decisions_the_table_refuses_are_auditor_findings():
    refused = [(state, event)
               for state in REACHED_BY
               for event in ("decide_commit", "decide_abort")
               if (COORDINATOR, state, event) not in TRANSITIONS]
    assert sorted(refused, key=str) == sorted([
        (TxnState.COMMIT, "decide_abort"), (TxnState.ENDED, "decide_abort"),
        (TxnState.ABORT, "decide_commit")], key=str)
    for state, event in refused:
        decision = event[len("decide_"):]
        stream = REACHED_BY[state] + [
            ("twopc.decision", {"decision": decision, "node": "c"})]
        assert F.DECISION_CONFLICT in audit(stream), (state, event)
    # ... and the legal re-decisions (answer-only edges) are silent
    for state in REACHED_BY:
        again = "abort" if state is TxnState.ABORT else "commit"
        assert audit(REACHED_BY[state] + [
            ("twopc.decision", {"decision": again, "node": "c"})]) == set()


def test_a_decided_participant_never_flips_and_the_auditor_would_notice():
    # the table keeps an ABORTED participant aborted whatever is delivered
    assert TRANSITIONS[PARTICIPANT, TxnState.ABORTED, "commit"] \
        == (TxnState.ABORTED, None)
    assert TRANSITIONS[PARTICIPANT, TxnState.COMMITTED, "abort"] \
        == (TxnState.COMMITTED, None)
    # had it flipped, the stream would show a promotion after an abort
    # decision, or an abort decision after a promotion
    assert F.ATOMICITY in audit([
        ("twopc.decision", {"decision": "abort", "node": "c"}),
        ("twopc.commit", {"node": "p", "objects": "o"})])
    assert F.DECISION_CONFLICT in audit([
        ("twopc.decision", {"decision": "commit", "node": "c"}),
        ("twopc.commit", {"node": "p", "objects": "o"}),
        ("twopc.decision", {"decision": "abort", "node": "c"})])
