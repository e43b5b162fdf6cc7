"""2PC crash recovery where the single-fault sweep does not reach: the
in-doubt resolver's own answer, the fence on an in-doubt object, and a
second abort after a later transaction took the shadow slot.  In the
sweep a restarted participant hears the coordinator's redelivered
decision before its resolver's answer, and no other action touches an
object while it is in doubt."""

import pytest

from repro.cluster.message import encode_colour, encode_uid
from repro.cluster.txn import COORDINATOR
from tests.oracle import FIXED, Over, cluster_of, committed_int


def drive_prepare(cluster, client, value_after):
    """Run an action up to a successful prepare on 'part'; returns
    (ref, action, txn_id) with the decision NOT yet sent."""
    transport = cluster.transports["coord"]
    holder = {}

    def app():
        ref = yield from client.create("part", "counter", value=1)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", value_after - 1)
        txn_id = f"txn:test:{action.uid.sequence}"
        colour = next(iter(action.colours))
        reply = yield from transport.call("part", "txn_prepare", {
            "txn_id": txn_id,
            "action_uid": encode_uid(action.uid),
            "colour": encode_colour(colour),
            "object_uids": [encode_uid(ref.uid)],
            "expected_epoch": action.server_epochs.get("part"),
        })
        holder.update(ref=ref, action=action, txn_id=txn_id, vote=reply["vote"])

    cluster.run_process("coord", app())
    assert holder["vote"] == "commit"
    return holder


def test_prepared_shadow_survives_crash_and_commit_applies_on_recovery():
    """Participant crashes between prepare and decision; the coordinator had
    logged COMMIT, so recovery promotes the shadow."""
    cluster = cluster_of(["coord", "part"])
    client = cluster.client("coord")
    holder = drive_prepare(cluster, client, value_after=42)
    # the coordinator decides commit and logs it — but the participant
    # crashes before hearing it.
    cluster.nodes["coord"].txns.advance(COORDINATOR, holder["txn_id"],
                                        "decide_commit")
    cluster.crash("part")
    assert committed_int(cluster, holder["ref"]) == 1  # still old on disk
    cluster.restart("part")
    cluster.run(until=cluster.kernel.now + 200)  # recovery queries + applies
    assert committed_int(cluster, holder["ref"]) == 42


def test_in_doubt_object_fenced_until_resolution():
    """While the coordinator is unreachable, the prepared object refuses
    operations; after resolution it serves again."""
    cluster = cluster_of(["coord", "part"])
    client = cluster.client("coord")
    holder = drive_prepare(cluster, client, value_after=42)
    cluster.nodes["coord"].txns.advance(COORDINATOR, holder["txn_id"],
                                        "decide_commit")
    cluster.crash("part")
    cluster.network.partition("coord", "part")
    cluster.restart("part")
    cluster.run(until=cluster.kernel.now + 30)
    server = cluster.servers["part"]
    assert holder["ref"].uid in server.in_doubt_objects

    # a fresh client on another... 'part' itself can't reach coord; try an op
    part_client = cluster.client("part", "local")

    def probe():
        action = part_client.top_level("probe")
        try:
            yield from part_client.invoke(action, holder["ref"], "get")
            return "served"
        except Exception as error:
            return type(error).__name__

    result = cluster.run_process("part", probe())
    assert result != "served"

    cluster.network.heal_all()
    cluster.run(until=cluster.kernel.now + 200)
    assert holder["ref"].uid not in server.in_doubt_objects
    assert committed_int(cluster, holder["ref"]) == 42


# -- a decision is applied exactly once, whoever delivers it first --------------
#
# After a crash two deliverers race for a prepared participant: its own
# in-doubt resolver (asking the coordinator) and the coordinator's reaper
# (redelivering txn_commit/txn_abort).  Whichever comes second must find the
# decided state and touch nothing — by then the object's shadow slot and live
# instance may belong to a *later* transaction.


def decide(cluster, node, txn_id, decision):
    """The coordinator on ``node`` decides ``txn_id`` (log + decision event)."""
    cluster.nodes[node].txns.advance(COORDINATOR, txn_id, f"decide_{decision}")
    cluster.obs.emit("twopc.decision", txn=txn_id, decision=decision, node=node)


def deliver(cluster, src, kind, txn_id):
    """One ``txn_commit``/``txn_abort`` delivery to 'part', as a reaper's."""
    return cluster.run_process(src, cluster.transports[src].call(
        "part", kind, {"txn_id": txn_id}))


def records_of(cluster, kind, txn_id):
    return [r for r in cluster.nodes["part"].wal.records(kind)
            if r.payload["txn_id"] == txn_id]


@pytest.mark.parametrize("late", ["redelivery", "resolver"])
def test_abort_delivered_twice_spares_a_later_transactions_shadow(late):
    """The second abort (a redelivered txn_abort after the resolver
    presumed abort, or the other way round) used to discard whatever
    occupied the shadow slot — here a later prepared transaction."""
    cluster = cluster_of(["coord", "part", "other"])
    first = drive_prepare(cluster, cluster.client("coord"), value_after=42)
    ref, txn_id = first["ref"], first["txn_id"]
    cluster.crash("part")
    if late == "resolver":
        cluster.network.partition("coord", "part")
    cluster.restart("part")
    if late == "resolver":
        deliver(cluster, "other", "txn_abort", txn_id)
    else:
        cluster.run(until=cluster.kernel.now + 60)  # presumed abort
    server = cluster.servers["part"]
    assert ref.uid not in server.in_doubt_objects and not server.prepared
    # a later transaction prepares the same object: its shadow takes the slot
    other = cluster.client("other")
    later = other.top_level("later")
    cluster.run_process("other", other.invoke(later, ref, "increment", 1))
    vote = cluster.run_process("other", cluster.transports["other"].call(
        "part", "txn_prepare", {
            "txn_id": "txn:test:later",
            "action_uid": encode_uid(later.uid),
            "colour": encode_colour(next(iter(later.colours))),
            "object_uids": [encode_uid(ref.uid)],
            "expected_epoch": later.server_epochs.get("part"),
        }))["vote"]
    assert vote == "commit"
    if late == "resolver":
        cluster.network.heal_all()
        cluster.run(until=cluster.kernel.now + 60)
    else:
        deliver(cluster, "coord", "txn_abort", txn_id)
    assert cluster.nodes["part"].stable_store.read_shadow(ref.uid) is not None
    decide(cluster, "other", "txn:test:later", "commit")
    assert deliver(cluster, "other", "txn_commit",
                   "txn:test:later")["applied"] is True
    assert committed_int(cluster, ref) == 2
    assert len(records_of(cluster, "aborted", txn_id)) == 1
    assert cluster.obs.auditor.report() == []


def test_recovery_drops_a_shadow_whose_prepare_was_never_logged():
    """T1 commits X by 2PC; T2 writes X's shadow for its prepare and the
    participant crashes before the ``prepared`` record.  X's latest
    record is then T1's ``committed``, but the shadow in the slot is
    T2's: recovery must drop it, not promote it as T1's redo — T2 never
    voted, and it aborts."""
    cluster = cluster_of(["coord", "part"], config=FIXED, fast_paths=False)
    client = cluster.client("coord")
    holder = {"prepared": 0}

    def at_t2_prepare(node, kind, after):
        if node != "part" or kind != "prepared" or after:
            return None
        holder["prepared"] += 1
        if holder["prepared"] != 1:
            return None
        cluster.restart_at("part", cluster.kernel.now + 5.0)
        return True

    def app():
        holder["ref"] = ref = yield from client.create(
            "part", "counter", value=0)
        t1 = client.top_level("t1")
        yield from client.invoke(t1, ref, "increment", 1)
        yield from client.commit(t1)
        Over(cluster.network, crash=at_t2_prepare)
        t2 = client.top_level("t2")
        yield from client.invoke(t2, ref, "increment", 1)
        try:
            yield from client.commit(t2)
        except Exception as error:
            holder["error"] = error

    cluster.run_process("coord", app())
    cluster.run()
    assert holder["prepared"] >= 1 and "error" in holder
    assert committed_int(cluster, holder["ref"]) == 1
    assert cluster.obs.auditor.report() == []
