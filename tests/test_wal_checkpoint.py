"""Server write-ahead-log checkpointing.

Pinned to the classic protocol (``fast_paths=False``): the record-count
arithmetic below assumes one ``prepared`` + one ``committed`` record per
transaction on the participant.  Checkpointing of the fast paths'
``committed(delegated)`` records is covered in test_twopc_fastpath.py and,
behind an older ``prepared`` record, by the last test here.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.message import encode_colour, encode_uid
from repro.cluster.txn import COORDINATOR, PARTICIPANT
from repro.objects.state import ObjectState


def make_cluster(fast_paths=False):
    cluster = Cluster(seed=0, fast_paths=fast_paths)
    for name in ("coord", "part"):
        cluster.add_node(name)
    return cluster


def run_transfers(cluster, client, count=4):
    refs = {}

    def app():
        refs["obj"] = yield from client.create("part", "counter", value=0)
        for index in range(count):
            action = client.top_level(f"t{index}")
            yield from client.invoke(action, refs["obj"], "increment", 1)
            yield from client.commit(action)

    cluster.run_process("coord", app())
    return refs["obj"]


def test_checkpoint_drops_decided_records():
    cluster = make_cluster()
    client = cluster.client("coord")
    run_transfers(cluster, client, count=4)
    part = cluster.servers["part"]
    before = len(part.node.wal)
    assert before >= 8  # 4 prepared + 4 committed
    stats = part.checkpoint()
    assert stats["dropped"] >= 8
    assert len(part.node.wal) <= 1 + 0 + 1  # checkpoint marker (+ slack)


def prepare_only(cluster, client, ref):
    """Drive a prepare of ``txn:limbo`` on ``ref`` with no decision."""
    def limbo():
        action = client.top_level("limbo")
        yield from client.invoke(action, ref, "increment", 5)
        yield from cluster.transports["coord"].call("part", "txn_prepare", {
            "txn_id": "txn:limbo",
            "action_uid": encode_uid(action.uid),
            "colour": encode_colour(next(iter(action.colours))),
            "object_uids": [encode_uid(ref.uid)],
            "expected_epoch": action.server_epochs.get("part"),
        })

    cluster.run_process("coord", limbo())


def test_checkpoint_keeps_undecided_prepared():
    cluster = make_cluster()
    client = cluster.client("coord")
    ref = run_transfers(cluster, client, count=2)
    part = cluster.servers["part"]
    prepare_only(cluster, client, ref)
    part.checkpoint()
    kinds = [r.kind for r in part.node.wal.records()]
    assert "prepared" in kinds  # the in-doubt record survived
    # ... and recovery after a crash still sees it as in doubt
    cluster.crash("part")
    cluster.restart("part")
    assert ref.uid in part.in_doubt_objects


def test_checkpoint_keeps_unended_coordinator_decisions():
    cluster = make_cluster()
    client = cluster.client("coord")
    run_transfers(cluster, client, count=1)
    coord = cluster.servers["coord"]
    # simulate a decision whose participant never acked
    coord.node.txns.advance(COORDINATOR, "txn:unacked", "decide_commit")
    coord.checkpoint()
    surviving = [r.payload.get("txn_id") for r in
                 coord.node.wal.records("coord_commit")]
    assert "txn:unacked" in surviving
    # decisions with coord_end are gone
    assert all(txn == "txn:unacked" for txn in surviving)


def test_checkpoint_is_idempotent_and_recovery_safe():
    cluster = make_cluster()
    client = cluster.client("coord")
    ref = run_transfers(cluster, client, count=3)
    part = cluster.servers["part"]
    part.checkpoint()
    part.checkpoint()
    cluster.crash("part")
    cluster.restart("part")
    cluster.run(until=cluster.kernel.now + 100)
    assert part.in_doubt_objects == set()
    # the object still serves after restart with a truncated log
    def read():
        action = client.top_level("r")
        value = yield from client.invoke(action, ref, "get")
        yield from client.commit(action)
        return value

    assert cluster.run_process("coord", read()) == 3


def test_a_forgotten_record_behind_an_undecided_one_is_gone_for_good():
    # one-phase commits: the participant logs committed{delegated}, and
    # the coordinator's forget rides its next prepare there
    cluster = make_cluster(fast_paths=True)
    client = cluster.client("coord")
    prepare_only(cluster, client, cluster.run_process(
        "coord", client.create("part", "counter", value=0)))
    run_transfers(cluster, client, count=2)
    part = cluster.servers["part"]
    first, last = [r.payload["txn_id"] for r in part.node.wal.records(
        "committed") if r.payload.get("delegated")]
    assert first in part.node.txns.forgotten
    part.checkpoint()
    cluster.crash("part")
    cluster.restart("part")
    logged = {r.payload.get("txn_id") for r in part.node.wal.records()}
    assert first not in logged and {"txn:limbo", last} <= logged
    assert part.node.txns.get(PARTICIPANT, first) is None
