"""Commit-protocol fast paths where the single-fault sweep does not
reach: the delegate's checkpoint, a crashed pure reader, recovery redo
past a later transaction's shadow, and the forced abort a lost one-phase
prepare leaves on the participant's log.

The fast paths' message bills are pinned by ``tests/test_commit_rounds.py``
and ``BENCH_twopc_fastpath``; their fault outcomes by
``tests/test_fault_sweep.py``.  Every test asserts the online invariant
auditor stayed silent.
"""

from repro.errors import CommitError
from tests.oracle import FIXED, cluster_of, committed_int


def metric_sum(cluster, name, **match):
    """Sum a labelled counter across every label set matching ``match``."""
    return sum(instrument.value
               for labels, instrument in cluster.obs.metrics.series(name)
               if all(labels.get(k) == v for k, v in match.items()))


def assert_audit_clean(cluster):
    findings = cluster.obs.auditor.report()
    assert findings == [], [f.to_dict() for f in findings]


# -- lazy forget / checkpointing ---------------------------------------------


def test_forget_piggyback_lets_the_delegate_checkpoint():
    """The delegate's COMMITTED record is the only durable copy of the
    decision until the coordinator's lazy forget arrives; a checkpoint
    must retain it exactly until then."""
    cluster = cluster_of(["coord", "part"], config=FIXED)
    client = cluster.client("coord")
    part = cluster.servers["part"]

    def one_txn(tag):
        def app():
            action = client.top_level(tag)
            yield from client.invoke(action, holder["ref"], "increment", 1)
            yield from client.commit(action)
        return app

    holder = {}

    def setup():
        holder["ref"] = yield from client.create("part", "counter", value=0)

    cluster.run_process("coord", setup())
    cluster.run_process("coord", one_txn("t1")())
    # txn1's delegated record is unacknowledged: the checkpoint keeps it
    part.checkpoint()
    delegated = [r for r in part.node.wal.records("committed")
                 if r.payload.get("delegated")]
    assert len(delegated) == 1
    txn1 = delegated[0].payload["txn_id"]
    # txn2's prepare piggybacks forget=[txn1]; after it, a checkpoint
    # drops txn1's record and keeps only txn2's
    cluster.run_process("coord", one_txn("t2")())
    assert txn1 in part.node.txns.forgotten
    part.checkpoint()
    delegated = [r for r in part.node.wal.records("committed")
                 if r.payload.get("delegated")]
    assert [r.payload["txn_id"] for r in delegated] != [txn1]
    assert len(delegated) == 1
    # recovery from the truncated log redoes nothing it shouldn't
    cluster.crash("part")
    cluster.restart("part")
    cluster.run(until=cluster.kernel.now + 100)
    assert part.in_doubt_objects == set()
    assert committed_int(cluster, holder["ref"]) == 2
    assert_audit_clean(cluster)


# -- downgrades under chaos --------------------------------------------------


def test_crashed_read_only_voter_does_not_block_commit():
    """The read-only prepare is fire-and-forget: a dead reader downgrades
    the fast path (it falls back into the classic finish fan-out) without
    stalling or aborting the writer's commit."""
    cluster = cluster_of(["coord", "writer", "reader"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref_w = yield from client.create("writer", "counter", value=0)
        ref_r = yield from client.create("reader", "counter", value=9)
        action = client.top_level("t")
        yield from client.invoke(action, ref_w, "increment", 4)
        yield from client.invoke(action, ref_r, "get")
        cluster.crash("reader")
        yield from client.commit(action)
        holder.update(ref_w=ref_w, ref_r=ref_r)

    cluster.run_process("coord", app())
    # the writer's update committed despite the dead reader
    assert committed_int(cluster, holder["ref_w"]) == 4
    # no read-only vote arrived, so no finish was skipped for the reader
    assert metric_sum(cluster, "read_only_saved_finish_total") == 0.0
    # once the reader returns, the reaper's finish delivery cleans it up
    cluster.restart("reader")
    cluster.run(until=cluster.kernel.now + 600)
    assert cluster.servers["reader"].mirrors == {}
    assert committed_int(cluster, holder["ref_r"]) == 9
    assert_audit_clean(cluster)


def test_recovery_redo_skips_a_later_transactions_shadow():
    """The shadow slot is single-occupancy per object: after txn1's
    delegated commit, an *aborting* txn2 re-prepares the same object and
    the server crashes.  Recovery replays txn1's COMMITTED record — it
    must not promote the shadow now in the slot, which belongs to txn2."""
    cluster = cluster_of(["coord", "part", "zed"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref_x = yield from client.create("part", "counter", value=0)
        ref_y = yield from client.create("zed", "counter", value=0)
        # txn1: one-phase delegated commit at part — leaves an
        # unacknowledged COMMITTED{delegated} record for X in its WAL
        t1 = client.top_level("t1")
        yield from client.invoke(t1, ref_x, "increment", 1)
        yield from client.commit(t1)
        # txn2 touches X again plus Y at zed, so part gets the *plain*
        # prepare (zed, sorted last, is the delegate).  Bouncing zed
        # bumps its epoch: the delegated prepare is refused and txn2
        # aborts — but part crashes before the abort reaches it,
        # stranding txn2's prepared shadow for X in the slot.
        t2 = client.top_level("t2")
        yield from client.invoke(t2, ref_x, "increment", 100)
        yield from client.invoke(t2, ref_y, "increment", 100)
        cluster.crash("zed")
        cluster.restart("zed")
        cluster.crash_at("part", cluster.kernel.now + 4.0)
        cluster.restart_at("part", cluster.kernel.now + 120.0)
        try:
            yield from client.commit(t2)
            holder["outcome"] = "committed"
        except CommitError:
            holder["outcome"] = "commit-error"
        holder.update(ref_x=ref_x, ref_y=ref_y)

    cluster.run_process("coord", app())
    assert holder["outcome"] == "commit-error"
    # the hazard really existed: both records share X in part's log
    part_wal = cluster.nodes["part"].wal
    delegated = [r for r in part_wal.records("committed")
                 if r.payload.get("delegated")]
    assert len(delegated) == 1
    assert part_wal.last("prepared") is not None
    cluster.run(until=cluster.kernel.now + 800)
    # txn1's increment survives; txn2's never commits
    assert committed_int(cluster, holder["ref_x"]) == 1
    assert committed_int(cluster, holder["ref_y"]) == 0
    part = cluster.servers["part"]
    assert part.prepared == {}
    assert holder["ref_x"].uid not in part.in_doubt_objects
    assert_audit_clean(cluster)


def test_partitioned_single_participant_forces_abort_then_heals_clean():
    """The one-phase prepare never arrives: the coordinator must not guess.
    It resolves through txn_outcome_query after the heal; the participant,
    having logged nothing, force-aborts (presumed abort) — so both sides
    agree the transaction never happened."""
    cluster = cluster_of(["coord", "part"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref = yield from client.create("part", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 8)
        cluster.network.partition("coord", "part")
        cluster.kernel.schedule(
            80.0, lambda: cluster.network.heal_all())
        try:
            yield from client.commit(action)
            holder["outcome"] = "committed"
        except CommitError:
            holder["outcome"] = "commit-error"
        holder["ref"] = ref

    cluster.run_process("coord", app())
    assert holder["outcome"] == "commit-error"
    cluster.run(until=cluster.kernel.now + 600)
    # identical to a classic abort: no state change, nothing in doubt
    assert committed_int(cluster, holder["ref"]) == 0
    part = cluster.servers["part"]
    assert part.prepared == {}
    assert holder["ref"].uid not in part.in_doubt_objects
    # the participant durably recorded the forced abort
    assert cluster.nodes["part"].wal.last("aborted") is not None
    coord_wal = cluster.nodes["coord"].wal
    assert coord_wal.last("coord_abort") is not None
    assert_audit_clean(cluster)
