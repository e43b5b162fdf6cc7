"""Commit-protocol fast paths: one-phase commit, piggybacked decision,
read-only voting — plus their downgrade behaviour under chaos.

Every test asserts the online invariant auditor stayed silent: the fast
paths must be invisible at the consistency level, visible only in the
message bill.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkConfig
from repro.errors import CommitError
from tests.oracle import committed_int


FIXED = NetworkConfig(min_delay=1.0, max_delay=1.0)


def make_cluster(names, seed=0, config=None, **kwargs):
    cluster = Cluster(seed=seed, config=config, **kwargs)
    for name in names:
        cluster.add_node(name)
    return cluster


def metric_sum(cluster, name, **match):
    """Sum a labelled counter across every label set matching ``match``."""
    return sum(instrument.value
               for labels, instrument in cluster.obs.metrics.series(name)
               if all(labels.get(k) == v for k, v in match.items()))


def assert_audit_clean(cluster):
    findings = cluster.obs.auditor.report()
    assert findings == [], [f.to_dict() for f in findings]


# -- success paths -----------------------------------------------------------


def test_one_phase_commit_is_a_single_round_trip():
    """A single-participant colour commits in one RPC: the prepare carries
    the decision *and* the finish routing, so nothing follows it."""
    cluster = make_cluster(["coord", "part"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref = yield from client.create("part", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 7)
        started = cluster.kernel.now
        sent = cluster.network.sent_count
        yield from client.commit(action)
        holder["duration"] = cluster.kernel.now - started
        holder["messages"] = cluster.network.sent_count - sent
        holder["ref"] = ref

    cluster.run_process("coord", app())
    assert committed_int(cluster, holder["ref"]) == 7
    assert holder["duration"] == 2.0          # one round trip at delay 1.0
    # a single RPC: request + reply (the handler answers in its dispatch,
    # so the reply is the ack) = 1 x 2
    assert holder["messages"] == 2
    assert metric_sum(cluster, "twopc_fast_path_total", kind="one_phase") == 1
    # the inline finish retired the mirror as part of the same message
    assert cluster.servers["part"].mirrors == {}
    assert cluster.servers["part"].prepared == {}
    assert_audit_clean(cluster)


def test_piggybacked_decision_skips_the_decision_round():
    """With two writers the last (sorted) agent's prepare carries the
    decision: 3 RPCs instead of the classic 4."""
    cluster = make_cluster(["coord", "p1", "p2"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref1 = yield from client.create("p1", "counter", value=0)
        ref2 = yield from client.create("p2", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref1, "increment", 3)
        yield from client.invoke(action, ref2, "increment", 4)
        sent = cluster.network.sent_count
        yield from client.commit(action)
        holder["messages"] = cluster.network.sent_count - sent
        holder.update(ref1=ref1, ref2=ref2)

    cluster.run_process("coord", app())
    assert committed_int(cluster, holder["ref1"]) == 3
    assert committed_int(cluster, holder["ref2"]) == 4
    # prepare(p1) + delegated prepare(p2) + finish batch(p1) = 3 RPCs
    # (classic needs 4), at 2 messages per synchronous RPC = 3 x 2
    assert holder["messages"] == 6
    assert metric_sum(cluster, "twopc_fast_path_total", kind="piggyback") == 1
    assert metric_sum(cluster, "decision_piggyback_saved_rpcs_total") >= 2
    for name in ("p1", "p2"):
        assert cluster.servers[name].mirrors == {}
        assert cluster.servers[name].prepared == {}
    assert_audit_clean(cluster)


def test_read_only_participant_skips_phase_two():
    """A participant that only read votes read-only, releases its locks at
    vote time and is never contacted again for this transaction."""
    cluster = make_cluster(["coord", "writer", "reader"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref_w = yield from client.create("writer", "counter", value=0)
        ref_r = yield from client.create("reader", "counter", value=42)
        action = client.top_level("t")
        yield from client.invoke(action, ref_w, "increment", 1)
        value = yield from client.invoke(action, ref_r, "get")
        sent = cluster.network.sent_count
        yield from client.commit(action)
        holder["messages"] = cluster.network.sent_count - sent
        holder.update(ref_w=ref_w, ref_r=ref_r, read=value,
                      action=action)

    cluster.run_process("coord", app())
    assert holder["read"] == 42
    assert committed_int(cluster, holder["ref_w"]) == 1
    # read-only prepare(reader) + delegated one-phase prepare(writer):
    # 2 RPCs — the reader sees no commit/finish traffic at all — at 2
    # messages per synchronous RPC = 2 x 2
    assert holder["messages"] == 4
    assert metric_sum(cluster, "twopc_fast_path_total", kind="read_only") == 1
    assert metric_sum(cluster, "read_only_saved_finish_total") == 1
    # the vote released the reader's locks and retired its mirror
    assert holder["action"].uid not in cluster.servers["reader"].mirrors
    # a second action takes the reader's lock without waiting
    def reread():
        action = client.top_level("again")
        value = yield from client.invoke(action, holder["ref_r"], "get")
        yield from client.commit(action)
        return value

    assert cluster.run_process("coord", reread()) == 42
    assert_audit_clean(cluster)


def test_fast_and_classic_reach_identical_state():
    """The fast paths change the message bill, never the outcome."""
    finals = {}
    for fast_paths in (False, True):
        cluster = make_cluster(["coord", "a", "b"], seed=11,
                               fast_paths=fast_paths)
        client = cluster.client("coord")
        holder = {}

        def app():
            ref_a = yield from client.create("a", "counter", value=0)
            ref_b = yield from client.create("b", "counter", value=0)
            for step in range(3):
                action = client.top_level(f"t{step}")
                yield from client.invoke(action, ref_a, "increment", 2)
                if step % 2 == 0:
                    yield from client.invoke(action, ref_b, "increment", 5)
                else:
                    yield from client.invoke(action, ref_b, "get")
                yield from client.commit(action)
            holder.update(ref_a=ref_a, ref_b=ref_b)

        cluster.run_process("coord", app())
        finals[fast_paths] = (committed_int(cluster, holder["ref_a"]),
                              committed_int(cluster, holder["ref_b"]))
        assert_audit_clean(cluster)
    assert finals[False] == finals[True] == (6, 10)


# -- lazy forget / checkpointing ---------------------------------------------


def test_forget_piggyback_lets_the_delegate_checkpoint():
    """The delegate's COMMITTED record is the only durable copy of the
    decision until the coordinator's lazy forget arrives; a checkpoint
    must retain it exactly until then."""
    cluster = make_cluster(["coord", "part"], config=FIXED)
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


def test_lost_delegated_reply_resolves_to_commit():
    """Dropping the piggybacked decision's *reply* must not fork the
    outcome: the coordinator blocks, asks the last agent via
    txn_outcome_query, and reports the commit that actually happened."""
    cluster = make_cluster(["coord", "p1", "p2"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref1 = yield from client.create("p1", "counter", value=0)
        ref2 = yield from client.create("p2", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref1, "increment", 5)
        yield from client.invoke(action, ref2, "increment", 5)
        t0 = cluster.kernel.now
        # the delegated prepare reaches p2 at t0+3 (after p1's round trip);
        # its reply — the decision acknowledgement — is dropped at t0+3.5
        cluster.kernel.schedule(
            3.5, lambda: cluster.network.partition("coord", "p2"))
        cluster.kernel.schedule(
            60.0, lambda: cluster.network.heal_all())
        yield from client.commit(action)
        holder["elapsed"] = cluster.kernel.now - t0
        holder.update(ref1=ref1, ref2=ref2)

    cluster.run_process("coord", app())
    # commit() reported success only after genuinely resolving the outcome
    assert holder["elapsed"] > 50.0
    assert committed_int(cluster, holder["ref1"]) == 5
    assert committed_int(cluster, holder["ref2"]) == 5
    coord_wal = cluster.nodes["coord"].wal
    assert coord_wal.last("coord_commit") is not None
    for name in ("p1", "p2"):
        assert cluster.servers[name].prepared == {}
    assert_audit_clean(cluster)


def test_crashed_read_only_voter_does_not_block_commit():
    """The read-only prepare is fire-and-forget: a dead reader downgrades
    the fast path (it falls back into the classic finish fan-out) without
    stalling or aborting the writer's commit."""
    cluster = make_cluster(["coord", "writer", "reader"], config=FIXED)
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
    cluster = make_cluster(["coord", "part", "zed"], config=FIXED)
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
    cluster = make_cluster(["coord", "part"], config=FIXED)
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
