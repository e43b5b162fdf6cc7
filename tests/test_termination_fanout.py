"""Termination fan-out: parallel/batched commit delivery, reapers,
prepare cancellation, presumed-abort vote for late prepares."""

from repro.cluster.cluster import Cluster
from repro.cluster.message import encode_colour, encode_uid
from repro.cluster.network import NetworkConfig
from repro.errors import CommitError
from tests.oracle import committed_int


FIXED = NetworkConfig(min_delay=1.0, max_delay=1.0)


def make_cluster(names, seed=0, config=None, **kwargs):
    cluster = Cluster(seed=seed, config=config, **kwargs)
    for name in names:
        cluster.add_node(name)
    return cluster


def commit_duration(participants, seed=0):
    """Simulated time spent inside commit() for one write per participant."""
    names = ["coord"] + [f"p{i}" for i in range(participants)]
    cluster = make_cluster(names, seed=seed, config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        refs = []
        for name in names[1:]:
            ref = yield from client.create(name, "counter", value=0)
            refs.append(ref)
        action = client.top_level("t")
        for ref in refs:
            yield from client.invoke(action, ref, "increment", 7)
        started = cluster.kernel.now
        yield from client.commit(action)
        holder["duration"] = cluster.kernel.now - started
        holder["refs"] = refs

    cluster.run_process("coord", app())
    for ref in holder["refs"]:
        assert committed_int(cluster, ref) == 7
    return holder["duration"]


def test_commit_latency_flat_in_participant_count():
    """Prepare, delegated decision and finish each go out as parallel
    rounds: past the one-phase regime (a single participant commits in a
    single round trip), commit time is bounded by the slowest server, not
    the server count."""
    single = commit_duration(1)
    pair = commit_duration(2)
    assert single < pair  # the one-phase fast path is genuinely cheaper
    wide = commit_duration(6)
    assert wide < pair * 2.0


def test_finish_batch_promotes_before_releasing_locks():
    """The per-server batch orders txn_commit before finish_commit, so the
    committed value is on disk by the time the next action gets the lock."""
    cluster = make_cluster(["coord", "part"], config=FIXED)
    client = cluster.client("coord")

    def app():
        ref = yield from client.create("part", "counter", value=0)
        action = client.top_level("t1")
        yield from client.invoke(action, ref, "increment", 3)
        yield from client.commit(action)
        # lock is free again: a second action reads the promoted state
        action2 = client.top_level("t2")
        value = yield from client.invoke(action2, ref, "get")
        yield from client.commit(action2)
        return value

    assert cluster.run_process("coord", app()) == 3


def test_unreachable_server_gets_reaped_after_heal():
    """finish_commit must not drop a live-but-partitioned server on the
    floor: a reaper keeps delivering until the locks there are released."""
    cluster = make_cluster(["coord", "p1", "p2"], lock_wait_timeout=3000.0)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref1 = yield from client.create("p1", "counter", value=0)
        ref2 = yield from client.create("p2", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref1, "increment", 5)
        yield from client.invoke(action, ref2, "increment", 5)
        # sever coord<->p1 after its prepare has landed but before the
        # decision/finish fan-out reaches it; p2 — the last agent — gets
        # the decision inside its own prepare and stays reachable
        cluster.kernel.schedule(
            6.0, lambda: cluster.network.partition("coord", "p1"))
        yield from client.commit(action)
        holder.update(ref1=ref1, ref2=ref2, action=action)

    cluster.run_process("coord", app())
    # the delegated participant committed; p1 holds prepared state/locks
    assert committed_int(cluster, holder["ref2"]) == 5
    action_uid = holder["action"].uid
    cluster.network.heal_all()
    cluster.run(until=cluster.kernel.now + 600)
    # the reaper delivered txn_commit + finish_commit: value promoted,
    # mirror (and with it every lock) gone — well before any lock timeout
    assert committed_int(cluster, holder["ref1"]) == 5
    assert action_uid not in cluster.servers["p1"].mirrors
    assert cluster.servers["p1"].prepared == {}


def test_prepare_after_txn_abort_votes_rollback():
    """Presumed abort: a straggling prepare that races past the txn_abort
    must not park the object in-doubt — the server votes rollback."""
    cluster = make_cluster(["coord", "part"], config=FIXED)
    client = cluster.client("coord")
    transport = cluster.transports["coord"]
    holder = {}

    def app():
        ref = yield from client.create("part", "counter", value=1)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 9)
        txn_id = "txn:test:late"
        # decision already broadcast: abort arrives first...
        yield from transport.call("part", "txn_abort", {"txn_id": txn_id})
        # ...then the straggler prepare for the same transaction
        reply = yield from transport.call("part", "txn_prepare", {
            "txn_id": txn_id,
            "action_uid": encode_uid(action.uid),
            "colour": encode_colour(next(iter(action.colours))),
            "object_uids": [encode_uid(ref.uid)],
            "expected_epoch": action.server_epochs.get("part"),
        })
        holder["vote"] = reply["vote"]
        holder["ref"] = ref

    cluster.run_process("coord", app())
    assert holder["vote"] == "rollback"
    server = cluster.servers["part"]
    assert server.prepared == {}
    assert holder["ref"].uid not in server.in_doubt_objects
    assert cluster.nodes["part"].stable_store.read_shadow(
        holder["ref"].uid) is None


def test_failed_prepare_round_leaves_no_prepared_state():
    """One participant unreachable => 2PC fails; the *other* participant's
    prepare must be actively aborted, not left in-doubt."""
    cluster = make_cluster(["coord", "fast", "dead"])
    client = cluster.client("coord")
    holder = {}

    def app():
        action = client.top_level("t")
        ref_fast = yield from client.create("fast", "counter", value=0)
        ref_dead = yield from client.create("dead", "counter", value=0)
        yield from client.invoke(action, ref_fast, "increment", 2)
        yield from client.invoke(action, ref_dead, "increment", 2)
        cluster.network.partition("coord", "dead")
        try:
            yield from client.commit(action)
            holder["outcome"] = "committed"
        except CommitError:
            holder["outcome"] = "commit-error"
        holder.update(ref_fast=ref_fast, ref_dead=ref_dead)

    cluster.run_process("coord", app())
    assert holder["outcome"] == "commit-error"
    fast = cluster.servers["fast"]
    assert fast.prepared == {}
    assert holder["ref_fast"].uid not in fast.in_doubt_objects
    assert cluster.nodes["fast"].stable_store.read_shadow(
        holder["ref_fast"].uid) is None
    assert committed_int(cluster, holder["ref_fast"]) == 0
    # after healing, the reapers deliver txn_abort/abort_action to 'dead'
    cluster.network.heal_all()
    cluster.run(until=cluster.kernel.now + 600)
    assert cluster.servers["dead"].prepared == {}
    assert committed_int(cluster, holder["ref_dead"]) == 0


def test_partial_multi_colour_commit_delivers_decided_colours():
    """When a later colour's 2PC fails, earlier colours' logged decisions
    are still delivered before the abort undoes anything."""
    cluster = make_cluster(["coord", "a", "b"])
    client = cluster.client("coord")
    holder = {}

    def app():
        c1 = client.fresh_colour("c1")
        c2 = client.fresh_colour("c2")
        action = client.coloured([c1, c2], name="two")
        ref_a = yield from client.create("a", "counter", value=0)
        ref_b = yield from client.create("b", "counter", value=0)
        yield from client.invoke(action, ref_a, "increment", 4, colour=c1)
        yield from client.invoke(action, ref_b, "increment", 4, colour=c2)
        # the second colour's participant becomes unreachable: its 2PC
        # fails, the first colour's already-decided commit must survive
        later = max((c1, c2), key=lambda c: c.uid)
        victim = "a" if later is c1 else "b"
        cluster.network.partition("coord", victim)
        try:
            yield from client.commit(action)
            holder["outcome"] = "committed"
        except CommitError:
            holder["outcome"] = "commit-error"
        holder.update(ref_a=ref_a, ref_b=ref_b, victim=victim)

    cluster.run_process("coord", app())
    assert holder["outcome"] == "commit-error"
    survivor_ref = (holder["ref_b"] if holder["victim"] == "a"
                    else holder["ref_a"])
    cluster.run(until=cluster.kernel.now + 100)
    # the earlier colour's update is permanent despite the overall abort
    assert committed_int(cluster, survivor_ref) == 4


def test_a_refused_prepare_has_one_cause_whatever_the_plan_shape():
    """A participant that lost its write set refuses the prepare.  The
    round's abort says ``prepare-refused`` — and ``why`` blames the
    refusing voter, not an injected fault — whether the action had one colour (fail-fast round)
    or two (batched run, where the next colour then cascades)."""
    from repro.obs.postmortem import CRASH_PARTITION

    seen = {}
    for colours in (1, 2):
        cluster = make_cluster(["coord", "a", "b"], config=FIXED)
        engine = cluster.observe(postmortem=True)["postmortem"]
        client = cluster.client("coord")

        def app():
            ref_a = yield from client.create("a", "counter", value=0)
            ref_b = yield from client.create("b", "counter", value=0)
            first, second = sorted(
                (client.fresh_colour(f"c{i}") for i in range(2)),
                key=lambda colour: colour.uid)
            if colours == 1:
                second = first
            action = client.coloured({first, second}, name="t")
            yield from client.invoke(action, ref_a, "increment", 1,
                                     colour=first)
            yield from client.invoke(action, ref_b, "increment", 1,
                                     colour=second)
            # premature release at a: no crash, no epoch change
            yield from cluster.transports["coord"].call(
                "a", "abort_action", {"action_uid": encode_uid(action.uid)})
            try:
                yield from client.commit(action)
            except CommitError:
                return "commit-error"

        assert cluster.run_process("coord", app()) == "commit-error"
        # the rounds themselves are forgotten with the finished action:
        # their causes are read off the retained decisions
        decided = {event.labels["txn"]: event.labels.get("cause", "")
                   for event in cluster.obs.layers["history"].events
                   if event.kind == "twopc.decision"}
        causes = [decided[txn_id] for txn_id in engine.record_for("t").txns]
        seen[colours] = (causes, engine.record_for("t").reason)
    # (the taxonomy files a lost write set under crash/partition)
    assert seen[1] == (["prepare-refused"], CRASH_PARTITION)
    assert seen[2] == (["prepare-refused", "colour-order-cascade"],
                       CRASH_PARTITION)
