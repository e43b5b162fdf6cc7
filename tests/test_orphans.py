"""The orphan rule: a restarted home ends its dead actions' mirrors.

A node that hosts a client tells every other node, at each restart, that
it restarted (``home_restarted``, retried until answered).  The notice's
rpc id carries the home's new epoch; a server ends every mirror that
home built in an older epoch — an *orphan*, whose client died with the
home — first settling the orphan's PREPARED entries by asking the home
(presumed abort), then undoing and releasing as ``abort_action`` does.
Every case runs on both backends and ends in the §5.1 oracle.
"""

from repro.cluster.cluster import Cluster
from tests.oracle import FIXED, Over, check, committed_int, on_both_backends


def homed(backend, nodes=("p1", "p2"), **kwargs):
    """A cluster of ``home`` (the client's node) plus ``nodes``."""
    cluster = Cluster(seed=0, config=FIXED, backend=backend, **kwargs)
    for name in ("home",) + tuple(nodes):
        cluster.add_node(name)
    return cluster, cluster.client("home")


def sends(cluster, kind, dst, fates=lambda message, beneath: None):
    """Record the tick of every ``kind`` send to ``dst``; ``fates`` may
    decide one (None leaves it to the plan beneath)."""
    sent = []

    def decide(message):
        if message.kind == kind and message.dst == dst:
            sent.append(cluster.kernel.now)
            return fates(message, plan.beneath)

    plan = Over(cluster.network, decide)
    return sent


def invoked(cluster, client, ref, action=None):
    """An action (a fresh one by default) that incremented ``ref``."""
    action = action or client.top_level("orphan")
    cluster.run_process("home", client.invoke(action, ref, "increment", 1))
    return action


def bounce_home(cluster):
    cluster.crash("home")
    cluster.restart("home")


@on_both_backends
def test_a_dropped_first_notice_is_retried(backend):
    """The first notice to p1 is lost; its retransmission ends the
    orphan's mirror there: the write is undone and the lock released."""
    cluster, client = homed(backend)
    ref = cluster.run_process("home", client.create("p1", "counter", value=0))
    invoked(cluster, client, ref)
    notices = sends(cluster, "home_restarted", "p1",
                    lambda message, beneath: () if len(notices) == 1
                    else None)
    bounce_home(cluster)
    cluster.run()
    assert len(notices) == 2
    p1 = cluster.servers["p1"]
    assert p1.mirrors == {} and p1.registry.snapshot()["held"] == 0
    assert p1.objects[ref.uid].value == 0
    check(cluster)
    cluster.close()


@on_both_backends
def test_a_mirror_built_in_the_homes_new_epoch_survives_a_late_notice(
        backend):
    """The notices to p1 sent before the restarted home's new action took
    a lock there arrive 30 units late, the later ones after that lock:
    only the orphan goes, and the new action commits."""
    cluster, client = homed(backend)
    old_ref, new_ref = (
        cluster.run_process("home", client.create("p1", "counter", value=0))
        for _ in range(2))
    orphan = invoked(cluster, client, old_ref)
    late = [True]
    notices = sends(cluster, "home_restarted", "p1",
                    lambda message, beneath: tuple(
                        extra + 30.0 for extra in beneath.fates(message))
                    if late else None)
    bounce_home(cluster)
    fresh = invoked(cluster, client, new_ref)
    late.clear()
    p1 = cluster.servers["p1"]
    assert set(p1.mirrors) == {orphan.uid, fresh.uid}
    cluster.run(until=cluster.kernel.now + 40.0)
    assert notices and set(p1.mirrors) == {fresh.uid}
    cluster.run_process("home", client.commit(fresh))
    assert [committed_int(cluster, ref) for ref in (old_ref, new_ref)] \
        == [0, 1]
    check(cluster)
    cluster.close()


def prepared_then_home_crashes(backend, after):
    """Two classic writers prepared; the home crashes just ``after`` (or
    before) its ``coord_commit`` append and restarts 20 units later.  The
    first two ``txn_commit`` sends to p1 are lost unless p1 has asked the
    home, so p1 learns the outcome by asking.  Returns the asks, the
    logs, the committed values and what p1 had left before the oracle
    restarted every node."""
    cluster, client = homed(backend, fast_paths=False)
    refs = [cluster.run_process("home", client.create(name, "counter",
                                                      value=0))
            for name in ("p1", "p2")]
    action = invoked(cluster, client, refs[0])
    invoked(cluster, client, refs[1], action)
    asked = sends(cluster, "txn_decision_query", "home")

    def crash(node, kind, when):
        if (node, kind, when) == ("home", "coord_commit", after):
            cluster.restart_at("home", cluster.kernel.now + 20.0)
            return True

    Over(cluster.network, crash=crash)
    commits = sends(cluster, "txn_commit", "p1",
                    lambda message, beneath: None
                    if asked or len(commits) > 2 else ())
    cluster.spawn("home", client.commit(action))
    cluster.run()
    wal = {name: [record.kind for record in cluster.nodes[name].wal.records()]
           for name in ("home", "p1")}
    values = [committed_int(cluster, ref) for ref in refs]
    p1 = cluster.servers["p1"]
    left = (dict(p1.prepared), dict(p1.mirrors))
    check(cluster)
    cluster.close()
    return asked, wal, values, left


@on_both_backends
def test_a_prepared_participant_of_a_restarted_coordinator_asks_then_aborts(
        backend):
    """Nothing on the home's log: p1 asks, is told abort (presumed), and
    the orphan's write is undone."""
    asked, wal, values, left = prepared_then_home_crashes(backend,
                                                          after=False)
    assert asked and left == ({}, {})
    assert wal == {"home": [], "p1": ["prepared", "aborted"]}
    assert values == [0, 0]


@on_both_backends
def test_a_prepared_participant_of_a_restarted_coordinator_asks_then_commits(
        backend):
    """The home logged its commit before it crashed: p1 asks and is told
    commit, and the restarted home ends the transaction."""
    asked, wal, values, left = prepared_then_home_crashes(backend,
                                                          after=True)
    assert asked and left == ({}, {})
    assert wal == {"home": ["coord_commit", "coord_end"],
                   "p1": ["prepared", "committed"]}
    assert values == [1, 1]


@on_both_backends
def test_a_queued_waiter_of_an_orphan_is_refused_and_its_reply_slot_filled(
        backend):
    """The orphan's invoke is queued at p1 behind another home's lock when
    its home crashes: the notice ends the orphan there, its request is
    refused and answered, and the holder then commits alone."""
    cluster, client = homed(backend, nodes=("other", "p1"))
    holder_client = cluster.client("other")
    ref = cluster.run_process("home", client.create("p1", "counter", value=0))
    holder = holder_client.top_level("holder")
    cluster.run_process("other", holder_client.invoke(
        holder, ref, "increment", 1))
    cluster.spawn("home", client.invoke(client.top_level("orphan"), ref,
                                        "increment", 1))
    cluster.run(until=cluster.kernel.now + 3.0)
    p1 = cluster.servers["p1"]
    assert len(p1.mirrors) == 2 and p1.registry.snapshot()["queued"] == 1
    bounce_home(cluster)
    cluster.run(until=cluster.kernel.now + 10.0)
    assert p1.registry.snapshot()["queued"] == 0
    assert [mirror.home for mirror in p1.mirrors.values()] == ["other"]
    for caller in p1.node.volatile.get("rpc_cache", {}).values():
        assert None not in caller.replies.values()
    cluster.run_process("other", holder_client.commit(holder))
    assert committed_int(cluster, ref) == 1
    check(cluster)
    cluster.close()
