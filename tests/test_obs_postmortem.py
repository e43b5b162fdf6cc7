"""Postmortems: seeded chaos must attribute to exactly the injected cause.

Mirrors ``test_obs_audit.py``'s structure: every scenario seeds one class
of death — through the real cluster harness (contention, an ABBA
deadlock, a crashed participant) or through a synthetic event stream —
and asserts the engine attributes exactly that taxonomy reason, names
the blocker where one exists, and that the ``why`` CLI agrees offline.
"""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import DeadlockDetected, LockTimeout
from repro.obs.bus import ObsEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.postmortem import (
    APP_ERROR,
    CASCADE,
    CRASH_PARTITION,
    DEADLOCK_VICTIM,
    EXPLICIT_ABORT,
    FAST_PATH_DOWNGRADE,
    INJECTED_FAULT,
    LOCK_CONFLICT,
    UNKNOWN,
    VOTE_ROLLBACK,
    PostmortemEngine,
)
from repro.obs.postmortem import engine as postmortem_engine
from repro.obs.postmortem import render
from repro.obs.__main__ import main as obs_main
from repro.sim.kernel import Timeout


def why_main(argv):
    return obs_main(["why", *argv])


# -- synthetic event streams ---------------------------------------------------


def replayed(events):
    """Run (kind, labels) pairs through a fresh engine; ticks are the
    stream positions (the audit suite's ``feed`` idiom)."""
    return PostmortemEngine.replay(
        ObsEvent(tick=float(index), kind=kind, labels=labels)
        for index, (kind, labels) in enumerate(events))


def begin(uid, colours="c", node="local", parent=""):
    return ("action.begin", {"action": uid, "name": uid, "parent": parent,
                             "colours": colours, "node": node})


def end(uid, outcome="aborted", colours="c", node="local"):
    return ("action.end", {"action": uid, "name": uid, "outcome": outcome,
                           "colours": colours, "node": node})


def failure(uid, cause, **labels):
    labels.setdefault("op", "op")
    return ("action.failure", {"action": uid, "cause": cause, **labels})


def grant(owner, obj, mode="write", colour="c", node="local"):
    return ("lock.granted", {"owner": owner, "object": obj, "mode": mode,
                             "colour": colour, "node": node})


def blocked(owner, obj, blockers, mode="write", colour="c", node="local"):
    return ("lock.blocked", {"owner": owner, "object": obj, "mode": mode,
                             "colour": colour, "node": node,
                             "blockers": blockers})


def refused(owner, obj, error="LockTimeout", mode="write", colour="c",
            node="local", reason="timeout"):
    return ("lock.refused", {"owner": owner, "object": obj, "mode": mode,
                             "colour": colour, "node": node,
                             "reason": reason, "error": error})


def release(owner, obj, mode="write", colour="c", node="local",
            reason="abort"):
    return ("lock.released", {"owner": owner, "object": obj, "mode": mode,
                              "colour": colour, "node": node,
                              "reason": reason})


def twopc(txn, action, colour="c", participants="n1"):
    return ("twopc.begin", {"txn": txn, "action": action, "colour": colour,
                            "participants": participants})


def vote(txn, node, what="commit", reason=""):
    return ("twopc.vote", {"txn": txn, "node": node, "vote": what,
                           "reason": reason})


def decision(txn, what="abort", cause=""):
    return ("twopc.decision", {"txn": txn, "decision": what, "cause": cause})


def only(engine):
    records = [r for r in engine.records if r.outcome == "aborted"]
    assert len(records) == 1, records
    return records[0]


def test_committed_actions_get_plain_records():
    engine = replayed([begin("a1"), end("a1", outcome="committed")])
    (record,) = engine.records
    assert record.outcome == "committed"
    assert record.reason == "" and record.blockers == ()
    assert engine.reason_counts == {}


def test_synthetic_lock_conflict_names_the_live_holder():
    engine = replayed([
        begin("holder"), begin("victim"),
        grant("holder", "obj", colour="h"),
        blocked("victim", "obj", blockers="holder"),
        refused("victim", "obj", error="LockTimeout"),
        end("victim"),
    ])
    record = only(engine)
    assert record.reason == LOCK_CONFLICT
    assert "blocked by holder" in record.detail
    (link,) = record.blockers
    assert (link.holder, link.object, link.status) == ("holder", "obj",
                                                       "holds")
    assert link.colour == "h" and link.held_for > 0


def test_synthetic_deadlock_refusal_is_a_deadlock_victim():
    engine = replayed([
        begin("holder"), begin("victim"),
        grant("holder", "obj"),
        blocked("victim", "obj", blockers="holder"),
        refused("victim", "obj", error="DeadlockDetected", reason="deadlock"),
        end("victim"),
    ])
    record = only(engine)
    assert record.reason == DEADLOCK_VICTIM
    assert "deadlock victim" in record.detail
    assert record.blockers[0].holder == "holder"


def test_released_holder_is_still_blamed_after_it_let_go():
    """The guilty party released before the timeout fired: the chain
    falls back to who the victim was queued behind, with its hold time."""
    engine = replayed([
        begin("holder"), begin("victim"),
        grant("holder", "obj"),
        blocked("victim", "obj", blockers="holder"),
        release("holder", "obj"),
        refused("victim", "obj", error="LockTimeout"),
        end("victim"),
    ])
    record = only(engine)
    assert record.reason == LOCK_CONFLICT
    (link,) = record.blockers
    assert link.holder == "holder" and link.status == "released"
    assert link.held_for > 0


def test_unseen_blocker_is_reported_as_queued_ahead():
    engine = replayed([
        begin("victim"),
        blocked("victim", "obj", blockers="ghost"),
        refused("victim", "obj", error="LockTimeout"),
        end("victim"),
    ])
    (link,) = only(engine).blockers
    assert link.holder == "ghost" and link.status == "queued-ahead"


def test_blocker_chain_chases_transitive_waits():
    """victim waits on a, a waits on b: the chain surfaces both hops."""
    engine = replayed([
        begin("a"), begin("b"), begin("victim"),
        grant("b", "obj2"),
        grant("a", "obj1"),
        blocked("a", "obj2", blockers="b"),
        blocked("victim", "obj1", blockers="a"),
        refused("victim", "obj1", error="LockTimeout"),
        end("victim"),
    ])
    record = only(engine)
    holders = [(link.holder, link.object, link.depth)
               for link in record.blockers]
    assert holders == [("a", "obj1", 0), ("b", "obj2", 1)]


def test_vote_rollback_blames_the_refusing_participant():
    engine = replayed([
        begin("a1"),
        twopc("txn:1", "a1", participants="n1,n2"),
        vote("txn:1", "n1", what="commit"),
        vote("txn:1", "n2", what="rollback"),
        decision("txn:1", "abort", cause="vote-rollback"),
        failure("a1", "commit-failed", colour="c"),
        end("a1"),
    ])
    record = only(engine)
    assert record.reason == VOTE_ROLLBACK
    assert "n2 voted rollback" in record.detail
    assert record.txns == ("txn:1",)


def test_epoch_restart_vote_is_a_crash_partition():
    engine = replayed([
        begin("a1"),
        twopc("txn:1", "a1"),
        vote("txn:1", "n1", what="rollback", reason="epoch-restart"),
        decision("txn:1", "abort", cause="vote-rollback"),
        failure("a1", "commit-failed", colour="c"),
        end("a1"),
    ])
    record = only(engine)
    assert record.reason == CRASH_PARTITION
    assert "restarted mid-prepare" in record.detail


def test_downgraded_fast_path_owns_the_abort():
    engine = replayed([
        begin("a1"),
        twopc("txn:1", "a1"),
        ("twopc.downgrade", {"txn": "txn:1", "reason": "mixed-votes",
                             "resolution": "classic", "dst": "n1"}),
        decision("txn:1", "abort", cause="fast-path-downgrade"),
        failure("a1", "commit-failed", colour="c"),
        end("a1"),
    ])
    record = only(engine)
    assert record.reason == FAST_PATH_DOWNGRADE
    assert "fast path degenerated" in record.detail


def test_downgrade_forced_by_a_dead_peer_is_a_crash_partition():
    engine = replayed([
        begin("a1"),
        twopc("txn:1", "a1"),
        ("node.crash", {"node": "n1"}),
        ("twopc.downgrade", {"txn": "txn:1", "reason": "delegated-reply-lost",
                             "resolution": "abort", "dst": "n1"}),
        decision("txn:1", "abort", cause="fast-path-downgrade"),
        failure("a1", "commit-failed", colour="c"),
        end("a1"),
    ])
    record = only(engine)
    assert record.reason == CRASH_PARTITION
    assert "crashed under the fast path" in record.detail


def test_silent_participant_on_crashed_node_is_a_crash_partition():
    engine = replayed([
        begin("a1"),
        twopc("txn:1", "a1", participants="n1,n2"),
        vote("txn:1", "n1", what="commit"),
        ("node.crash", {"node": "n2"}),
        decision("txn:1", "abort", cause="participant-unreachable"),
        failure("a1", "commit-failed", colour="c"),
        end("a1"),
    ])
    record = only(engine)
    assert record.reason == CRASH_PARTITION
    assert "n2 crashed before deciding" in record.detail


def test_silent_participant_with_all_nodes_alive_is_an_injected_fault():
    engine = replayed([
        begin("a1"),
        twopc("txn:1", "a1", participants="n1,n2"),
        vote("txn:1", "n1", what="commit"),
        decision("txn:1", "abort", cause="participant-unreachable"),
        failure("a1", "commit-failed", colour="c"),
        end("a1"),
    ])
    assert only(engine).reason == INJECTED_FAULT


def test_rpc_timeout_classification_depends_on_fault_knowledge():
    dead = replayed([
        begin("a1"),
        ("node.crash", {"node": "n2"}),
        failure("a1", "rpc-timeout", dst="n2"),
        end("a1"),
    ])
    assert only(dead).reason == CRASH_PARTITION
    alive = replayed([
        begin("a1"),
        failure("a1", "rpc-timeout", dst="n2"),
        end("a1"),
    ])
    assert only(alive).reason == INJECTED_FAULT


def test_parent_settled_and_app_error_and_explicit_abort():
    cascade = replayed([begin("a1"),
                        failure("a1", "parent-settled", detail="p1"),
                        end("a1")])
    assert only(cascade).reason == CASCADE
    app = replayed([begin("a1"),
                    failure("a1", "app-error", error="ValueError",
                            detail="boom"),
                    end("a1")])
    record = only(app)
    assert record.reason == APP_ERROR and "ValueError" in record.detail
    bare = replayed([begin("a1"), end("a1")])
    assert only(bare).reason == EXPLICIT_ABORT


def test_unclassifiable_cause_falls_back_to_unknown_and_gates():
    engine = replayed([begin("a1"),
                       failure("a1", "meteor-strike"),
                       end("a1")])
    record = only(engine)
    assert record.reason == UNKNOWN
    lines, gaps = render.abort_report(list(engine.records))
    assert gaps and "unknown" in gaps[0]
    assert any("ATTRIBUTION GAPS" in line for line in lines)


def test_abort_metrics_count_once_per_colour():
    metrics = MetricsRegistry()
    engine = PostmortemEngine(metrics=metrics)
    for index, (kind, labels) in enumerate([
            begin("a1", colours="red,blue"),
            failure("a1", "app-error", error="E", detail="d"),
            end("a1", colours="red,blue")]):
        engine.consume(ObsEvent(tick=float(index), kind=kind, labels=labels))
    assert engine.reason_counts == {APP_ERROR: 1}
    series = {row["labels"]["colour"]: row["value"]
              for row in metrics.dump()["counters"]
              if row["name"] == "abort_reason_total"}
    assert series == {"red": 1, "blue": 1}


def test_crosscheck_matches_and_flags_mismatches():
    engine = replayed([begin("a1", colours="red"),
                       failure("a1", "app-error", error="E"),
                       end("a1", colours="red")])
    records = list(engine.records)
    clean = {"counters": [{"name": "actions_aborted_total",
                           "labels": {"colour": "red"}, "value": 1}]}
    assert render.crosscheck(records, clean) == []
    off = {"counters": [{"name": "actions_aborted_total",
                         "labels": {"colour": "red"}, "value": 2}]}
    problems = render.crosscheck(records, off)
    assert problems and "colour red" in problems[0]


def test_record_for_matches_uid_name_and_txn():
    engine = replayed([
        begin("a1"),
        twopc("txn:9", "a1"),
        decision("txn:9", "commit"),
        end("a1", outcome="committed"),
    ])
    for query in ("a1", "txn:9"):
        assert engine.record_for(query) is not None, query
    assert engine.record_for("nothing") is None


def test_engine_bounds_and_validates_record_count(monkeypatch):
    monkeypatch.setattr(postmortem_engine, "MAX_RECORDS", 2)
    engine = PostmortemEngine()
    for index in range(4):
        for tick, (kind, labels) in enumerate(
                [begin(f"a{index}"), end(f"a{index}", outcome="committed")]):
            engine.consume(ObsEvent(tick=float(tick), kind=kind,
                                    labels=labels))
    assert [r.action for r in engine.records] == ["a2", "a3"]


def test_hub_binds_one_engine_per_section():
    from repro.obs import Observability

    hub = Observability()
    engine = hub.bind(PostmortemEngine())
    assert hub.layers["postmortem"] is engine
    with pytest.raises(RuntimeError, match="already bound"):
        hub.bind(PostmortemEngine())
    hub.bus.publish(ObsEvent(tick=0.0, kind="action.begin",
                             labels={"action": "a1"}))
    assert engine.seen == 1                  # subscribed exactly once


# -- real-harness seeded deaths ------------------------------------------------


def contention_run(tmp_path=None):
    """One holder camps on the lock past the victim's wait timeout."""
    cluster = Cluster(seed=7, lock_wait_timeout=12.0)
    for name in ("n0", "n1"):
        cluster.add_node(name)
    engine = cluster.observe(timeline={"interval": 3.0}, flight_recorder=True,
                             postmortem=True)["postmortem"]
    c1 = cluster.client("n0", name="c1")
    c2 = cluster.client("n0", name="c2")
    refs = {}

    def setup():
        refs["x"] = yield from c1.create("n1", "counter", value=0)

    cluster.run_process("n0", setup())

    def holder():
        action = c1.top_level("holder")
        yield from c1.invoke(action, refs["x"], "increment", 1)
        yield Timeout(30.0)
        yield from c1.commit(action)

    def victim():
        yield Timeout(1.0)
        action = c2.top_level("victim")
        try:
            yield from c2.invoke(action, refs["x"], "increment", 1)
            yield from c2.commit(action)
        except LockTimeout:
            if not action.status.terminated:
                yield from c2.abort(action)

    cluster.spawn("n0", holder())
    cluster.spawn("n0", victim())
    cluster.run()
    path = None
    if tmp_path is not None:
        path = str(tmp_path / "contention.trace.json")
        cluster.obs.save(path)
    return cluster, engine, path


def test_cluster_contention_attributes_lock_conflict_with_blocker():
    cluster, engine, _path = contention_run()
    aborted = engine.aborted()
    assert len(aborted) == 1
    record = aborted[0]
    assert record.reason == LOCK_CONFLICT
    assert record.name == "victim"
    # the blocker chain names the holder's action and its colour
    assert record.blockers, "lock-conflict abort must carry a blocker"
    head = record.blockers[0]
    holder_record = engine.record_for("holder")
    assert head.holder == holder_record.action
    assert head.colour in holder_record.colours
    assert head.held_for > 0
    # attribution totals agree with the bridge's per-colour counters
    assert render.crosscheck(list(engine.records),
                             cluster.obs.metrics.dump()) == []


def test_a_committed_reader_writer_is_never_blamed():
    """A reads, writes and reads the counter again, then commits: one
    joined lock record, released once.  H then takes the counter and
    camps on it until B times out — B is blocked by H alone, not by
    phantom READ holds A left behind."""
    cluster = Cluster(seed=7, lock_wait_timeout=12.0)
    for name in ("n0", "n1"):
        cluster.add_node(name)
    engine = cluster.observe(postmortem=True)["postmortem"]
    client = cluster.client("n0", name="c")
    refs = {}

    def setup():
        refs["x"] = yield from client.create("n1", "counter", value=0)
        reader = client.top_level("A")
        for method, args in (("get", ()), ("increment", (1,)), ("get", ())):
            yield from client.invoke(reader, refs["x"], method, *args)
        yield from client.commit(reader)

    cluster.run_process("n0", setup())

    def holder():
        action = client.top_level("H")
        yield from client.invoke(action, refs["x"], "increment", 1)
        yield Timeout(30.0)
        yield from client.commit(action)

    def victim():
        yield Timeout(1.0)
        action = client.top_level("B")
        try:
            yield from client.invoke(action, refs["x"], "increment", 1)
        except LockTimeout:
            yield from client.abort(action)

    cluster.spawn("n0", holder())
    cluster.spawn("n0", victim())
    cluster.run()
    record = engine.record_for("B")
    assert record.reason == LOCK_CONFLICT
    holder_uid = engine.record_for("H").action
    assert [(link.holder, link.status, link.mode)
            for link in record.blockers] == [(holder_uid, "holds", "write")]


def test_an_upgrade_is_one_record_in_the_world():
    engine = replayed([
        begin("a"),
        grant("a", "obj", mode="read"),
        grant("a", "obj", mode="write"),
        grant("a", "obj", mode="read"),
    ])
    (records,) = engine.world.holds[("local", "obj")].values()
    (held,) = records.values()
    assert (held.mode, held.since) == ("write", 1.0)
    engine.consume(ObsEvent(tick=4.0, kind="lock.released",
                            labels=release("a", "obj")[1]))
    assert engine.world.holds == {}


def test_cluster_deadlock_attributes_exactly_one_victim():
    cluster = Cluster(seed=0, edge_chasing=True, lock_wait_timeout=600.0,
                      probe_interval=3.0)
    for name in ("home1", "home2", "s1", "s2"):
        cluster.add_node(name)
    engine = cluster.observe(postmortem=True)["postmortem"]
    c1 = cluster.client("home1", "c1")
    c2 = cluster.client("home2", "c2")
    refs = {}

    def setup():
        refs["obj1"] = yield from c1.create("s1", "counter", value=0)
        refs["obj2"] = yield from c1.create("s2", "counter", value=0)

    def worker(client, label, first, second):
        action = client.top_level(label)
        try:
            yield from client.invoke(action, refs[first], "increment", 1)
            yield Timeout(5.0)
            yield from client.invoke(action, refs[second], "increment", 1)
            yield from client.commit(action)
        except (DeadlockDetected, LockTimeout):
            if not action.status.terminated:
                yield from client.abort(action)

    cluster.run_process("home1", setup())
    cluster.spawn("home1", worker(c1, "t1", "obj1", "obj2"))
    cluster.spawn("home2", worker(c2, "t2", "obj2", "obj1"))
    cluster.run(until=400)
    aborted = engine.aborted()
    assert len(aborted) == 1, aborted
    record = aborted[0]
    assert record.reason == DEADLOCK_VICTIM
    assert record.blockers, "the cycle partner must be named"
    survivor = {"t1", "t2"} - {record.name}
    assert engine.record_for(survivor.pop()).outcome == "committed"
    assert engine.reason_counts == {DEADLOCK_VICTIM: 1}


def test_cluster_crashed_participant_attributes_crash_partition():
    cluster = Cluster(seed=3, rpc_retries=1, lock_wait_timeout=60.0)
    for name in ("n0", "n1"):
        cluster.add_node(name)
    engine = cluster.observe(postmortem=True)["postmortem"]
    client = cluster.client("n0", name="c")
    refs = {}

    def setup():
        refs["x"] = yield from client.create("n1", "counter", value=0)

    cluster.run_process("n0", setup())

    def doomed():
        action = client.top_level("doomed")
        try:
            yield from client.invoke(action, refs["x"], "increment", 1)
            cluster.crash("n1")
            # the termination protocol polls until the participant is
            # back; give it a corpse to interrogate eventually
            cluster.restart_at("n1", cluster.kernel.now + 60.0)
            yield from client.commit(action)
        except Exception:
            if not action.status.terminated:
                yield from client.abort(action)

    cluster.spawn("n0", doomed())
    cluster.run(until=2_000.0)
    record = engine.record_for("doomed")
    assert record is not None and record.outcome == "aborted"
    # the crash owns the abort even though the single-participant fast
    # path is what mechanically degenerated
    assert record.reason == CRASH_PARTITION
    assert "n1" in record.detail
    assert engine.reason_counts == {CRASH_PARTITION: 1}


# -- the why CLI ---------------------------------------------------------------


@pytest.fixture(scope="module")
def contention_dump(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("why")
    _cluster, _engine, path = contention_run(tmp_path)
    return path


def test_why_cli_summary_exits_zero(contention_dump, capsys):
    assert why_main([contention_dump]) == 0
    out = capsys.readouterr().out
    assert "1 aborted" in out
    assert LOCK_CONFLICT in out


def test_why_cli_aborts_is_clean_and_names_the_blocker(contention_dump,
                                                       capsys):
    assert why_main([contention_dump, "--aborts"]) == 0
    out = capsys.readouterr().out
    assert "top blockers" in out
    assert "blocked by:" in out
    assert "ATTRIBUTION GAPS" not in out


def test_why_cli_aborts_json_round_trips(contention_dump, capsys):
    assert why_main([contention_dump, "--aborts", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reasons"] == {LOCK_CONFLICT: 1}
    assert doc["gaps"] == []
    (record,) = doc["records"]
    assert record["name"] == "victim"
    assert record["blockers"][0]["holder"]


def test_why_cli_explains_one_transaction_by_name(contention_dump, capsys):
    assert why_main([contention_dump, "victim"]) == 0
    out = capsys.readouterr().out
    assert LOCK_CONFLICT in out and "blocked by:" in out
    # the committed holder resolves too, with its commit critical path
    assert why_main([contention_dump, "holder"]) == 0
    out = capsys.readouterr().out
    assert "committed" in out and "commit took" in out


def test_why_cli_slowest_renders_gating_chains(contention_dump, capsys):
    assert why_main([contention_dump, "--slowest", "2"]) == 0
    out = capsys.readouterr().out
    assert "commit took" in out
    assert "serve:txn_prepare" in out


def test_why_cli_unknown_query_exits_one(contention_dump, capsys):
    assert why_main([contention_dump, "no-such-txn"]) == 1
    assert "no finished action" in capsys.readouterr().err


def test_why_cli_gapped_dump_exits_two(tmp_path, capsys):
    """An abort the taxonomy cannot place must gate (exit 2), exactly as
    the acceptance bar demands zero ``unknown`` on healthy runs."""
    stream = [begin("a1"), failure("a1", "meteor-strike"), end("a1")]
    dump = {
        "format": "repro-obs/1",
        "spans": [],
        "metrics": {"counters": []},
        "events": [{"tick": float(index), "kind": kind, "labels": labels}
                   for index, (kind, labels) in enumerate(stream)],
    }
    path = tmp_path / "gapped.trace.json"
    path.write_text(json.dumps(dump))
    assert why_main([str(path), "--aborts"]) == 2
    assert "ATTRIBUTION GAPS" in capsys.readouterr().out
