"""The online invariant auditor: seeded violations, clean runs, CLI.

Every test seeds exactly one class of misbehaviour — either through the
real harness (a LocalRuntime mis-driven on purpose) or through a
synthetic event stream — and asserts the auditor reports exactly that
finding kind.  Clean streams and clean harness runs must report nothing.
"""

import json

import pytest

from repro.actions.action import Action
from repro.obs import History, Observability
from repro.obs.audit import Finding, InvariantAuditor
from repro.obs.audit import findings as F
from repro.obs.__main__ import main as obs_main
from repro.obs.audit.testing import install_online_audit
from repro.obs.bus import ObsEvent
from repro.obs.metrics import MetricsRegistry
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter


def audit_main(argv):
    return obs_main(["audit", *argv])


def feed(auditor, events):
    """Replay (kind, labels) pairs; ticks are the stream positions."""
    for index, (kind, labels) in enumerate(events):
        auditor.consume(ObsEvent(tick=float(index), kind=kind,
                                 labels=labels, seq=index + 1))


def kinds_of(auditor):
    return {finding.kind for finding in auditor.report()}


def begin(uid, parent="", colours="c", node="local"):
    return ("action.begin", {"action": uid, "name": uid, "parent": parent,
                             "colours": colours, "node": node})


def grant(owner, obj, mode="write", colour="c", node="local"):
    return ("lock.granted", {"owner": owner, "object": obj, "mode": mode,
                             "colour": colour, "node": node})


def release(owner, obj, colour="c", node="local", reason="commit"):
    return ("lock.released", {"owner": owner, "object": obj,
                              "colour": colour, "node": node,
                              "reason": reason})


# -- real-harness seeded violations -------------------------------------------


def observed_runtime(history=False):
    """A runtime on a bare hub (the auditor reads the bus by kind), or on
    one that also keeps the run: events for a replay, series per colour."""
    runtime = LocalRuntime()
    if history:
        runtime.obs.bind(History())
    return runtime, runtime.obs


def test_clean_local_run_has_no_findings():
    runtime, hub = observed_runtime()
    with runtime.top_level(name="outer"):
        counter = Counter(runtime, value=0)
        with runtime.atomic(name="inner"):
            counter.increment(2)
        counter.increment(1)
    assert hub.auditor.report() == []


def test_seeded_premature_release_is_a_two_phase_violation():
    """A buggy runtime that unlocks mid-action and then re-acquires."""
    runtime, hub = observed_runtime()
    with runtime.top_level(name="t") as action:
        counter = Counter(runtime, value=0)
        counter.increment(1)
        runtime.locks.release_action(action.uid)   # the seeded bug
        counter.increment(1)                       # growing after shrinking
    assert kinds_of(hub.auditor) == {F.TWO_PHASE}


def test_seeded_misrouted_commit_is_a_commit_route_violation(monkeypatch):
    """A child that persists a colour its live parent still possesses."""
    runtime, hub = observed_runtime()
    with runtime.top_level(name="outer"):
        counter = Counter(runtime, value=0)
        scope = runtime.atomic(name="inner")
        with scope:
            counter.increment(1)
            # seeded routing bug: "no ancestor has my colours"
            monkeypatch.setattr(Action, "closest_ancestor_with",
                                lambda self, colour: None)
        monkeypatch.undo()
    assert kinds_of(hub.auditor) == {F.COMMIT_ROUTE}


def test_install_online_audit_raises_and_dumps(tmp_path):
    with pytest.raises(AssertionError) as failure:
        with install_online_audit(dump_dir=str(tmp_path)):
            runtime = LocalRuntime()   # auto-instrumented by the fixture
            with runtime.top_level(name="t") as action:
                counter = Counter(runtime, value=0)
                counter.increment(1)
                runtime.locks.release_action(action.uid)
                counter.increment(1)
    assert F.TWO_PHASE in str(failure.value)
    dumps = sorted(tmp_path.glob("audit-violation-*.trace.json"))
    assert dumps, "guilty hub dump should be saved for offline replay"
    assert audit_main([str(dumps[0])]) == 2    # CLI agrees on the replay


def test_install_online_audit_passes_clean_runs(tmp_path):
    with install_online_audit(dump_dir=str(tmp_path)):
        runtime = LocalRuntime()
        with runtime.top_level(name="t"):
            Counter(runtime, value=0).increment(1)
    assert list(tmp_path.glob("*.trace.json")) == []


def test_crashing_subscriber_is_isolated_but_never_silent():
    """A subscriber that raises must not break the publisher — and must not
    pass for a quiet one: with the auditor replaced by a crasher, a commit
    decision followed by an abort decision yields no finding, so "auditor
    silent" alone would be vacuous."""
    def boom(event):
        raise RuntimeError(f"cannot digest {event.kind}")

    with pytest.raises(AssertionError, match="subscriber.*crashed"):
        with install_online_audit():
            hub = Observability()
            clean_dump = hub.dump()
            hub.bus.unsubscribe(hub.world.consume)
            hub.bus.subscribe(boom)
            seen = []
            hub.bus.subscribe(seen.append)
            for decision in ("commit", "abort"):
                hub.emit("twopc.decision", txn="t1", decision=decision,
                         node="home")
            # the publisher and the other subscribers are unaffected
            assert [event.label("decision") for event in seen] == [
                "commit", "abort"]
            assert hub.auditor.report() == []
            # counted per failure, first exception kept
            (name,) = hub.bus.errors
            assert "boom" in name
            assert "twopc.decision" in str(hub.bus.errors[name])
            assert hub.metrics.value("obs_subscriber_errors_total",
                                     subscriber=name) == 2
            # the counter is created by the first error only
            assert "obs_subscriber_errors_total" not in {
                row["name"] for row in clean_dump["counters"]}


# -- synthetic streams: locking ------------------------------------------------


def test_clean_inheritance_stream_has_no_findings():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("P"),
        begin("C", parent="P"),
        grant("C", "o1"),
        ("commit.route", {"action": "C", "colour": "c", "dest": "P",
                          "node": "local"}),
        ("lock.inherited", {"owner": "C", "to": "P", "object": "o1",
                            "mode": "write", "colour": "c",
                            "node": "local"}),
        ("action.end", {"action": "C", "outcome": "committed"}),
        ("commit.route", {"action": "P", "colour": "c", "dest": "",
                          "node": "local"}),
        ("colour.permanent", {"action": "P", "colour": "c",
                              "objects": "o1", "node": "local"}),
        release("P", "o1"),
        ("action.end", {"action": "P", "outcome": "committed"}),
    ])
    assert auditor.report() == []


def test_conflicting_write_grant_is_a_lock_rule_violation():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("A"),
        begin("B"),
        grant("A", "o1"),
        grant("B", "o1"),   # non-ancestor holder: breaks rule W
    ])
    assert kinds_of(auditor) == {F.LOCK_RULE}


def test_cross_colour_write_records_are_a_lock_rule_violation():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("P", colours="c1,c2"),
        begin("A", parent="P", colours="c1,c2"),
        grant("P", "o1", colour="c1"),
        grant("A", "o1", colour="c2"),   # holder IS an ancestor, but the
                                         # write records disagree on colour
    ])
    assert kinds_of(auditor) == {F.LOCK_RULE}


def test_node_restart_resets_lock_state():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("A", node="n1"),
        begin("B", node="n1"),
        grant("A", "o1", node="n1"),
        ("node.restart", {"node": "n1"}),
        grant("B", "o1", node="n1"),   # fine: the crash wiped A's record
    ])
    assert auditor.report() == []


def test_unit_cycle_is_a_serialization_violation():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("A"),
        begin("A1", parent="A"),
        begin("A2", parent="A"),
        begin("B"),
        grant("A1", "o1"),
        release("A1", "o1"),
        grant("B", "o1"),        # unit A before unit B on o1
        grant("B", "o2"),
        release("B", "o1"),
        release("B", "o2"),
        grant("A2", "o2"),       # unit B before unit A on o2: a cycle
    ])
    report = auditor.report()
    assert {finding.kind for finding in report} == {F.SERIALIZATION_CYCLE}
    [finding] = report
    assert "A" in finding.message and "B" in finding.message


def test_misrouted_permanence_is_a_commit_route_violation():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("P"),
        begin("C", parent="P"),
        ("commit.route", {"action": "C", "colour": "c", "dest": "",
                          "node": "local"}),   # P is live and coloured c
    ])
    assert kinds_of(auditor) == {F.COMMIT_ROUTE}


def test_persisting_an_unpossessed_colour_is_an_atomicity_violation():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("A", colours="c1"),
        ("colour.permanent", {"action": "A", "colour": "c2",
                              "objects": "o1", "node": "local"}),
    ])
    assert kinds_of(auditor) == {F.ATOMICITY}


# -- synthetic streams: 2PC state machine -------------------------------------


def test_commit_decision_over_a_rollback_vote():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.begin", {"txn": "t1", "action": "A", "colour": "c",
                         "participants": "n1", "node": "home"}),
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "rollback",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "node": "home"}),
    ])
    assert kinds_of(auditor) == {F.COMMIT_AFTER_ROLLBACK}


def test_shadow_promotion_without_a_decision():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "commit",
                        "colour": "c"}),
        ("twopc.commit", {"txn": "t1", "node": "n1", "objects": "o1"}),
    ])
    assert kinds_of(auditor) == {F.COMMIT_WITHOUT_DECISION}


def test_shadow_promotion_after_an_abort_decision():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.decision", {"txn": "t1", "decision": "abort",
                            "node": "home"}),
        ("twopc.commit", {"txn": "t1", "node": "n1", "objects": "o1"}),
    ])
    assert kinds_of(auditor) == {F.ATOMICITY, F.COMMIT_WITHOUT_DECISION}


def test_presumed_abort_contradicting_a_logged_commit():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "node": "home"}),
        ("twopc.decision_query", {"txn": "t1", "decision": "abort",
                                  "node": "home"}),
    ])
    assert kinds_of(auditor) == {F.PRESUMED_ABORT}


def test_opposite_decisions_conflict():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "node": "home"}),
        ("twopc.decision", {"txn": "t1", "decision": "abort",
                            "node": "home"}),
    ])
    assert kinds_of(auditor) == {F.DECISION_CONFLICT}


def test_commit_voter_left_in_doubt_after_coordinator_end():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "commit",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "node": "home"}),
        ("twopc.end", {"txn": "t1", "node": "home"}),
    ])
    assert kinds_of(auditor) == {F.IN_DOUBT_AFTER_END}


def test_clean_twopc_round_has_no_findings():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.begin", {"txn": "t1", "action": "A", "colour": "c",
                         "participants": "n1,n2", "node": "home"}),
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "commit",
                        "colour": "c"}),
        ("twopc.vote", {"txn": "t1", "node": "n2", "vote": "commit",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "node": "home"}),
        ("twopc.commit", {"txn": "t1", "node": "n1", "objects": "o1"}),
        ("twopc.commit", {"txn": "t1", "node": "n2", "objects": "o2"}),
        ("twopc.end", {"txn": "t1", "node": "home"}),
    ])
    assert auditor.report() == []


def test_fast_path_decision_without_quorum():
    """A delegated (piggybacked) decision is only sound once every other
    participant's affirmative vote is in evidence."""
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.begin", {"txn": "t1", "action": "A", "colour": "c",
                         "participants": "n1,n2", "node": "home"}),
        # n1 never voted, yet the last agent decides commit
        ("twopc.vote", {"txn": "t1", "node": "n2", "vote": "commit",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "fast_path": "piggyback", "node": "n2",
                            "colour": "c"}),
    ])
    assert kinds_of(auditor) == {F.FAST_PATH_NO_QUORUM}


def test_fast_path_decision_with_quorum_is_clean():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.begin", {"txn": "t1", "action": "A", "colour": "c",
                         "participants": "n1,n2", "node": "home"}),
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "commit",
                        "colour": "c"}),
        ("twopc.vote", {"txn": "t1", "node": "n2", "vote": "commit",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "fast_path": "piggyback", "node": "n2",
                            "colour": "c"}),
        ("twopc.commit", {"txn": "t1", "node": "n2", "objects": "o2"}),
        ("twopc.commit", {"txn": "t1", "node": "n1", "objects": "o1"}),
        ("twopc.end", {"txn": "t1", "node": "home"}),
    ])
    assert auditor.report() == []


def test_one_phase_decision_at_sole_participant_is_clean():
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.begin", {"txn": "t1", "action": "A", "colour": "c",
                         "participants": "n1", "node": "home"}),
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "commit",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "fast_path": "one_phase", "node": "n1",
                            "colour": "c"}),
        ("twopc.commit", {"txn": "t1", "node": "n1", "objects": "o1"}),
        ("twopc.end", {"txn": "t1", "node": "home"}),
    ])
    assert auditor.report() == []


def test_read_only_voter_in_phase_two():
    """A read-only voter released its locks at vote time; driving it
    through phase two anyway is a protocol violation."""
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.begin", {"txn": "t1", "action": "A", "colour": "c",
                         "participants": "n1", "node": "home"}),
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "commit",
                        "colour": "c"}),
        ("twopc.vote", {"txn": "t1", "node": "n2", "vote": "read-only",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "node": "home"}),
        ("twopc.commit", {"txn": "t1", "node": "n1", "objects": "o1"}),
        ("twopc.commit", {"txn": "t1", "node": "n2", "objects": "o2"}),
        ("twopc.end", {"txn": "t1", "node": "home"}),
    ])
    assert kinds_of(auditor) == {F.READ_ONLY_IN_PHASE_TWO}


def test_read_only_vote_is_affirmative_and_leaves_the_protocol():
    """read-only neither negates a commit decision nor counts as an
    in-doubt participant once the coordinator ends the transaction."""
    auditor = InvariantAuditor()
    feed(auditor, [
        ("twopc.begin", {"txn": "t1", "action": "A", "colour": "c",
                         "participants": "n1", "node": "home"}),
        ("twopc.vote", {"txn": "t1", "node": "n1", "vote": "commit",
                        "colour": "c"}),
        ("twopc.vote", {"txn": "t1", "node": "n2", "vote": "read-only",
                        "colour": "c"}),
        ("twopc.decision", {"txn": "t1", "decision": "commit",
                            "node": "home"}),
        ("twopc.commit", {"txn": "t1", "node": "n1", "objects": "o1"}),
        ("twopc.end", {"txn": "t1", "node": "home"}),
    ])
    assert auditor.report() == []


def test_findings_are_counted_once_in_metrics():
    registry = MetricsRegistry()
    auditor = InvariantAuditor(metrics=registry)
    feed(auditor, [
        begin("A"),
        ("colour.permanent", {"action": "A", "colour": "zz",
                              "objects": "o1", "node": "local"}),
    ])
    auditor.report()
    auditor.report()   # report-time checks must not double-count
    assert registry.value("audit_findings_total",
                          kind=F.ATOMICITY) == 1


def test_finding_round_trips_through_dict():
    finding = Finding(kind=F.TWO_PHASE, message="m", tick=1.0, colour="c",
                      node="n", action="a", object="o", event_seqs=(1, 2))
    as_dict = finding.to_dict()
    assert as_dict["kind"] == F.TWO_PHASE
    assert as_dict["event_seqs"] == [1, 2]
    assert F.TWO_PHASE in str(finding)


# -- the lock hold-time histogram ---------------------------------------------


def test_hold_time_spans_inheritance_and_is_labelled_by_colour():
    hub = Observability()
    hub.bind(History())
    labels = {"node": "n1", "owner": "A", "object": "o1", "colour": "c"}
    hub.world.consume(ObsEvent(1.0, "lock.granted", dict(labels)))
    hub.world.consume(ObsEvent(4.0, "lock.inherited", dict(labels, to="P")))
    hub.world.consume(ObsEvent(9.0, "lock.released", dict(labels, owner="P")))
    histogram = hub.metrics.histogram("lock_hold_time", node="n1",
                                      colour="c", object="o1")
    assert histogram.count == 1
    assert histogram.total == 8.0   # clock survives the commit hand-off


def test_hold_time_clocks_die_with_their_node():
    hub = Observability()
    labels = {"node": "n1", "owner": "A", "object": "o1", "colour": "c"}
    hub.world.consume(ObsEvent(1.0, "lock.granted", dict(labels)))
    hub.world.consume(ObsEvent(2.0, "node.restart", {"node": "n1"}))
    hub.world.consume(ObsEvent(5.0, "lock.released", dict(labels)))
    histogram = hub.metrics.histogram("lock_hold_time", node="n1",
                                      colour="c", object="o1")
    assert histogram.count == 0


def test_local_runtime_populates_hold_time_histogram():
    runtime, hub = observed_runtime(history=True)
    with runtime.top_level(name="t"):
        Counter(runtime, value=0).increment(1)
    rows = [row for row in hub.dump()["histograms"]
            if row["name"] == "lock_hold_time"]
    assert rows
    assert all(row["labels"].get("colour") for row in rows)


# -- CLI: python -m repro.obs audit -------------------------------------------


def save_hub(hub, tmp_path, name="run.trace.json"):
    path = tmp_path / name
    hub.save(str(path))
    return str(path)


def test_audit_cli_clean_dump_exits_zero(tmp_path, capsys):
    runtime, hub = observed_runtime(history=True)
    with runtime.top_level(name="t"):
        Counter(runtime, value=0).increment(1)
    assert audit_main([save_hub(hub, tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_audit_cli_violation_dump_exits_two(tmp_path, capsys):
    runtime, hub = observed_runtime(history=True)
    with runtime.top_level(name="t") as action:
        counter = Counter(runtime, value=0)
        counter.increment(1)
        runtime.locks.release_action(action.uid)
        counter.increment(1)
    path = save_hub(hub, tmp_path)
    assert audit_main([path]) == 2
    assert F.TWO_PHASE in capsys.readouterr().out
    assert audit_main([path, "--json"]) == 2
    found = json.loads(capsys.readouterr().out)
    assert F.TWO_PHASE in {entry["kind"] for entry in found}


# (CLI exit-code one-offs moved to test_obs_cli_contract.py)


# -- type-specific (semantic) lock grants --------------------------------------


def semantic_grant(owner, obj, group, compatible, colour="c", node="local"):
    """A grant event as the registry emits it for operation-group locks."""
    return ("lock.granted", {"owner": owner, "object": obj, "mode": group,
                             "colour": colour, "node": node,
                             "semantic": "1", "compatible": compatible})


def test_incompatible_semantic_grant_is_a_violation():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("a1"),
        begin("a2"),
        semantic_grant("a1", "ctr", "update", compatible="update"),
        # observe does not commute with update, and a2 is no ancestor of a1
        semantic_grant("a2", "ctr", "observe", compatible="observe"),
    ])
    assert kinds_of(auditor) == {F.SEMANTIC_LOCK_RULE}
    finding = auditor.report()[0]
    assert "observe" in finding.message and "update" in finding.message


def test_commuting_semantic_grants_are_clean():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("a1"),
        begin("a2"),
        semantic_grant("a1", "ctr", "update", compatible="update"),
        semantic_grant("a2", "ctr", "update", compatible="update"),
    ])
    assert auditor.report() == []


def test_incompatible_semantic_grant_to_descendant_is_clean():
    auditor = InvariantAuditor()
    feed(auditor, [
        begin("a1"),
        begin("a2", parent="a1"),
        semantic_grant("a1", "ctr", "update", compatible="update"),
        # a1 is an inclusive ancestor of a2: §5.2 lets the child in
        semantic_grant("a2", "ctr", "observe", compatible="observe"),
    ])
    assert auditor.report() == []


def test_cluster_commuting_run_audits_clean_with_semantic_labels():
    from repro.cluster.cluster import Cluster

    cluster = Cluster(seed=0)
    cluster.observe(history=True)
    for name in ("c1", "c2", "server"):
        cluster.add_node(name)
    c1, c2 = cluster.client("c1", "c1"), cluster.client("c2", "c2")
    refs = {}

    def setup():
        refs["ctr"] = yield from c1.create("server", "commuting_counter",
                                           value=0)

    def adder(client, label, amount):
        action = client.top_level(label)
        yield from client.invoke(action, refs["ctr"], "add", amount)
        yield from client.commit(action)

    cluster.run_process("c1", setup())
    cluster.spawn("c1", adder(c1, "u1", 1))
    cluster.spawn("c2", adder(c2, "u2", 10))
    cluster.run()
    assert cluster.obs.auditor.report() == []
    semantic_grants = [
        e for e in cluster.obs.layers["history"].event_dicts()
        if e["kind"] == "lock.granted" and e["labels"].get("semantic")
    ]
    assert semantic_grants, "registry emitted no semantic grant events"
    assert all("update" in g["labels"]["compatible"]
               for g in semantic_grants
               if g["labels"]["mode"] == "update")
