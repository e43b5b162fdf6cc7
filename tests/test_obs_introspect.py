"""Live introspection: probes, snapshots, drift detection, health verdicts.

The ground-truth tests drive the seeded demo arms
(:mod:`repro.obs.introspect.demo`) and compare the stitched snapshots
against the simulator's own state — node epochs, prepared-transaction
tables, lock registries — which the probe can only have learned over the
RPC plane.  The fault arms must produce drift *without* the invariant
auditor seeing anything: drift is an expected symptom of injected faults,
findings are not.
"""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import LockTimeout
from repro.obs.introspect import (
    DEGRADED,
    EPOCH_DRIFT,
    FINISHED_IN_FLIGHT,
    HEALTHY,
    STALLED,
    render_drift,
    render_snapshot,
)
from repro.obs.introspect import inspector as inspector_module
from repro.obs.introspect.demo import run_demo
from repro.obs.__main__ import main as obs_main
from repro.sim.kernel import Timeout


def top_main(argv):
    return obs_main(["top", *argv])

# -- fault-free arm: snapshots match simulator ground truth --------------------


def test_fault_free_probe_matches_ground_truth():
    out = run_demo(seed=3, arm="fault-free", interval=10.0)
    cluster, inspector = out["cluster"], out["inspector"]

    assert out["stats"] == {"committed": 6, "failed": 0}
    assert inspector.drift == []
    assert inspector.probes >= 2

    snapshot = inspector.last
    assert snapshot["overall"] == HEALTHY
    for name, node in cluster.nodes.items():
        status = snapshot["servers"][name]
        assert status is not None
        # the epoch travelled over the wire, not out of shared memory
        assert status["epoch"] == node.epoch
        server = cluster.servers[name]
        reported = {entry["txn"] for entry in status["in_flight"]}
        assert reported == set(server.prepared)
        truth = server.registry.snapshot()
        assert status["locks"]["held"] == truth["held"]
        assert status["locks"]["queued"] == truth["queued"]
        assert snapshot["health"][name] == {"verdict": HEALTHY, "causes": []}
        assert cluster.obs.metrics.gauge("cluster_health",
                                         node=name).value == 0.0
    # settled cluster: nothing in flight, nothing waiting anywhere
    assert snapshot["waits_for"] == []
    assert all(status["in_flight"] == []
               for status in snapshot["servers"].values())
    assert snapshot["coordinator"]["clients"] == 1
    assert snapshot["coordinator"]["live_actions"] == 0


def test_fault_free_arm_emits_probe_events_and_no_drift_counters():
    out = run_demo(seed=4, arm="fault-free", interval=15.0)
    obs = out["cluster"].obs
    retained = list(obs.layers["history"].events)
    probes = [e for e in retained if e.kind == "introspect.probe"]
    assert len(probes) == out["inspector"].probes
    assert all(e.labels["drift"] == 0 for e in probes)
    assert not [e for e in retained if e.kind == "introspect.drift"]


# -- partition arm: finished-txn-in-flight drift -------------------------------


def test_partition_arm_detects_finished_txn_in_flight_drift():
    out = run_demo(seed=0, arm="partition", interval=10.0)
    cluster, inspector = out["cluster"], out["inspector"]

    kinds = {d.kind for d in inspector.drift}
    assert FINISHED_IN_FLIGHT in kinds
    drift = next(d for d in inspector.drift if d.kind == FINISHED_IN_FLIGHT)
    # gamma is the participant cut off from the coordinator on beta
    assert drift.node == "gamma"
    assert drift.txn

    # drift never contaminates the invariant auditor
    assert cluster.obs.auditor.findings == []

    # the mid-fault snapshot degraded gamma on the strength of the drift
    drifted = [s for s in inspector.snapshots if s["drift"]]
    assert drifted
    assert any("drift" in s["health"]["gamma"]["causes"] for s in drifted)

    # after heal_all the reaper finishes phase two: the decided transaction
    # is gone from gamma and the final frame is green again
    final = inspector.last
    assert final["overall"] == HEALTHY
    gamma = final["servers"]["gamma"]
    assert drift.txn not in {entry["txn"] for entry in gamma["in_flight"]}

    counter = cluster.obs.metrics.counter("introspect_drift_total",
                                          kind=FINISHED_IN_FLIGHT)
    assert counter.value >= 1


def test_partition_arm_conserves_money_despite_probing():
    out = run_demo(seed=0, arm="partition", interval=5.0)
    cluster, client, refs = out["cluster"], out["client"], out["refs"]
    balances = {}

    def audit_balances():
        action = client.top_level("balance-audit")
        for key in ("A", "B"):
            balances[key] = yield from client.invoke(
                action, refs[key], "read_balance")
        yield from client.commit(action)

    cluster.run_process("beta", audit_balances())
    committed = out["stats"]["committed"]
    assert balances["A"] + balances["B"] == 100
    assert balances["B"] == 5 * committed


# -- restart arm: epoch drift plus the unreachable window ----------------------


def test_restart_arm_sees_unreachable_then_epoch_drift():
    out = run_demo(seed=0, arm="restart", interval=10.0)
    cluster, inspector = out["cluster"], out["inspector"]

    assert EPOCH_DRIFT in {d.kind for d in inspector.drift}
    drift = next(d for d in inspector.drift if d.kind == EPOCH_DRIFT)
    assert drift.node == "gamma"
    assert drift.action
    assert cluster.obs.auditor.findings == []

    # the ring holds the whole arc: crashed (stalled/unreachable), then
    # restarted with a bumped epoch under the live action (degraded/drift)
    down = [s for s in inspector.snapshots
            if s["health"]["gamma"]["verdict"] == STALLED
            and "unreachable" in s["health"]["gamma"]["causes"]]
    assert down
    assert all(s["servers"]["gamma"] is None for s in down)
    drifted = [s for s in inspector.snapshots
               if any(d["kind"] == EPOCH_DRIFT for d in s["drift"])]
    assert drifted
    assert drifted[0]["health"]["gamma"]["verdict"] == DEGRADED
    assert drifted[0]["tick"] > down[0]["tick"]

    # during the outage the gauge showed stalled for gamma alone; the final
    # probe (action aborted, epoch agreed) restores every gauge to healthy
    assert inspector.last["overall"] == HEALTHY
    for name in cluster.nodes:
        assert cluster.obs.metrics.gauge("cluster_health",
                                         node=name).value == 0.0


# -- waits-for edges and queue-depth health ------------------------------------


def _contended_cluster():
    """A holder camping on a counter while a victim queues behind it."""
    cluster = Cluster(seed=7, lock_wait_timeout=60.0)
    for name in ("n0", "n1"):
        cluster.add_node(name)
    c1 = cluster.client("n0", name="c1")
    c2 = cluster.client("n0", name="c2")
    refs = {}

    def setup():
        refs["x"] = yield from c1.create("n1", "counter", value=0)

    cluster.run_process("n0", setup())

    def holder():
        action = c1.top_level("holder")
        yield from c1.invoke(action, refs["x"], "increment", 1)
        yield Timeout(40.0)
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
    return cluster


def test_probe_mid_wait_surfaces_waits_for_edge_and_degrades_queue(
        monkeypatch):
    monkeypatch.setattr(inspector_module, "QUEUE_DEPTH_THRESHOLD", 1)
    cluster = _contended_cluster()
    inspector = cluster.observe(introspection={"interval": 0})[
        "introspection"]
    # let the victim reach the queue, then probe while it is still blocked
    cluster.run(until=10.0)
    snapshot = inspector.probe_once()

    edges = [e for e in snapshot["waits_for"] if e["node"] == "n1"]
    assert len(edges) == 1
    edge = edges[0]
    truth = cluster.servers["n1"].registry.snapshot()["waits_for"]
    assert {"waiter": edge["waiter"], "holder": edge["holder"],
            "object": edge["object"]} in truth
    assert edge["waiter"] != edge["holder"]

    health = snapshot["health"]["n1"]
    assert health["verdict"] == DEGRADED
    assert any(c.startswith("lock-queue-depth") for c in health["causes"])
    assert snapshot["overall"] == DEGRADED
    assert inspector.drift == []

    # probing changed nothing: the camped transfer still commits cleanly
    cluster.run()
    assert cluster.obs.auditor.findings == []
    after = inspector.probe_once()
    assert after["waits_for"] == []
    assert after["overall"] == HEALTHY


def test_probe_tolerates_default_queue_threshold():
    cluster = _contended_cluster()
    inspector = cluster.observe(
        introspection={"interval": 0})["introspection"]
    cluster.run(until=10.0)
    snapshot = inspector.probe_once()
    # one queued waiter is normal traffic under the default threshold
    assert snapshot["health"]["n1"]["verdict"] == HEALTHY
    assert snapshot["servers"]["n1"]["locks"]["queued"] == 1
    cluster.run()
    assert cluster.obs.auditor.findings == []
    assert inspector.drift == []


# -- periodic probing under faults stays non-disruptive ------------------------


def test_periodic_probing_under_lossy_network_leaves_auditor_clean():
    from repro.cluster.network import NetworkConfig

    cluster = Cluster(seed=11,
                      config=NetworkConfig(drop_probability=0.10,
                                           duplicate_probability=0.05))
    for name in ("alpha", "beta", "gamma"):
        cluster.add_node(name)
    client = cluster.client("beta")
    inspector = cluster.observe(
        introspection={"interval": 6.0})["introspection"]
    refs = {}
    stats = {"committed": 0, "failed": 0}

    def setup():
        refs["A"] = yield from client.create("beta", "account", balance=60)
        refs["B"] = yield from client.create("gamma", "account", balance=0)

    cluster.run_process("beta", setup())

    def workload():
        for index in range(5):
            action = client.top_level(f"xfer{index}")
            try:
                yield from client.invoke(action, refs["A"], "withdraw", 10)
                yield from client.invoke(action, refs["B"], "deposit", 10)
                yield from client.commit(action)
                stats["committed"] += 1
            except Exception:
                stats["failed"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(4.0)

    cluster.run_process("beta", workload())
    cluster.run(until=cluster.kernel.now + 60.0)

    assert cluster.obs.auditor.findings == []
    assert inspector.probes >= 5
    assert inspector.snapshots
    balances = {}

    def audit_balances():
        action = client.top_level("balance-audit")
        for key in ("A", "B"):
            balances[key] = yield from client.invoke(
                action, refs[key], "read_balance")
        yield from client.commit(action)

    cluster.run_process("beta", audit_balances())
    assert balances["A"] + balances["B"] == 60
    assert balances["B"] == 10 * stats["committed"]


# -- snapshot ring, dump embedding, operator console ---------------------------


def test_snapshot_ring_is_capped_and_probe_count_keeps_growing(monkeypatch):
    monkeypatch.setattr(inspector_module, "MAX_SNAPSHOTS", 3)
    cluster = Cluster(seed=1)
    cluster.add_node("solo")
    inspector = cluster.observe(introspection={"interval": 0})[
        "introspection"]
    for _ in range(5):
        inspector.probe_once()
    assert inspector.probes == 5
    assert len(inspector.snapshots) == 3
    ticks = [s["tick"] for s in inspector.snapshots]
    assert ticks == sorted(ticks)
    assert inspector.dump()["probes"] == 5
    assert len(inspector.dump()["snapshots"]) == 3


def test_introspection_rides_in_obs_dump_and_top_replays_it(tmp_path, capsys):
    out = run_demo(seed=2, arm="fault-free", interval=0)
    cluster, inspector = out["cluster"], out["inspector"]
    path = tmp_path / "demo.trace.json"
    cluster.obs.save(str(path))

    document = json.loads(path.read_text())
    embedded = document["extra"]["introspection"]
    assert embedded["probes"] == inspector.probes
    assert embedded["overall"] == HEALTHY
    assert embedded["snapshots"][-1]["tick"] == inspector.last["tick"]

    assert top_main([str(path), "--snapshot"]) == 0
    text = capsys.readouterr().out
    for name in ("alpha", "beta", "gamma"):
        assert name in text

    # --snapshot --json prints the latest frame; --json alone, the whole doc
    assert top_main([str(path), "--snapshot", "--json"]) == 0
    frame = json.loads(capsys.readouterr().out)
    assert frame["tick"] == inspector.last["tick"]
    assert frame["overall"] == HEALTHY

    assert top_main([str(path), "--json"]) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["probes"] == inspector.probes
    assert replayed["snapshots"][-1]["overall"] == HEALTHY


def test_render_covers_drift_and_unreachable_rows():
    out = run_demo(seed=0, arm="restart", interval=0)
    inspector = out["inspector"]
    drifted = next(s for s in inspector.snapshots if s["drift"])
    lines = render_snapshot(drifted)
    joined = "\n".join(lines)
    assert "DRIFT" in joined
    assert EPOCH_DRIFT in joined
    down = next(s for s in inspector.snapshots
                if s["servers"]["gamma"] is None)
    joined = "\n".join(render_snapshot(down))
    assert "unreachable" in joined
    assert "\n".join(render_drift([d.to_dict() for d in inspector.drift]))


def test_demo_rejects_unknown_arm():
    with pytest.raises(ValueError):
        run_demo(arm="meteor")
