"""Perf-observatory scenario harness: deterministic workloads -> BENCH files.

Each scenario spins up a seeded simulated cluster, runs a workload shaped
to stress one axis of the system, and emits a ``BENCH_<scenario>.json``
document::

    {
      "format": "repro-perf/1",
      "scenario": "contention_sweep",
      "seed": 11,
      "params": {...},                # workload shape, for humans
      "metrics": {...},              # simulated-time numbers — GATED by
                                     #   python -m repro.obs perf compare
      "info": {...}                  # wall-clock numbers (host-
                                     #   dependent) — never gated
    }

Everything under ``metrics`` derives from the sim clock, seeded RNGs and
the metrics registry, so a given seed reproduces the numbers exactly on
any host; the checked-in baselines at the repository root are diffed with
tolerance bands by the CI perf gate (exit 2 on regression)::

    python benchmarks/scenarios.py --out /tmp/bench
    python -m repro.obs perf compare --baseline . --current /tmp/bench

Scenarios: ``contention_sweep`` (lock contention ladder under the full
observability stack), ``colour_sweep`` (commit cost, and the prepare
round trips batching saves, vs colours per action),
``cluster_fanout`` (commit cost vs participant servers), ``chaos_mix``
(crash/restart schedule with conservation checked), and
``twopc_fastpath`` (commit-protocol fast paths —
piggybacked decision, read-only votes, one-phase commit — against the
classic protocol on an identical workload), and ``commute_avoidance``
(commutativity-based coordination avoidance: fully-commuting colours
deciding locally in one round, against classic 2PC and against semantic
locking without the commute path, on an identical workload), and
``soak_smoke`` (capped-horizon soak-observatory arms with segment
rotation: the clean arm gated at zero SLO breaches, the faulty arm's
seeded fault burst gated to trip the commit-latency burn objective), and
``realtime_backend`` (the same fault-free workloads on the sim and
asyncio execution backends: gated outcome parity; what the asyncio backend
costs on the wall clock is ``realtime_2pc`` in ``python3 -m benchmarks.e2e``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

if __package__ in (None, ""):  # standalone: python benchmarks/scenarios.py
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))

from repro.backend import AsyncioKernel
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FaultSchedule
from repro.cluster.network import NetworkConfig
from repro.obs.postmortem import LOCK_CONFLICT, UNKNOWN
from repro.obs.postmortem.render import crosscheck
from repro.objects.state import ObjectState
from repro.sim.kernel import Timeout

FORMAT = "repro-perf/1"

def _round_all(metrics: Dict[str, float], digits: int = 6) -> Dict[str, float]:
    return {key: round(float(value), digits) for key, value in metrics.items()}


def _document(scenario: str, seed: int, params: Dict[str, Any],
              metrics: Dict[str, float],
              info: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    doc = {"format": FORMAT, "scenario": scenario, "seed": seed,
           "params": params, "metrics": _round_all(metrics)}
    if info:
        doc["info"] = info
    return doc


def _stable_int(cluster, ref) -> int:
    stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
    return ObjectState.from_bytes(stored.payload).unpack_int()


# -- contention sweep ---------------------------------------------------------

def _contention_run(seed: int, objects: int, workers: int, ops: int,
                    probed: bool = False, abba: bool = False):
    """Workers hammer a shared counter pool; fewer objects = more conflict.

    Acquisition order is canonical (sorted by home node, then uid) so the
    sweep measures lock *contention*, not deadlock: with two objects and
    sampled order, symmetric ABBA cycles made the victim detector — not
    lock waiting — the dominant cost.  ``abba=True`` keeps the sampled
    (adversarial) order as an explicit deadlock-coverage variant.
    """
    cluster = Cluster(seed=seed, lock_wait_timeout=40.0)
    nodes = ("n0", "n1", "n2")
    for name in nodes:
        cluster.add_node(name)
    # host GC/alloc pressure rides the probed run's timeline only: the
    # values are wall-clock facts, never gated.  That level also carries
    # the introspection prober's live status_query fan-outs
    layers = cluster.observe(
        timeline={"interval": 5.0, "process_probes": probed},
        flight_recorder={"seed": seed}, postmortem=True,
        introspection=probed)
    sampler, recorder = layers["timeline"], layers["flight_recorder"]
    postmortem = layers["postmortem"]
    inspector = layers.get("introspection")
    refs: List[Any] = []
    outcomes = {"committed": 0, "aborted": 0}

    def setup():
        client = cluster.client("n0")
        for index in range(objects):
            ref = yield from client.create(nodes[index % len(nodes)],
                                           "counter", value=0)
            refs.append(ref)

    cluster.run_process("n0", setup())

    def worker(worker_id: int):
        client = cluster.client(nodes[worker_id % len(nodes)],
                                name=f"w{worker_id}")
        rng = random.Random(seed * 1000 + worker_id)
        for op in range(ops):
            picks = rng.sample(refs, k=min(2, len(refs)))
            if not abba:
                picks.sort(key=lambda ref: (ref.node, ref.uid))
            action = client.top_level(f"w{worker_id}.op{op}")
            try:
                for ref in picks:
                    yield from client.invoke(action, ref, "increment", 1)
                yield from client.commit(action)
                outcomes["committed"] += 1
            except Exception:
                outcomes["aborted"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(1.0 + rng.random())

    for worker_id in range(workers):
        cluster.spawn(nodes[worker_id % len(nodes)], worker(worker_id),
                      name=f"worker{worker_id}")
    cluster.run()
    if inspector is not None:
        # probing a healthy contended cluster must never invent drift
        assert inspector.drift == [], [str(d) for d in inspector.drift]
        assert inspector.probes > 0
    total = sum(_stable_int(cluster, ref) for ref in refs)
    assert total == outcomes["committed"] * 2 or len(refs) == 1, (
        total, outcomes)
    waits = [h for labels, h in cluster.obs.metrics.series("lock_wait_time")]
    wait_count = sum(h.count for h in waits)
    wait_sum = sum(h.total for h in waits)
    _check_attribution(cluster, postmortem, outcomes)
    return {
        "cluster": cluster, "sampler": sampler, "recorder": recorder,
        "postmortem": postmortem, "inspector": inspector,
        "committed": outcomes["committed"], "aborted": outcomes["aborted"],
        "elapsed": cluster.kernel.now,
        "lock_wait_mean": (wait_sum / wait_count) if wait_count else 0.0,
        "lock_waits": wait_count,
    }


def _check_attribution(cluster, postmortem, outcomes) -> None:
    """The postmortem acceptance bar, enforced on every sweep level:
    every abort gets a concrete reason (zero ``unknown``), every
    lock-conflict abort names its blocker (object, colour, holder), and
    the per-colour attribution totals equal the per-colour abort counters
    the hub maintains independently."""
    aborted = postmortem.aborted()
    assert len(aborted) >= outcomes["aborted"], (len(aborted), outcomes)
    unattributed = [r for r in aborted if r.reason == UNKNOWN]
    assert not unattributed, [str(r) for r in unattributed]
    bare = [r for r in aborted
            if r.reason == LOCK_CONFLICT and not r.blockers]
    assert not bare, [str(r) for r in bare]
    mismatches = crosscheck(list(postmortem.records),
                            cluster.obs.metrics.dump())
    assert not mismatches, mismatches


def scenario_contention_sweep(seed: int = 11) -> Dict[str, Any]:
    workers, ops = 6, 5
    levels = (8, 4, 2, 1)
    metrics: Dict[str, float] = {}
    for objects in levels:
        run = _contention_run(seed, objects, workers, ops,
                              probed=(objects == levels[-1]))
        prefix = f"objects={objects}"
        metrics[f"{prefix}.committed"] = run["committed"]
        metrics[f"{prefix}.aborted"] = run["aborted"]
        metrics[f"{prefix}.elapsed_sim"] = run["elapsed"]
        metrics[f"{prefix}.lock_wait_mean"] = run["lock_wait_mean"]
        # attribution columns: per-reason abort counts are pure functions
        # of the seeded event stream, so they gate like any sim metric
        for reason, count in sorted(run["postmortem"].reason_counts.items()):
            metrics[f"{prefix}.aborts.{reason}"] = count
        if objects == levels[-1]:
            metrics["max_contention.timeline_points"] = len(
                run["sampler"].points)
            metrics["max_contention.ring_events"] = len(
                run["recorder"].ring_events())
            metrics["max_contention.introspect_probes"] = (
                run["inspector"].probes)
    # adversarial variant: sampled (non-canonical) acquisition order at two
    # objects, where symmetric ABBA cycles keep deadlock detection honest
    run = _contention_run(seed, 2, workers, ops, abba=True)
    prefix = "objects=2-abba"
    metrics[f"{prefix}.committed"] = run["committed"]
    metrics[f"{prefix}.aborted"] = run["aborted"]
    metrics[f"{prefix}.elapsed_sim"] = run["elapsed"]
    metrics[f"{prefix}.lock_wait_mean"] = run["lock_wait_mean"]
    for reason, count in sorted(run["postmortem"].reason_counts.items()):
        metrics[f"{prefix}.aborts.{reason}"] = count
    return _document(
        "contention_sweep", seed,
        {"workers": workers, "ops_per_worker": ops, "levels": list(levels),
         "order": "canonical (+ objects=2 abba variant)"},
        metrics)


# -- colour-count sweep -------------------------------------------------------

def _coloured_commits(seed: int, colours: int, commits: int):
    """Top-level actions with k colours, each colour writing on 2 servers."""
    cluster = Cluster(seed=seed,
                      config=NetworkConfig(min_delay=1.0, max_delay=1.0))
    nodes = ("home", "s0", "s1", "s2")
    for name in nodes:
        cluster.add_node(name)
    client = cluster.client("home")
    servers = nodes[1:]
    result: Dict[str, Any] = {}

    def app():
        pool = {}
        for server in servers:
            pool[server] = []
            for index in range(colours):
                ref = yield from client.create(server, "counter", value=0)
                pool[server].append(ref)
        start = cluster.kernel.now
        messages_before = cluster.network.sent_count
        latencies = []
        for index in range(commits):
            cols = [client.fresh_colour(f"c{index}.{k}")
                    for k in range(colours)]
            action = client.coloured(cols, name=f"multi{index}")
            for k, colour in enumerate(cols):
                for server in servers[:2]:
                    yield from client.invoke(action, pool[server][k],
                                             "increment", 1, colour=colour)
            commit_start = cluster.kernel.now
            yield from client.commit(action)
            latencies.append(cluster.kernel.now - commit_start)
        result["commit_latency"] = sum(latencies) / len(latencies)
        result["messages_per_commit"] = (
            (cluster.network.sent_count - messages_before) / commits)
        result["elapsed"] = cluster.kernel.now - start

    cluster.run_process("home", app())
    result["saved_rpcs"] = cluster.obs.metrics.value(
        "prepare_batch_saved_rpcs_total")
    return cluster, result


def scenario_colour_sweep(seed: int = 17) -> Dict[str, Any]:
    commits = 4
    metrics: Dict[str, float] = {}
    for colours in (1, 2, 3, 4):
        _cluster, run = _coloured_commits(seed, colours, commits)
        prefix = f"colours={colours}"
        metrics[f"{prefix}.commit_latency"] = run["commit_latency"]
        metrics[f"{prefix}.messages_per_commit"] = run["messages_per_commit"]
        metrics[f"{prefix}.saved_prepare_rpcs"] = run["saved_rpcs"]
    return _document("colour_sweep", seed,
                     {"commits": commits, "writes_per_colour": 2},
                     metrics)


# -- cluster fan-out ----------------------------------------------------------

def scenario_cluster_fanout(seed: int = 23) -> Dict[str, Any]:
    """Commit cost vs participant count (the A11 sweep, harnessed)."""
    commits = 5
    metrics: Dict[str, float] = {}
    for participants in (1, 2, 4, 8):
        names = ["coord"] + [f"p{i}" for i in range(participants)]
        cluster = Cluster(seed=seed,
                          config=NetworkConfig(min_delay=1.0, max_delay=1.0))
        for name in names:
            cluster.add_node(name)
        client = cluster.client("coord")
        result: Dict[str, Any] = {}

        def app(names=names, client=client, cluster=cluster, result=result):
            refs = []
            for name in names[1:]:
                ref = yield from client.create(name, "counter", value=0)
                refs.append(ref)
            messages_before = cluster.network.sent_count
            latencies = []
            for index in range(commits):
                action = client.top_level(f"wide{index}")
                for ref in refs:
                    yield from client.invoke(action, ref, "increment", 1)
                commit_start = cluster.kernel.now
                yield from client.commit(action)
                latencies.append(cluster.kernel.now - commit_start)
            result["commit_latency"] = sum(latencies) / len(latencies)
            result["messages"] = cluster.network.sent_count - messages_before

        cluster.run_process("coord", app())
        prefix = f"participants={participants}"
        metrics[f"{prefix}.commit_latency"] = result["commit_latency"]
        metrics[f"{prefix}.messages_per_commit_per_node"] = (
            result["messages"] / commits / participants)
    return _document("cluster_fanout", seed, {"commits": commits}, metrics)


# -- chaos mix ----------------------------------------------------------------

def scenario_chaos_mix(seed: int = 7) -> Dict[str, Any]:
    """Crash/restart schedule under transfers; conservation must hold."""
    transfers, amount, initial = 15, 5, 1000
    cluster = Cluster(
        seed=seed,
        config=NetworkConfig(drop_probability=0.08,
                             duplicate_probability=0.04),
        rpc_retries=10, lock_wait_timeout=120.0,
    )
    for name in ("home", "s1", "s2"):
        cluster.add_node(name)
    layers = cluster.observe(
        timeline={"interval": 25.0},
        flight_recorder={"seed": seed, "sample_rate": 0.5})
    sampler, recorder = layers["timeline"], layers["flight_recorder"]
    client = cluster.client("home")
    refs: Dict[str, Any] = {}
    outcomes = {"committed": 0, "failed": 0}

    def setup():
        refs["A"] = yield from client.create("s1", "account",
                                             owner="A", balance=initial)
        refs["B"] = yield from client.create("s2", "account",
                                             owner="B", balance=0)

    cluster.run_process("home", setup())
    schedule = FaultSchedule(cluster, seed=seed,
                             mean_uptime=300.0, mean_downtime=40.0)
    schedule.arm(["s1", "s2"], horizon=2500.0, start_after=50.0)

    def workload():
        for index in range(transfers):
            action = client.top_level(f"xfer{index}")
            try:
                yield from client.invoke(action, refs["A"], "withdraw", amount)
                yield from client.invoke(action, refs["B"], "deposit", amount)
                yield from client.commit(action)
                outcomes["committed"] += 1
            except Exception:
                outcomes["failed"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(20.0)

    cluster.run_process("home", workload())
    for name in ("s1", "s2"):
        if not cluster.nodes[name].alive:
            cluster.restart(name)
    cluster.run(until=cluster.kernel.now + 2_000.0)

    def stable_balance(ref):
        stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
        state = ObjectState.from_bytes(stored.payload)
        state.unpack_string()
        return state.unpack_int()

    balance_a, balance_b = stable_balance(refs["A"]), stable_balance(refs["B"])
    assert balance_a + balance_b == initial, (balance_a, balance_b, outcomes)
    assert balance_b == outcomes["committed"] * amount, (balance_b, outcomes)
    findings = cluster.obs.auditor.report()
    return _document(
        "chaos_mix", seed,
        {"transfers": transfers, "drop_probability": 0.08},
        {
            "committed": outcomes["committed"],
            "failed": outcomes["failed"],
            "crashes": schedule.crash_count(),
            "audit_findings": len(findings),
            "flight_ring_events": len(recorder.ring_events()),
            "flight_sampled_out": recorder.skipped,
            "timeline_points": len(sampler.points),
            "elapsed_sim": cluster.kernel.now,
        })


# -- 2PC fast paths -----------------------------------------------------------

def _fastpath_mix(seed: int, fast_paths: bool) -> Dict[str, Any]:
    """One seeded commit mix, classic or optimised.

    Three transaction profiles over two object servers (the coordinator
    hosts nothing): A — a single-server write (one-phase commit when
    optimised); B — one writer plus one pure reader (one-phase commit and
    a read-only vote); C — two writers (piggybacked decision at the last
    agent).  Message and latency figures count the commit calls only.
    """
    cluster = Cluster(seed=seed, fast_paths=fast_paths,
                      config=NetworkConfig(min_delay=1.0, max_delay=1.0))
    for name in ("home", "s1", "s2"):
        cluster.add_node(name)
    client = cluster.client("home")
    result = {"commit_messages": 0, "commit_time": 0.0, "commits": 0}

    def run_commit(action):
        before = cluster.network.sent_count
        started = cluster.kernel.now
        yield from client.commit(action)
        result["commit_messages"] += cluster.network.sent_count - before
        result["commit_time"] += cluster.kernel.now - started
        result["commits"] += 1

    def app():
        a = yield from client.create("s1", "counter", value=0)
        b = yield from client.create("s2", "counter", value=0)
        for index in range(6):       # profile A: single-server write
            action = client.top_level(f"A{index}")
            yield from client.invoke(action, a, "increment", 1)
            yield from run_commit(action)
        for index in range(4):       # profile B: one writer + one reader
            action = client.top_level(f"B{index}")
            yield from client.invoke(action, a, "increment", 1)
            yield from client.invoke(action, b, "get")
            yield from run_commit(action)
        for index in range(2):       # profile C: two writers
            action = client.top_level(f"C{index}")
            yield from client.invoke(action, a, "increment", 1)
            yield from client.invoke(action, b, "increment", 1)
            yield from run_commit(action)
        result["a"], result["b"] = a, b

    cluster.run_process("home", app())
    assert _stable_int(cluster, result["a"]) == 12
    assert _stable_int(cluster, result["b"]) == 2
    fast_path_kinds: Dict[str, float] = {}
    for labels, counter in cluster.obs.metrics.series("twopc_fast_path_total"):
        kind = dict(labels).get("kind", "")
        fast_path_kinds[kind] = fast_path_kinds.get(kind, 0) + counter.value
    result["fast_path_kinds"] = fast_path_kinds
    result["piggyback_saved"] = cluster.obs.metrics.value(
        "decision_piggyback_saved_rpcs_total")
    result["read_only_saved_finish"] = sum(
        counter.value for _labels, counter in
        cluster.obs.metrics.series("read_only_saved_finish_total"))
    result["audit_findings"] = len(cluster.obs.auditor.report())
    return result


def scenario_twopc_fastpath(seed: int = 29) -> Dict[str, Any]:
    """Commit-protocol fast paths vs the classic protocol, same workload.

    Runs the A/B/C mix twice — ``fast_paths=False`` then ``True`` — on
    identical seeds and gates the message-count reduction: the piggybacked
    decision, read-only votes and one-phase commits must save at least 30%
    of the commit-path traffic, with zero auditor findings either way.
    """
    classic = _fastpath_mix(seed, fast_paths=False)
    fast = _fastpath_mix(seed, fast_paths=True)
    reduction = 1.0 - fast["commit_messages"] / classic["commit_messages"]
    assert reduction >= 0.30, (classic["commit_messages"],
                               fast["commit_messages"])
    assert classic["audit_findings"] == 0, classic["audit_findings"]
    assert fast["audit_findings"] == 0, fast["audit_findings"]
    kinds = fast["fast_path_kinds"]
    return _document(
        "twopc_fastpath", seed,
        {"profile_a_commits": 6, "profile_b_commits": 4,
         "profile_c_commits": 2, "servers": 2},
        {
            "classic.commit_messages": classic["commit_messages"],
            "classic.commit_time": classic["commit_time"],
            "fast.commit_messages": fast["commit_messages"],
            "fast.commit_time": fast["commit_time"],
            "message_reduction": reduction,
            "fast.one_phase_commits": kinds.get("one_phase", 0),
            "fast.piggyback_commits": kinds.get("piggyback", 0),
            "fast.read_only_votes": kinds.get("read_only", 0),
            "fast.piggyback_saved_rpcs": fast["piggyback_saved"],
            "fast.read_only_saved_finishes": fast["read_only_saved_finish"],
            "classic.audit_findings": classic["audit_findings"],
            "fast.audit_findings": fast["audit_findings"],
        })


# -- commutativity-based coordination avoidance -------------------------------

def _commute_run(seed: int, type_name: str, commute: bool) -> Dict[str, Any]:
    """Six workers hammer two shared objects, every transaction updating
    both: the contention sweep's objects=2 shape.  The arm is selected by
    object type and the commute switch — ``counter`` serializes under
    WRITE locks and commits with classic/fast-path 2PC;
    ``commuting_counter`` runs updates concurrently (compatible groups)
    and, with ``commute=True``, commits fully-commuting colours in one
    local-decision round with no prepare phase.  Every arm conserves:
    the stable counters sum to two per committed transaction.
    """
    cluster = Cluster(seed=seed, lock_wait_timeout=40.0, commute=commute)
    nodes = ("n0", "n1", "n2")
    for name in nodes:
        cluster.add_node(name)
    workers, ops = 6, 5
    refs: List[Any] = []
    outcomes = {"committed": 0, "aborted": 0}

    def setup():
        client = cluster.client("n0")
        for host in ("n1", "n2"):
            ref = yield from client.create(host, type_name, value=0)
            refs.append(ref)

    cluster.run_process("n0", setup())
    method = "add" if type_name == "commuting_counter" else "increment"

    def worker(worker_id: int):
        client = cluster.client(nodes[worker_id % len(nodes)],
                                name=f"w{worker_id}")
        rng = random.Random(seed * 1000 + worker_id)
        for op in range(ops):
            action = client.top_level(f"w{worker_id}.op{op}")
            try:
                for ref in refs:
                    yield from client.invoke(action, ref, method, 1)
                yield from client.commit(action)
                outcomes["committed"] += 1
            except Exception:
                outcomes["aborted"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(1.0 + rng.random())

    messages_before = cluster.network.sent_count
    for worker_id in range(workers):
        cluster.spawn(nodes[worker_id % len(nodes)], worker(worker_id),
                      name=f"worker{worker_id}")
    cluster.run()
    total = sum(_stable_int(cluster, ref) for ref in refs)
    assert total == outcomes["committed"] * 2, (total, outcomes)
    commute_commits = 0.0
    for labels, counter in cluster.obs.metrics.series("twopc_fast_path_total"):
        if dict(labels).get("kind") == "commute":
            commute_commits += counter.value
    elapsed = cluster.kernel.now
    return {
        "committed": outcomes["committed"],
        "aborted": outcomes["aborted"],
        "elapsed": elapsed,
        "throughput": outcomes["committed"] / elapsed if elapsed else 0.0,
        "messages": cluster.network.sent_count - messages_before,
        "commute_commits": commute_commits,
        "audit_findings": len(cluster.obs.auditor.report()),
        "stable_total": total,
        "lost_updates": outcomes["committed"] * 2 - total,
    }


def scenario_commute_avoidance(seed: int = 37) -> Dict[str, Any]:
    """Coordination avoidance for fully-commuting colours, same workload.

    Three arms on identical seeds: *classic* (plain counters, WRITE locks,
    classic/fast-path 2PC), *commute_off* (commuting counters — concurrent
    execution, but every colour still runs a prepare round) and
    *commute_on* (fully-commuting colours decide locally in one round).
    Gates: the commute path must at least double committed throughput over
    classic 2PC at this contention level, every commute-on commit must
    actually take the commute path, every arm must conserve (asserted in
    :func:`_commute_run`), and the auditor must stay silent in every arm —
    in particular its commute-soundness check
    (``commute-decision-not-commuting``) on the arm deciding locally.
    """
    classic = _commute_run(seed, "counter", commute=False)
    off = _commute_run(seed, "commuting_counter", commute=False)
    on = _commute_run(seed, "commuting_counter", commute=True)
    for arm in (classic, off, on):
        assert arm["audit_findings"] == 0, arm
    assert off["commute_commits"] == 0, off
    assert on["commute_commits"] > 0, on
    speedup = on["throughput"] / classic["throughput"]
    assert speedup >= 2.0, (classic, on)
    metrics: Dict[str, float] = {}
    for name, arm in (("classic", classic), ("commute_off", off),
                      ("commute_on", on)):
        metrics[f"{name}.committed"] = arm["committed"]
        metrics[f"{name}.aborted"] = arm["aborted"]
        metrics[f"{name}.elapsed_sim"] = arm["elapsed"]
        metrics[f"{name}.throughput"] = arm["throughput"]
        metrics[f"{name}.messages"] = arm["messages"]
        metrics[f"{name}.audit_findings"] = arm["audit_findings"]
    # zero on both arms: every commit path merges a colour's own
    # operations into the committed state
    metrics["commute_off.lost_updates"] = off["lost_updates"]
    metrics["commute_on.lost_updates"] = on["lost_updates"]
    metrics["commute_on.commute_commits"] = on["commute_commits"]
    metrics["throughput_speedup_vs_classic"] = speedup
    return _document(
        "commute_avoidance", seed,
        {"workers": 6, "ops_per_worker": 5, "objects": 2, "servers": 2},
        metrics)


# -- soak smoke ---------------------------------------------------------------

def scenario_soak_smoke(seed: int = 21) -> Dict[str, Any]:
    """Capped-horizon soak-observatory smoke: both arms, gated verdicts.

    Runs the clean and faulty arms of :class:`repro.obs.soak.SoakRunner`
    at a CI-friendly horizon with segment rotation into a scratch
    directory.  Asserts the acceptance contract inline — the clean arm
    must finish with zero SLO breaches and zero findings, the faulty
    arm's seeded network-degradation burst must trip at least the
    commit-latency burn objective — and gates the per-arm outcome counts,
    breach totals and peak retention numbers (all sim-deterministic).
    """
    import tempfile

    from repro.obs.soak import SoakRunner

    horizon, segment_every, interval = 2400.0, 600.0, 10.0
    metrics: Dict[str, float] = {}
    for arm in ("clean", "faulty"):
        with tempfile.TemporaryDirectory() as out:
            runner = SoakRunner(out_dir=out, arm=arm, seed=seed,
                                horizon=horizon,
                                segment_every=segment_every,
                                sample_interval=interval)
            summary = runner.run()
        assert summary["audit_findings"] == 0, summary["audit_findings"]
        if arm == "clean":
            assert summary["breach_total"] == 0, summary["breaches"]
            assert summary["exit_code"] == 0
        else:
            breached = {entry["objective"] for entry in summary["breaches"]}
            assert "commit-latency" in breached, summary["breaches"]
            assert summary["exit_code"] == 2
        assert len(summary["segments"]) >= 4, summary["segments"]
        metrics[f"{arm}.committed"] = summary["committed"]
        metrics[f"{arm}.aborted"] = summary["aborted"]
        metrics[f"{arm}.elapsed_sim"] = summary["elapsed"]
        metrics[f"{arm}.breaches"] = summary["breach_total"]
        metrics[f"{arm}.segments"] = len(summary["segments"])
        metrics[f"{arm}.peak_spans"] = summary["peaks"]["spans"]
        metrics[f"{arm}.peak_audit_events"] = summary["peaks"]["audit_events"]
    return _document(
        "soak_smoke", seed,
        {"horizon": horizon, "segment_every": segment_every,
         "interval": interval, "arms": ["clean", "faulty"]},
        metrics)


# -- realtime backend ---------------------------------------------------------

#: wall seconds per time unit for the scenario's asyncio arms — small
#: enough that both arms finish in well under a second each, large enough
#: that millisecond host jitter stays a fraction of one unit
REALTIME_TIME_SCALE = 0.002


def _realtime_fastpath(backend, seed: int) -> Dict[str, Any]:
    """The sequential A/B/C fast-path mix on an arbitrary backend.

    Single-client and fault-free, so the logical structure is
    deterministic: commit counts, stable values and auditor silence must
    not depend on the backend.  Returns the outcome dict plus the elapsed
    time units for the info section.
    """
    cluster = Cluster(seed=seed, backend=backend, fast_paths=True)
    for name in ("home", "s1", "s2"):
        cluster.add_node(name)
    client = cluster.client("home")
    refs: Dict[str, Any] = {}
    commits = {"count": 0}

    def app():
        refs["a"] = yield from client.create("s1", "counter", value=0)
        refs["b"] = yield from client.create("s2", "counter", value=0)
        for index in range(6):       # profile A: single-server write
            action = client.top_level(f"A{index}")
            yield from client.invoke(action, refs["a"], "increment", 1)
            yield from client.commit(action)
            commits["count"] += 1
        for index in range(4):       # profile B: one writer + one reader
            action = client.top_level(f"B{index}")
            yield from client.invoke(action, refs["a"], "increment", 1)
            yield from client.invoke(action, refs["b"], "get")
            yield from client.commit(action)
            commits["count"] += 1
        for index in range(2):       # profile C: two writers
            action = client.top_level(f"C{index}")
            yield from client.invoke(action, refs["a"], "increment", 1)
            yield from client.invoke(action, refs["b"], "increment", 1)
            yield from client.commit(action)
            commits["count"] += 1

    started_units = cluster.kernel.now
    cluster.run_process("home", app())
    result = {
        "commits": commits["count"],
        "a": _stable_int(cluster, refs["a"]),
        "b": _stable_int(cluster, refs["b"]),
        "audit_findings": len(cluster.obs.auditor.report()),
        "elapsed_units": cluster.kernel.now - started_units,
    }
    cluster.close()
    return result


def _realtime_commute(backend, seed: int, workers: int = 4,
                      ops: int = 3) -> Dict[str, Any]:
    """Concurrent commuting adds on an arbitrary backend.

    Commuting operations never conflict, so despite real concurrency on
    the asyncio arm every interleaving commits everything through the
    commute fast path: counts and totals are backend-independent.
    """
    cluster = Cluster(seed=seed, backend=backend, commute=True,
                      lock_wait_timeout=60.0)
    nodes = ("n0", "n1", "n2")
    for name in nodes:
        cluster.add_node(name)
    refs: List[Any] = []

    def setup():
        client = cluster.client("n0")
        for host in ("n1", "n2"):
            ref = yield from client.create(host, "commuting_counter", value=0)
            refs.append(ref)

    cluster.run_process("n0", setup())
    outcomes = {"committed": 0, "aborted": 0}

    def worker(wid):
        client = cluster.client(nodes[wid % len(nodes)], name=f"w{wid}")
        rng = random.Random(seed * 1000 + wid)
        for op in range(ops):
            action = client.top_level(f"w{wid}.op{op}")
            try:
                for ref in refs:
                    yield from client.invoke(action, ref, "add", 1)
                yield from client.commit(action)
                outcomes["committed"] += 1
            except Exception:
                outcomes["aborted"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(1.0 + rng.random())

    started_units = cluster.kernel.now
    for wid in range(workers):
        cluster.spawn(nodes[wid % len(nodes)], worker(wid),
                      name=f"worker{wid}")
    cluster.run()
    commute_commits = 0.0
    for labels, counter in cluster.obs.metrics.series("twopc_fast_path_total"):
        if dict(labels).get("kind") == "commute":
            commute_commits += counter.value
    result = {
        "committed": outcomes["committed"],
        "aborted": outcomes["aborted"],
        "total": sum(_stable_int(cluster, ref) for ref in refs),
        "commute_commits": commute_commits,
        "audit_findings": len(cluster.obs.auditor.report()),
        "elapsed_units": cluster.kernel.now - started_units,
    }
    cluster.close()
    return result


def scenario_realtime_backend(seed: int = 29) -> Dict[str, Any]:
    """Backend parity of the real-time backend.

    Runs two fault-free arms — the sequential fast-path mix and the
    concurrent commute workload — once on the sim backend and once on
    :class:`AsyncioKernel`, same seeds.  Gated ``metrics`` carry the
    backend-independent outcomes (commit counts, stable values, auditor
    silence) plus explicit 0/1 parity flags.  No wall clock is read here:
    the asyncio backend's wall latency is the repo benchmark's
    ``realtime_2pc`` workload.
    """
    logical = ("commits", "a", "b", "committed", "aborted", "total",
               "commute_commits", "audit_findings")

    def outcomes_of(result: Dict[str, Any]) -> Dict[str, Any]:
        return {key: result[key] for key in logical if key in result}

    arms = {
        "fastpath": _realtime_fastpath,
        "commute": _realtime_commute,
    }
    metrics: Dict[str, float] = {}
    info: Dict[str, Any] = {"time_scale": REALTIME_TIME_SCALE}
    for arm, build in arms.items():
        sim = build(None, seed)
        real = build(AsyncioKernel(time_scale=REALTIME_TIME_SCALE), seed)
        assert outcomes_of(sim) == outcomes_of(real), (arm, sim, real)
        assert sim["audit_findings"] == 0, (arm, sim)
        for key, value in outcomes_of(sim).items():
            metrics[f"{arm}.{key}"] = value
        metrics[f"{arm}.parity"] = 1.0
        info[f"{arm}_sim_elapsed_units"] = round(sim["elapsed_units"], 6)
    return _document(
        "realtime_backend", seed,
        {"arms": sorted(arms), "time_scale": REALTIME_TIME_SCALE,
         "backends": ["sim", "asyncio"]},
        metrics, info)


SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "contention_sweep": scenario_contention_sweep,
    "colour_sweep": scenario_colour_sweep,
    "cluster_fanout": scenario_cluster_fanout,
    "chaos_mix": scenario_chaos_mix,
    "twopc_fastpath": scenario_twopc_fastpath,
    "commute_avoidance": scenario_commute_avoidance,
    "soak_smoke": scenario_soak_smoke,
    "realtime_backend": scenario_realtime_backend,
}


def run_scenarios(out_dir: str,
                  only: Optional[List[str]] = None) -> List[Tuple[str, str]]:
    os.makedirs(out_dir, exist_ok=True)
    written: List[Tuple[str, str]] = []
    for name, build in SCENARIOS.items():
        if only and name not in only:
            continue
        print(f"running scenario {name} ...", flush=True)
        doc = build()
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append((name, path))
        print(f"  wrote {path} ({len(doc['metrics'])} gated metrics)")
    return written


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="run perf scenarios and emit BENCH_<scenario>.json")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_*.json (default: cwd)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of scenarios to run")
    args = parser.parse_args(argv)
    unknown = set(args.only or []) - set(SCENARIOS)
    if unknown:
        print(f"error: unknown scenarios {sorted(unknown)} "
              f"(have {sorted(SCENARIOS)})", file=sys.stderr)
        return 1
    run_scenarios(args.out, args.only)
    return 0


if __name__ == "__main__":
    sys.exit(main())
