"""History is a layer: what a bare hub keeps, and what the layer keeps.

Counts, not clocks.  A bare ``Cluster()`` audits and counts but retains
nothing per commit — no event, no finished span, no series or resolved
lookup per colour, no finished action in the reconstructed world or the
auditor — so what it holds after N commits it holds after 4 N.  Nor do
its nodes: reply caches, logs, transaction tables and lock registries
stay under one bound whatever the number of commits.
With ``observe(history=True)`` all of that grows again, and a dump is the
parent commit's dump byte for byte; so is a bare run's, which is metrics
only.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from benchmarks.e2e import workloads
from repro.apps.meeting.distributed import DistributedMeetingScheduler
from repro.apps.meeting.scheduler import SchedulerCrash
from repro.cluster.cluster import Cluster
from repro.cluster.txn import CHECKPOINT_EVERY, COORDINATOR, PARTICIPANT
from tests.test_obs_slo import _matrix_cluster

SERVERS = ("s1", "s2")
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(commits, history):
    """Four clients on ``home``, each with a counter of its own on either
    server, ``commits`` two-server commits in all; returns what the hub
    retains as built, and as run."""
    cluster, built = _drive(commits, history)
    return built, {**_retained(cluster.obs), **_remembered(cluster.obs)}


def _drive(commits, history):
    """The run of :func:`_run`: the cluster after it, and what its hub
    retained as built."""
    cluster = Cluster(seed=7)
    if history:
        cluster.observe(history=True)
    built = _retained(cluster.obs)
    for name in ("home",) + SERVERS:
        cluster.add_node(name)
    clients = [cluster.client("home", name=f"c{i}") for i in range(4)]
    refs = []

    def setup():
        for index in range(8):
            refs.append((yield from clients[0].create(
                SERVERS[index % 2], "counter", value=0)))

    def loop(client, index):
        for op in range(commits // 4):
            action = client.top_level(f"c{index}.op{op}")
            for ref in refs[2 * index:2 * index + 2]:
                yield from client.invoke(action, ref, "increment", 1)
            yield from client.commit(action)

    cluster.run_process("home", setup())
    loops = [cluster.spawn("home", loop(client, index))
             for index, client in enumerate(clients)]
    cluster.run()
    assert [loop.error for loop in loops] == [None] * 4
    assert cluster.obs.auditor.report() == []
    assert not cluster.obs.bus.errors
    return cluster, built


def _retained(hub):
    history = hub.layers.get("history")
    series = {}
    for per_kind in hub.metrics._instruments.values():
        for name, per_name in per_kind.items():
            series[name] = series.get(name, 0) + len(per_name)
    return {
        "spans": len(hub.tracer.spans),
        "events": len(history.events) if history is not None else 0,
        "series": series,
        "resolved": len(hub.metrics._resolved),
        "subscriptions": len(hub.bus._subscriptions),
        "layers": list(hub.layers),
    }


def _remembered(hub):
    """What the reconstructed world and the auditor still hold of the run."""
    world, auditor = hub.world, hub.auditor
    return {"world": (len(world.actions), len(world.txns), len(world.holds)),
            "auditor": (len(auditor._accesses), len(auditor._closed))}


def test_a_bare_cluster_keeps_nothing_per_commit():
    built, small = _run(16, history=False)
    _built, large = _run(64, history=False)
    # construction alone: the World under the auditor, nothing else
    assert built == {"spans": 0, "events": 0, "series": {}, "resolved": 0,
                     "subscriptions": 1, "layers": []}
    assert small["series"]["actions_committed_total"] == 1
    assert large == small
    assert small["spans"] == small["events"] == 0


def _kept(cluster):
    """Per node, what it keeps that could grow with commits."""
    kept = {}
    for name, node in cluster.nodes.items():
        registry = cluster.servers[name].registry
        kept[name] = {
            "replies": sum(len(caller.replies) for caller
                           in node.volatile.get("rpc_cache", {}).values()),
            "wal": len(node.wal),
            "txns": sum(len(node.txns.entries(role))
                        for role in (PARTICIPANT, COORDINATOR)),
            "forgotten": len(node.txns.forgotten),
            "registry": len(registry._waiting_by) + len(registry._held_by),
        }
    return kept


def test_a_bare_cluster_node_keeps_no_more_after_4n_commits():
    """Past several automatic checkpoints on every node, everything a node
    keeps stays under ``CHECKPOINT_EVERY`` plus what may still be pending
    — at most one record per commit in flight, four clients' worth."""
    commits = 2 * CHECKPOINT_EVERY
    bound = CHECKPOINT_EVERY + 8
    for run in (commits, 4 * commits):
        cluster, _built = _drive(run, history=False)
        kept = _kept(cluster)
        assert all(node.wal.checkpoint_lsn for node in cluster.nodes.values())
        for name, sizes in kept.items():
            assert max(sizes.values()) <= bound, (run, name, sizes)
            assert sizes["registry"] == 0, (run, name)
            assert sizes["replies"] <= 1, (run, name)


def test_with_history_bound_everything_per_commit_is_kept():
    built, small = _run(16, history=True)
    _built, large = _run(64, history=True)
    assert built == {"spans": 0, "events": 0, "series": {}, "resolved": 0,
                     "subscriptions": 2, "layers": ["history"]}
    for key in ("spans", "events", "resolved"):
        assert large[key] > 3 * small[key] > 0, key
    for name in ("actions_committed_total", "commit_latency",
                 "twopc_prepare_time", "lock_wait_time", "lock_hold_time"):
        assert large["series"][name] > 3 * small["series"][name] > 0, name
    # the colour-less series are the same ones, the totals the same totals
    _built, bare = _run(64, history=False)
    assert set(bare["series"]) == set(large["series"])
    assert all(bare["series"][name] <= count
               for name, count in large["series"].items())


#: ``hub.save()`` at the commit before the history layer existed (when a
#: bare hub kept everything): sha256 and size of the file.  The five runs
#: with queued locks were re-pinned when the edge chaser stopped
#: re-probing on a clock: fewer ``dl_probe`` sends shift the seeded delay
#: draws of every later message; ``matrix`` and ``commute_hot`` are as
#: they were.  The three app runs were pinned while make and the meeting
#: scheduler were still written once per runtime: a shared body must
#: spawn, name and call exactly what the distributed engines did.  All
#: ten were re-pinned when thirteen metric series that nothing read were
#: deleted: each is the parent's dump with exactly those rows dropped
#: (re-serialised the way ``save`` writes), and nothing else changed.
#: ``lossy_crash`` was re-pinned (here and bare) when a failed commit's
#: ``txn_abort`` and decided commits came to ride in its abort message:
#: fewer sends shift the seeded fault draws of every later message.
#: ``contended_locks``, ``multicolour`` and ``lossy_crash`` were re-pinned
#: (here and bare) when a completion-phase poll stopped being acked and a
#: blocker PREPARED at the chasing server stopped being probed: fewer
#: ``rpc_ack`` and ``dl_probe`` sends shift the seeded delay draws.
#: All five runs with queued locks were re-pinned (here and bare) when a
#: first delivery came to be acked half an rpc timeout after it arrived
#: and a lock wait's deadline and chase came to follow its blocker set:
#: the ``rpc_ack``, ``dl_probe``, ``invoke`` and ``rpc_reply`` counts
#: change, which shifts the seeded delay draws; ``commute_hot`` is as it
#: was.  ``contended_locks``, ``multicolour`` and ``lossy_crash`` were
#: re-pinned (here and bare) when the edge chaser came to walk a queue
#: entering each waiter once: it sends one ``dl_probe`` per blocker that
#: waits elsewhere, not one per path to it, which shifts the seeded delay
#: draws.  Both ``distributed_make`` dumps were re-pinned when a pure
#: reader's finish replaced its read-only vote: three ``txn_prepare`` and
#: three ``rpc_reply`` sends fewer, which shifts the seeded delay draws.
#: ``commute_hot`` was re-pinned (here and bare) when a live participant's
#: commute prepare stopped re-requesting the group locks its action holds
#: since the invoke: half its ``lock.granted`` events go, and with them
#: half the ``lock_grants_total`` count and the ``lock_wait_time``
#: observations; no message, delay draw or span changes.  ``matrix`` was
#: re-pinned when the postmortem and SLO layers became views: its
#: postmortem section lost the (empty) ``abort_snapshots``, every timeline
#: point gained the SLO layer's four probed gauges, and the window status
#: of the two zero-tolerance objectives reads ``0.0`` where it read ``0``;
#: no event, span, metric or record changes.
PARENT_DUMPS = {
    "matrix": ("df6278fa5b2e02b7e5c79d614d60f56a22683d6994177b2ba87ee942d03b54ce", 223517),
    "steady_2pc": ("93b26ab0e8ed9bf67c9db4b7dc1139cc87651b6f5a5aee014aaef3daed7cc3e4", 1210152),
    "read_mostly": ("b101d460a85ab96da23fbecba405a4c9ba1b7e7aa66d047cb43c1955d05bff1d", 971695),
    "commute_hot": ("8fc0871d20d0897ce1f9b8ed8a19e12a71a06f20ef6de41e9480e2c976af1ee2", 1085261),
    "contended_locks": ("8220bdb88752c530271972e8ad805d4441d61a2944160deeecef6a883fdd5acf", 1201397),
    "multicolour": ("74b532c6f54d61981610413f4c526c7a500d3c8656245c155e1498298d65bee2", 1661466),
    "lossy_crash": ("debdb633a8a2958e83dbb5ccd89b414a865dc53ba883e7163562610010e45fb7", 2980628),
    "distributed_make": ("9ba6751eabadbe140d10ee118e9033f2d4e813830b854c86a08c00bb8d4b296c", 264741),
    "distributed_make_resumed": ("9853f8c796e9917a2a18fb546d3c31cabbe3fb48a24a056ef4a645946d32ff76", 236740),
    "distributed_meeting": ("15152c749f434c7b399f2c2ecdef0f3323c41ab0aefcb632dd03982f106d1bdd", 540301),
}
#: operations of each e2e-shaped run (seed 5)
E2E_SHAPED = {"steady_2pc": 80, "read_mostly": 80, "commute_hot": 80,
              "contended_locks": 80, "multicolour": 40, "lossy_crash": 200}
#: ``hub.save()`` of the same runs on the bare cluster the benchmark
#: deploys, pinned while a bare hub still built every span and the network
#: reported each message to the registry: what is no longer built or
#: pushed must not show in the metrics it dumps.  Re-pinned, as
#: ``PARENT_DUMPS`` were, with only the thirteen deleted series' rows gone.
BARE_PARENT_DUMPS = {
    "steady_2pc": ("b0c8d03fb07419e1871bd894260f865fc53a0d80d4aa7515a253407a7c256411", 28973),
    "read_mostly": ("1c472eddc6580472c83bc6ef516b78f1a8aa5321a1dd033d7e82108fda4a7361", 30280),
    "commute_hot": ("4a5664abf05441632e2a550aa514b1804782ee1dc44664ce01c4f2a8fdc702ad", 6427),
    "contended_locks": ("18fe966df888d32ca30823e8358a4bf0d5965688d91d45c9ae12f1accac11356", 9035),
    "multicolour": ("6752d4182cac934a7f4a44755723dad4ad50e7ad9725bfdfec36dc89c624c01e", 21266),
    "lossy_crash": ("c9da6ac4e321be3c56bf47b9b5f2a037c86aa1f5e0ea40a8631fc5a1b689e13a", 32811),
}


def _saved(cluster, tmp_path):
    path = tmp_path / "dump.json"
    cluster.obs.save(str(path))
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def test_full_stack_matrix_dump_is_the_parents_byte_for_byte(tmp_path):
    cluster, _engine = _matrix_cluster()
    assert _saved(cluster, tmp_path) == PARENT_DUMPS["matrix"]


@pytest.mark.parametrize("name", list(E2E_SHAPED))
def test_e2e_shaped_dump_is_the_parents_byte_for_byte(name, tmp_path,
                                                      monkeypatch):
    """The benchmark's own ``deploy``/``measure``/``check``, the one
    difference being that the cluster it builds binds the history layer."""
    def observed(**options):
        cluster = Cluster(**options)
        cluster.observe(history=True)
        return cluster

    monkeypatch.setattr(workloads, "Cluster", observed)
    deployment = workloads.deploy(workloads.BY_NAME[name], 5)
    measured = workloads.measure(deployment, 5, E2E_SHAPED[name])
    workloads.check(deployment, measured)
    assert _saved(deployment.cluster, tmp_path) == PARENT_DUMPS[name]


@pytest.mark.parametrize("name", list(E2E_SHAPED))
def test_e2e_shaped_bare_dump_is_the_parents_byte_for_byte(name, tmp_path):
    """The benchmark's run as it deploys it: a bare cluster builds no
    span and the registry pulls the message counts, yet its metrics are
    the ones it dumped when it built and was told everything."""
    deployment = workloads.deploy(workloads.BY_NAME[name], 5)
    measured = workloads.measure(deployment, 5, E2E_SHAPED[name])
    workloads.check(deployment, measured)
    assert deployment.cluster.obs.tracer.spans == []
    assert _saved(deployment.cluster, tmp_path) == BARE_PARENT_DUMPS[name]


def test_distributed_make_dumps_are_the_parents_byte_for_byte(tmp_path):
    """The example's engine: a full build and a no-op re-run; then a build
    that fails before the final link and is resumed."""
    build_engine = runpy.run_path(
        str(EXAMPLES / "distributed_make.py"))["build_engine"]
    cluster, engine = build_engine()
    for _ in range(2):
        cluster.run_process("workstation", engine.make())
    assert _saved(cluster, tmp_path) == PARENT_DUMPS["distributed_make"]
    cluster, engine = build_engine(fail_before="Test")
    assert cluster.run_process("workstation", engine.make()).failed_at
    engine.fail_before = None
    assert cluster.run_process("workstation", engine.make()).completed
    assert (_saved(cluster, tmp_path)
            == PARENT_DUMPS["distributed_make_resumed"])


def test_distributed_meeting_dump_is_the_parents_byte_for_byte(tmp_path):
    """The example's diaries and preferences: a coordinator crash after
    round 1, the pins released, and a second ``schedule``."""
    example = runpy.run_path(str(EXAMPLES / "distributed_meeting.py"))
    people, preferences = example["PEOPLE"], example["PREFERENCES"]
    cluster = Cluster(seed=42)
    cluster.observe(history=True)
    for node in ("coordinator", *people.values()):
        cluster.add_node(node)
    scheduler = DistributedMeetingScheduler(
        cluster, cluster.client("coordinator"), fail_after_round=1)
    cluster.run_process("coordinator", scheduler.create_diaries(
        people, example["DATES"]))

    def crash_then_resume():
        try:
            yield from scheduler.schedule("offsite", preferences)
        except SchedulerCrash:
            pass
        yield from scheduler.release_pins()
        scheduler.fail_after_round = None
        return (yield from scheduler.schedule("offsite", preferences[1:]))

    chosen = cluster.run_process("coordinator", crash_then_resume())
    assert chosen == example["DATES"][3]
    assert _saved(cluster, tmp_path) == PARENT_DUMPS["distributed_meeting"]
