"""History is a layer: what a bare hub keeps, and what the layer keeps.

Counts, not clocks.  A bare ``Cluster()`` audits and counts but retains
nothing per commit — no event, no finished span, no series or resolved
lookup per colour, no finished action in the reconstructed world or the
auditor — so what it holds after N commits it holds after 4 N.
With ``observe(history=True)`` all of that grows again, and a dump is the
parent commit's dump byte for byte.
"""

import hashlib

import pytest

from benchmarks.e2e import workloads
from repro.cluster.cluster import Cluster
from tests.test_obs_slo import _matrix_cluster

SERVERS = ("s1", "s2")


def _run(commits, history):
    """Four clients on ``home``, each with a counter of its own on either
    server, ``commits`` two-server commits in all; returns what the hub
    retains as built, and as run."""
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
    return built, {**_retained(cluster.obs), **_remembered(cluster.obs)}


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
#: they were.
PARENT_DUMPS = {
    "matrix": ("64072d4f0cfec208e0135be42fd93141ab690a78a564723a278f0004edd87dbb", 222122),
    "steady_2pc": ("40f63d0fcbef519a454bb5dc90f5cf5e7aca606ba6cee6f3a81560c2bacbecd8", 1254170),
    "read_mostly": ("49d9cc77703d998850d9b1a5c78f9c1fb61be380378ef982e32a6b1cb4ac612f", 1001095),
    "commute_hot": ("ac5b232b345f7edd833ba44143abd8ccc20b6d8d05cf7c44331855f511a919e6", 1173010),
    "contended_locks": ("4410202d3dced804bbdecbcc29e72d61d75fb537c87d8c56e9163c22297a73c4", 1245352),
    "multicolour": ("25e57e6ba344a973ad3bc4a92ee3611ce60c05a3608ae79b5fdc219da85c82d9", 1751429),
    "lossy_crash": ("9caf79ec021ab202d79f7831a7876ca03795f65cef9a40935f86c5f0aec93eef", 3101925),
}
#: operations of each e2e-shaped run (seed 5)
E2E_SHAPED = {"steady_2pc": 80, "read_mostly": 80, "commute_hot": 80,
              "contended_locks": 80, "multicolour": 40, "lossy_crash": 200}


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
