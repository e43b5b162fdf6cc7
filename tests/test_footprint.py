"""What a simulated run costs the host process beyond its own work.

- A sim-only process never imports :mod:`asyncio`: ``repro.backend.aio``
  imports it when an ``AsyncioKernel`` is built.
- A fault-free commit, of every shape, leaves nothing to the cyclic
  collector: reference counting frees each lock wait, timer chain and
  reply closure as soon as its last reference goes.  Nor does a commit
  whose prepare a restarted participant refuses: no failure kept past
  the prepare round holds a traceback.
- A histogram's reservoir is a buffer of machine doubles.
"""

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import CommitError
from repro.obs import metrics
from repro.obs.metrics import Histogram
from repro.sim.kernel import Timeout
from tests.oracle import FIXED, check, cluster_of

SRC = Path(__file__).resolve().parents[1] / "src"


def test_a_sim_run_never_imports_asyncio():
    code = textwrap.dedent("""
        import sys
        import repro, repro.cluster.cluster, repro.backend.aio
        from repro.cluster.cluster import Cluster

        def app(client):
            ref = yield from client.create("b", "counter", value=0)
            action = client.top_level("t")
            yield from client.invoke(action, ref, "increment", 1)
            yield from client.commit(action)

        cluster = Cluster(seed=1)
        cluster.add_node("a"); cluster.add_node("b")
        cluster.run_process("a", app(cluster.client("a")))
        print("asyncio" in sys.modules)
        with repro.backend.aio.AsyncioKernel(time_scale=0.001) as kernel:
            cluster = Cluster(seed=1, backend=kernel)
            cluster.add_node("a"); cluster.add_node("b")
            cluster.run_process("a", app(cluster.client("a")))
        print("asyncio" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


# -- the commit shapes: (node names, Cluster kwargs, body) -------------------


def one_phase(cluster, client):
    p1 = yield from client.create("p1", "counter", value=0)
    for _ in range(2):
        action = client.top_level("t")
        yield from client.invoke(action, p1, "increment", 1)
        yield from client.commit(action)


def piggyback(cluster, client):
    p1 = yield from client.create("p1", "counter", value=0)
    p2 = yield from client.create("p2", "counter", value=0)
    r = yield from client.create("r", "counter", value=5)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "increment", 1)
    yield from client.invoke(action, p2, "increment", 1)
    yield from client.invoke(action, r, "get")
    yield from client.commit(action)


def classic(cluster, client):
    p1 = yield from client.create("p1", "counter", value=0)
    p2 = yield from client.create("p2", "counter", value=0)
    action = client.top_level("t")
    yield from client.invoke(action, p1, "increment", 1)
    yield from client.invoke(action, p2, "increment", 1)
    yield from client.commit(action)


def commute(cluster, client):
    p1 = yield from client.create("p1", "commuting_counter", value=0)
    p2 = yield from client.create("p2", "commuting_counter", value=0)
    for _ in range(2):
        action = client.top_level("t")
        yield from client.invoke(action, p1, "add", 1)
        yield from client.invoke(action, p2, "add", 1)
        yield from client.commit(action)


def batched_colours(cluster, client):
    refs = []
    for name in ("p1", "p1", "p2", "p2"):
        ref = yield from client.create(name, "counter", value=0)
        refs.append(ref)
    colours = sorted((client.fresh_colour(f"c{i}") for i in range(2)),
                     key=lambda colour: colour.uid)
    action = client.coloured(colours, name="coloured")
    for index, ref in enumerate(refs):
        yield from client.invoke(action, ref, "increment", 1,
                                 colour=colours[index % 2])
    yield from client.commit(action)


def pure_reader(cluster, client):
    r = yield from client.create("r", "counter", value=5)
    action = client.top_level("t")
    yield from client.invoke(action, r, "get")
    yield from client.commit(action)


def chased_lock_wait(cluster, client):
    """The second action's invoke queues behind the first's write lock
    and waits past ``probe_interval``, so its chain wakes and chases
    before the first's commit grants it."""
    p1 = yield from client.create("p1", "counter", value=0)
    first = client.top_level("first")
    yield from client.invoke(first, p1, "increment", 1)
    second = client.top_level("second")
    waiting = cluster.spawn("coord", client.invoke(
        second, p1, "increment", 1), name="waiter")
    yield Timeout(3 * cluster.probe_interval)
    assert cluster.servers["p1"].lock_waits == 1
    yield from client.commit(first)
    yield waiting
    yield from client.commit(second)


def restarted_before_commit(cluster, client, names):
    """Write on each of ``names``, restart p1 and commit: p1 refuses its
    prepare (the epoch the action was invoked at is gone), and the action
    aborts."""
    action = client.top_level("t")
    for name in names:
        ref = yield from client.create(name, "counter", value=0)
        yield from client.invoke(action, ref, "increment", 1)
    cluster.crash("p1")
    cluster.restart("p1")
    try:
        yield from client.commit(action)
    except CommitError:
        return
    raise AssertionError("a prepare at a restarted participant committed")


def refused_prepare(cluster, client):
    """The refusal comes back to a classic prepare wave."""
    yield from restarted_before_commit(cluster, client, ("p1", "p2"))


def refused_delegation(cluster, client):
    """The refusal answers the one-phase delegation to p1."""
    yield from restarted_before_commit(cluster, client, ("p1",))


SHAPES = {
    "one_phase": (("p1",), {}, one_phase),
    "piggyback": (("p1", "p2", "r"), {}, piggyback),
    "classic": (("p1", "p2"), {"fast_paths": False}, classic),
    "commute": (("p1", "p2"), {}, commute),
    "batched_colours": (("p1", "p2"), {}, batched_colours),
    "pure_reader": (("r",), {}, pure_reader),
    "chased_lock_wait": (("p1",), {}, chased_lock_wait),
    "refused_prepare": (("p1", "p2"), {"fast_paths": False},
                        refused_prepare),
    "refused_delegation": (("p1",), {}, refused_delegation),
}


def run_collecting(nodes, kwargs, body):
    """Run ``body`` to the end with the collector off; returns the cluster
    and ``gc.collect()``'s count of what the run left unreachable, with
    the objects themselves in ``gc.garbage`` (emptied by the caller)."""
    cluster = cluster_of(("coord",) + nodes, seed=7, config=FIXED, **kwargs)
    client = cluster.client("coord")
    gc.collect()
    gc.disable()
    try:
        cluster.run_process("coord", body(cluster, client))
        cluster.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        return cluster, gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_fault_free_commit_leaves_nothing_to_the_cyclic_collector(shape):
    try:
        cluster, unreachable = run_collecting(*SHAPES[shape])
        leaked = sorted({getattr(obj, "__qualname__", type(obj).__name__)
                         for obj in gc.garbage if callable(obj)})
    finally:
        gc.garbage.clear()
    assert (unreachable, leaked) == (0, [])
    check(cluster)


def redo_lock_wait(cluster, client):
    """q restarts after the first action's add, and a second action's read
    takes q's observe lock: the add's commute prepare redoes at the new
    epoch and its redo lock queues behind the read until that commits."""
    q = yield from client.create("q", "commuting_counter", value=0)
    first = client.top_level("first")
    yield from client.invoke(first, q, "add", 1)
    cluster.crash("q")
    cluster.restart("q")
    second = client.top_level("second")
    yield from client.invoke(second, q, "get")
    committing = cluster.spawn("coord", client.commit(first), name="first")
    yield Timeout(3 * cluster.probe_interval)
    assert cluster.servers["q"].lock_waits == 1
    yield from client.commit(second)
    yield committing


def test_a_commute_redo_lock_wait_leaves_no_server_closure():
    try:
        cluster, _ = run_collecting(("q",), {}, redo_lock_wait)
        closures = sorted({obj.__qualname__ for obj in gc.garbage
                           if callable(obj) and getattr(
                               obj, "__qualname__", "").startswith(
                                   "ObjectServer.")})
    finally:
        gc.garbage.clear()
    assert closures == []
    check(cluster)


def test_a_reservoir_holds_max_samples_doubles():
    histogram = Histogram()
    for value in range(metrics.MAX_SAMPLES + 100):
        histogram.observe(value)
    assert histogram.samples.typecode == "d"
    assert len(histogram.samples) == metrics.MAX_SAMPLES
    assert (histogram.samples.itemsize * len(histogram.samples)
            == 8 * metrics.MAX_SAMPLES)
