"""Backend parity: the same protocol stack, sim vs real asyncio.

The contract (docs/BACKENDS.md): on fault-free configurations whose
logical structure is deterministic — sequential workloads, or concurrent
workers acquiring locks in one canonical order — the same seed produces
*identical* commit/abort outcomes, stable state and auditor silence on
both backends.  Under injected faults the asyncio backend's real
scheduling may reassign which message eats which fault draw, so only
statistical invariants are gated there: conservation, terminal
accounting (committed + failed == attempts) and a clean audit.

Every workload below returns a plain outcome dict and is run once per
backend; the asyncio arm uses a small ``time_scale`` so the whole module
stays a few wall seconds.
"""

import random

import pytest

from repro.backend import AsyncioKernel
from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkConfig
from repro.objects.state import ObjectState
from repro.sim.kernel import Timeout

TIME_SCALE = 0.002


def aio():
    return AsyncioKernel(time_scale=TIME_SCALE)


def stable_int(cluster, ref):
    """Committed integer value of a counter object, read off stable store."""
    stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
    return ObjectState.from_bytes(stored.payload).unpack_int()


def audit_findings(cluster):
    return [f.as_dict() for f in cluster.obs.auditor.report()]


# -- workloads ----------------------------------------------------------------


def sequential_mix(backend, seed=29, fast_paths=True):
    """The A/B/C profile mix from the fast-path benchmark, single client.

    Sequential, fault-free: logically deterministic on any backend, so
    commit counts and stable values must match sim exactly.
    """
    cluster = Cluster(seed=seed, backend=backend, fast_paths=fast_paths)
    for name in ("home", "s1", "s2"):
        cluster.add_node(name)
    client = cluster.client("home")
    result = {"commits": 0}

    def app():
        a = yield from client.create("s1", "counter", value=0)
        b = yield from client.create("s2", "counter", value=0)
        for index in range(6):       # profile A: single-server write
            action = client.top_level(f"A{index}")
            yield from client.invoke(action, a, "increment", 1)
            yield from client.commit(action)
            result["commits"] += 1
        for index in range(4):       # profile B: one writer + one reader
            action = client.top_level(f"B{index}")
            yield from client.invoke(action, a, "increment", 1)
            yield from client.invoke(action, b, "get")
            yield from client.commit(action)
            result["commits"] += 1
        for index in range(2):       # profile C: two writers
            action = client.top_level(f"C{index}")
            yield from client.invoke(action, a, "increment", 1)
            yield from client.invoke(action, b, "increment", 1)
            yield from client.commit(action)
            result["commits"] += 1
        result["refs"] = (a, b)

    cluster.run_process("home", app())
    a, b = result["refs"]
    outcome = {
        "commits": result["commits"],
        "a": stable_int(cluster, a),
        "b": stable_int(cluster, b),
        "findings": audit_findings(cluster),
    }
    cluster.close()
    return outcome


def concurrent_contention(backend, seed=11, workers=4, ops=3):
    """Concurrent writers over shared counters, canonical lock order.

    Workers contend on the same two objects but always lock them in the
    same order, so every interleaving serialises to the same totals:
    commit/abort counts and final sums must match across backends even
    though the asyncio arm interleaves for real.
    """
    cluster = Cluster(seed=seed, backend=backend, lock_wait_timeout=60.0)
    nodes = ("n0", "n1", "n2")
    for name in nodes:
        cluster.add_node(name)
    refs = []

    def setup():
        client = cluster.client("n0")
        for host in ("n1", "n2"):
            ref = yield from client.create(host, "counter", value=0)
            refs.append(ref)

    cluster.run_process("n0", setup())
    outcomes = {"committed": 0, "aborted": 0}

    def worker(wid):
        client = cluster.client(nodes[wid % len(nodes)], name=f"w{wid}")
        rng = random.Random(seed * 1000 + wid)
        for op in range(ops):
            action = client.top_level(f"w{wid}.op{op}")
            try:
                for ref in refs:                 # canonical order
                    yield from client.invoke(action, ref, "increment", 1)
                yield from client.commit(action)
                outcomes["committed"] += 1
            except Exception:
                outcomes["aborted"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(1.0 + rng.random())

    for wid in range(workers):
        cluster.spawn(nodes[wid % len(nodes)], worker(wid),
                      name=f"worker{wid}")
    cluster.run()
    outcome = {
        "committed": outcomes["committed"],
        "aborted": outcomes["aborted"],
        "total": sum(stable_int(cluster, ref) for ref in refs),
        "findings": audit_findings(cluster),
    }
    cluster.close()
    return outcome


def commute_contention(backend, seed=37, workers=4, ops=3):
    """Concurrent adds on commuting counters with the commute path on.

    Commuting operations never conflict, so no aborts anywhere and the
    commute fast path must carry every commit — on both backends.
    """
    cluster = Cluster(seed=seed, backend=backend, commute=True,
                      lock_wait_timeout=60.0)
    nodes = ("n0", "n1", "n2")
    for name in nodes:
        cluster.add_node(name)
    refs = []

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

    for wid in range(workers):
        cluster.spawn(nodes[wid % len(nodes)], worker(wid),
                      name=f"worker{wid}")
    cluster.run()
    commute_commits = 0.0
    for labels, counter in cluster.obs.metrics.series("twopc_fast_path_total"):
        if dict(labels).get("kind") == "commute":
            commute_commits += counter.value
    outcome = {
        "committed": outcomes["committed"],
        "aborted": outcomes["aborted"],
        "total": sum(stable_int(cluster, ref) for ref in refs),
        "commute_commits": commute_commits,
        "findings": audit_findings(cluster),
    }
    cluster.close()
    return outcome


def faulty_transfers(backend, seed=7, transfers=8, amount=5, initial=1000):
    """Money transfers over a lossy, duplicating network.

    Fault draws land on different messages per backend (real scheduling
    reorders sends), so only invariants are compared: conservation of
    money, terminal accounting and auditor silence.
    """
    cluster = Cluster(
        seed=seed, backend=backend,
        config=NetworkConfig(drop_probability=0.08,
                             duplicate_probability=0.04),
        rpc_retries=12, lock_wait_timeout=120.0)
    for name in ("home", "s1", "s2"):
        cluster.add_node(name)
    client = cluster.client("home")
    refs = {}
    outcomes = {"committed": 0, "failed": 0}

    def setup():
        refs["A"] = yield from client.create("s1", "account",
                                             owner="A", balance=initial)
        refs["B"] = yield from client.create("s2", "account",
                                             owner="B", balance=0)

    cluster.run_process("home", setup())

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
            yield Timeout(5.0)

    cluster.run_process("home", workload())

    def stable_balance(ref):
        stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
        state = ObjectState.from_bytes(stored.payload)
        state.unpack_string()
        return state.unpack_int()

    balance_a = stable_balance(refs["A"])
    balance_b = stable_balance(refs["B"])
    outcome = {
        "committed": outcomes["committed"],
        "failed": outcomes["failed"],
        "attempts": transfers,
        "conserved": balance_a + balance_b == initial,
        "b_matches": balance_b == outcomes["committed"] * amount,
        "findings": audit_findings(cluster),
    }
    cluster.close()
    return outcome


# -- parity gates -------------------------------------------------------------


def test_sequential_mix_identical_outcomes():
    sim = sequential_mix(None)
    real = sequential_mix(aio())
    assert sim == real, (sim, real)
    assert sim["commits"] == 12 and sim["a"] == 12 and sim["b"] == 2
    assert sim["findings"] == []


def test_sequential_mix_parity_holds_without_fast_paths():
    sim = sequential_mix(None, seed=31, fast_paths=False)
    real = sequential_mix(aio(), seed=31, fast_paths=False)
    assert sim == real, (sim, real)
    assert sim["findings"] == []


def test_concurrent_contention_identical_outcomes():
    sim = concurrent_contention(None)
    real = concurrent_contention(aio())
    assert sim == real, (sim, real)
    assert sim["committed"] == 12 and sim["aborted"] == 0
    assert sim["total"] == 24 and sim["findings"] == []


def test_commute_path_identical_outcomes():
    sim = commute_contention(None)
    real = commute_contention(aio())
    assert sim == real, (sim, real)
    assert sim["committed"] == 12 and sim["total"] == 24
    assert sim["commute_commits"] == 24.0 and sim["findings"] == []


def test_faulty_network_invariants_on_both_backends():
    for outcome in (faulty_transfers(None), faulty_transfers(aio())):
        assert outcome["committed"] + outcome["failed"] == outcome["attempts"]
        assert outcome["conserved"], outcome
        assert outcome["b_matches"], outcome
        assert outcome["findings"] == [], outcome


def test_asyncio_seeded_runs_are_outcome_stable():
    """Scheduling jitter must not leak into logical outcomes: the same
    fault-free seeded workload yields the same result dict run-to-run."""
    first = concurrent_contention(aio(), seed=23)
    second = concurrent_contention(aio(), seed=23)
    assert first == second, (first, second)
    assert first["findings"] == []


@pytest.mark.parametrize("seed", [3, 17])
def test_sequential_mix_parity_across_seeds(seed):
    assert sequential_mix(None, seed=seed) == sequential_mix(aio(), seed=seed)
