"""Chaos runs: random crashes + message loss must never break atomicity.

The canonical invariant workload: transfers between two accounts on two
different object servers, while a fault schedule crashes and restarts the
servers and the network drops messages.  Whatever mixture of commits,
aborts, timeouts and recoveries results, the *committed stable states*
must satisfy:

- conservation: balance(A) + balance(B) == initial total;
- agreement: the stable states match exactly the transfers the client saw
  commit (all-or-nothing per transfer, across both nodes).

Every case runs on both execution backends under its one test id.  Only
invariants are checked: on asyncio the fault draws land on other messages
than on sim, so outcomes are not compared across backends.
"""

import pytest

from repro.backend import AsyncioBackend, SimBackend
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FaultSchedule
from repro.cluster.network import NetworkConfig
from repro.objects.state import ObjectState
from tests.oracle import check

AMOUNT = 5
TRANSFERS = 25
INITIAL = 1000
BACKENDS = (SimBackend, lambda: AsyncioBackend(time_scale=0.0005))


def stable_balance(cluster, ref):
    stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
    state = ObjectState.from_bytes(stored.payload)
    state.unpack_string()            # owner
    return state.unpack_int()        # balance


def run_chaos(seed: int, drop: float = 0.1, backend=None):
    cluster = Cluster(
        seed=seed,
        backend=backend,
        config=NetworkConfig(drop_probability=drop,
                             duplicate_probability=0.05),
        rpc_retries=10,
        lock_wait_timeout=120.0,
    )
    for name in ("home", "s1", "s2"):
        cluster.add_node(name)
    client = cluster.client("home")
    refs = {}
    outcomes = {"committed": 0, "failed": 0}

    def setup():
        refs["A"] = yield from client.create("s1", "account",
                                             owner="A", balance=INITIAL)
        refs["B"] = yield from client.create("s2", "account",
                                             owner="B", balance=0)

    cluster.run_process("home", setup())
    schedule = FaultSchedule(cluster, seed=seed,
                             mean_uptime=400.0, mean_downtime=40.0)
    schedule.arm(["s1", "s2"], horizon=4000.0, start_after=50.0)

    def workload():
        from repro.sim.kernel import Timeout
        for index in range(TRANSFERS):
            action = client.top_level(f"xfer{index}")
            try:
                yield from client.invoke(action, refs["A"], "withdraw", AMOUNT)
                yield from client.invoke(action, refs["B"], "deposit", AMOUNT)
                yield from client.commit(action)
                outcomes["committed"] += 1
            except Exception:
                outcomes["failed"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(20.0)

    cluster.run_process("home", workload())
    # make sure everything is up, then let recovery and stragglers settle
    for name in ("s1", "s2"):
        if not cluster.nodes[name].alive:
            cluster.restart(name)
    cluster.run(until=cluster.kernel.now + 2_000.0)
    check(cluster)
    return cluster, refs, outcomes, schedule


@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_money_conserved_under_chaos(seed):
    for make in BACKENDS:
        with make() as backend:
            cluster, refs, outcomes, schedule = run_chaos(seed,
                                                          backend=backend)
            balance_a = stable_balance(cluster, refs["A"])
            balance_b = stable_balance(cluster, refs["B"])
            # the run must actually have exercised failures to mean anything
            assert schedule.crash_count() >= 1, backend.name
            assert outcomes["committed"] + outcomes["failed"] == TRANSFERS
            # conservation across both stable stores
            assert balance_a + balance_b == INITIAL, (
                backend.name, outcomes, schedule.planned)
            # agreement with the client's view, per committed transfer
            assert balance_b == outcomes["committed"] * AMOUNT, (
                backend.name, outcomes)


def test_chaos_with_heavier_loss():
    for make in BACKENDS:
        with make() as backend:
            cluster, refs, outcomes, schedule = run_chaos(seed=11, drop=0.25,
                                                          backend=backend)
            balance_a = stable_balance(cluster, refs["A"])
            balance_b = stable_balance(cluster, refs["B"])
            assert balance_a + balance_b == INITIAL, (backend.name, outcomes)
            assert balance_b == outcomes["committed"] * AMOUNT, (
                backend.name, outcomes)
            # under this much adversity some transfers must still get through
            assert outcomes["committed"] >= 1, backend.name


@pytest.mark.parametrize("seed", [2, 5])
def test_spans_agree_with_client_outcomes_under_chaos(seed):
    """Span-based invariants: the trace must tell the same story as the
    client — one finished action span per transfer, with outcomes matching
    what the client saw, and exactly one committed 2PC round per committed
    transfer (a decided round never ends in a client-visible failure)."""
    for make in BACKENDS:
        with make() as backend:
            cluster, _refs, outcomes, _schedule = run_chaos(
                seed, backend=backend)
            check_spans(cluster, outcomes)


def check_spans(cluster, outcomes):
    """One backend's run: the trace tells the client's story."""
    spans = cluster.obs.tracer.snapshot()

    action_spans = [s for s in spans if s.name.startswith("action:xfer")]
    assert len(action_spans) == TRANSFERS
    assert all(s.finished for s in action_spans)
    span_outcomes = {"committed": 0, "aborted": 0}
    for span in action_spans:
        span_outcomes[span.attrs["outcome"]] += 1
    assert span_outcomes["committed"] == outcomes["committed"]
    assert span_outcomes["aborted"] == outcomes["failed"]

    committed_rounds = [s for s in spans if s.name.startswith("2pc:")
                        and s.attrs.get("outcome") == "committed"]
    assert len(committed_rounds) == outcomes["committed"]
    assert all(s.finished for s in committed_rounds)

    # client-side termination spans always close, even when servers were
    # crashed or partitioned at the time (reapers carry on in background)
    for name in ("commit", "abort"):
        terminal = [s for s in spans
                    if s.name == name and s.kind == "client"]
        assert all(s.finished for s in terminal)
