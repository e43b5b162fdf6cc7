"""Seeded demo cluster for the ``top`` console and the introspection tests.

Builds the chaos-mix shape — three nodes, accounts on two of them, a
transfer workload coordinated from ``beta`` — turns on a
:class:`~repro.obs.introspect.ClusterInspector`, and optionally injects
one of two faults:

* ``partition`` — cut ``beta``/``gamma`` right after a transfer's commit
  decision is logged but before phase two can reach ``gamma``; the probe
  (vantage ``alpha``, which still reaches everyone) then catches ``gamma``
  holding the decided transaction prepared — ``finished-txn-in-flight``
  drift — until the partition heals and the reaper completes the fanout.
* ``restart`` — crash and restart ``gamma`` under a live action that
  already touched it; the probe sees the bumped epoch disagree with the
  epoch the action recorded at first contact — ``epoch-drift``.

The classic presumed-abort protocol is pinned (``fast_paths=False``,
``commute=False``) so the coordinator itself logs the commit decision;
delegated decisions would be excluded from the finished-txn cross-check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkConfig
from repro.cluster.txn import COORDINATOR, decision_of
from repro.obs.introspect.inspector import ClusterInspector
from repro.sim.kernel import Timeout

ARMS = ("fault-free", "partition", "restart")
_NODES = ("alpha", "beta", "gamma")
_TRANSFERS = 6
_AMOUNT = 5
_INITIAL = 100


def _run_until(cluster: Cluster, predicate: Callable[[], bool],
               step: float = 0.25, limit: float = 300.0) -> bool:
    """Advance the sim in sub-delay slices until ``predicate`` holds."""
    deadline = cluster.kernel.now + limit
    while not predicate() and cluster.kernel.now < deadline:
        cluster.run(until=cluster.kernel.now + step)
    return predicate()


def run_demo(seed: int = 0, arm: str = "fault-free",
             interval: float = 10.0) -> Dict[str, Any]:
    """Run one demo arm to completion; returns cluster + inspector + stats.

    The returned inspector holds the periodic snapshot ring (``interval``
    sim-ticks apart) plus explicit probes taken at the interesting
    instants: after the base workload, inside the fault window, and after
    recovery.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; pick one of {ARMS}")
    cluster = Cluster(seed=seed, config=NetworkConfig(),
                      fast_paths=False, commute=False)
    for name in _NODES:
        cluster.add_node(name)
    client = cluster.client("beta")
    inspector = cluster.observe(
        history=True,  # the probes' own events are part of what a demo shows
        introspection={"interval": interval})[ClusterInspector.section]
    refs: Dict[str, Any] = {}
    stats = {"committed": 0, "failed": 0}

    def setup():
        refs["A"] = yield from client.create("beta", "account",
                                             owner="A", balance=_INITIAL)
        refs["B"] = yield from client.create("gamma", "account",
                                             owner="B", balance=0)

    cluster.run_process("beta", setup())

    def transfer(index: int):
        action = client.top_level(f"xfer{index}")
        try:
            yield from client.invoke(action, refs["A"], "withdraw", _AMOUNT)
            yield from client.invoke(action, refs["B"], "deposit", _AMOUNT)
            yield from client.commit(action)
            stats["committed"] += 1
        except Exception:
            stats["failed"] += 1
            if not action.status.terminated:
                yield from client.abort(action)

    def base_workload():
        for index in range(_TRANSFERS):
            yield from transfer(index)
            yield Timeout(5.0)

    cluster.run_process("beta", base_workload())
    inspector.probe_once()

    if arm == "partition":
        txns = client.node.txns
        before = {entry.txn_id for entry in txns.entries(COORDINATOR)}

        def decided() -> bool:
            return any(entry.txn_id not in before
                       and decision_of(entry.state) is not None
                       for entry in txns.entries(COORDINATOR))

        cluster.spawn("beta", transfer(_TRANSFERS), name="partitioned-xfer")
        # cut the link within one polling slice of the decision log write:
        # the phase-two messages to gamma are still in flight (network
        # delay >= 0.5) and get dropped at delivery time
        _run_until(cluster, decided)
        cluster.network.partition("beta", "gamma")
        # let the decision outlive the propagation grace, plus the fanout
        # retries, so the next probe sees unambiguous drift
        cluster.run(until=cluster.kernel.now
                    + inspector.decision_grace + 30.0)
        inspector.probe_once()
        cluster.network.heal_all()
        cluster.run(until=cluster.kernel.now + 120.0)
    elif arm == "restart":
        action = client.top_level("held-open")
        cluster.run_process(
            "beta", client.invoke(action, refs["B"], "deposit", 1))
        cluster.crash("gamma")
        cluster.run(until=cluster.kernel.now + 5.0)
        inspector.probe_once()          # gamma down: stalled, unreachable
        cluster.restart("gamma")
        cluster.run(until=cluster.kernel.now + 5.0)
        inspector.probe_once()          # epoch moved under the live action
        cluster.run_process("beta", client.abort(action))
        cluster.run(until=cluster.kernel.now + 60.0)

    inspector.probe_once()
    return {"cluster": cluster, "inspector": inspector, "client": client,
            "refs": refs, "stats": stats}
