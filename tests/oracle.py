"""What a fault-injected cluster run is judged by, and how a test injects.

A case that must hold on both execution backends runs under one test id
(:func:`on_both_backends`).  A test lays a plan over the network's own
(:class:`Over`): what the plan leaves open, the seeded plan beneath
decides, so a plan that only watches changes no draw of the run.

:func:`check` is the paper's §5.1 on a settled cluster, in one place:

- nothing left over: no held lock, mirror, fenced object, in-doubt
  ``TxnTable`` entry, unanswered reply slot or live client action, and
  ``hub.bus.errors`` is empty; the hub's ``World`` remembers a hold on a
  server exactly when its lock registry holds one;
- serialisability and the 2PC rules: the online auditor's report is
  ``[]``;
- permanence: every node crashed and restarted, the stable stores are
  what they were, and nothing is in doubt;
- failure atomicity, per colour: the objects one colour wrote are all
  changed on the stable stores, or none is.
"""

from repro.backend import AsyncioKernel
from repro.cluster.network import FaultPlan
from repro.cluster.txn import COORDINATOR, PARTICIPANT, TxnState
from repro.objects.state import ObjectState
from repro.sim.kernel import Kernel

#: sim first, then asyncio at 10 ms per unit
BACKENDS = (Kernel, lambda: AsyncioKernel(time_scale=0.01))
#: in doubt: a promise whose outcome this node does not know
IN_DOUBT = (TxnState.PREPARED, TxnState.DELEGATED)


def on_both_backends(body):
    """Run ``body(backend)`` once per backend under the one test id."""
    def test():
        for make in BACKENDS:
            with make() as backend:
                body(backend)
    test.__name__, test.__doc__ = body.__name__, body.__doc__
    return test


class Over(FaultPlan):
    """A plan laid over the one ``network`` has.  ``decide(message)``
    returns the fates it decides for a send, ``crash(node, kind, after)``
    True to crash at an append; None leaves either to the plan beneath."""

    def __init__(self, network, decide=lambda message: None,
                 crash=lambda node, kind, after: None):
        self.network, self.beneath = network, network.faults
        self.decide, self.crash = decide, crash
        network.faults = self

    def fates(self, message):
        decided = self.decide(message)
        return self.beneath.fates(message) if decided is None else decided

    def crashes(self, node, kind, after):
        decided = self.crash(node, kind, after)
        return (self.beneath.crashes(node, kind, after) if decided is None
                else decided)


def committed_int(cluster, ref):
    """The integer state of object ``ref`` on its node's stable store."""
    stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
    return ObjectState.from_bytes(stored.payload).unpack_int()


def stable(cluster):
    """``(node, uid) -> committed state`` over every stable store."""
    return {(name, uid): node.stable_store.read_committed(uid).payload
            for name, node in cluster.nodes.items()
            for uid in node.stable_store.uids()}


def settled(cluster):
    """Nothing left over, the auditor silent, the World in agreement."""
    assert cluster.obs.auditor.report() == []
    assert cluster.obs.bus.errors == {}
    for client in cluster.clients:
        assert not client.live_actions, client.node.name
    holders = {node for node, _obj in cluster.obs.world.holds}
    for name, server in cluster.servers.items():
        held = server.registry.snapshot()["held"]
        assert (name in holders) == bool(held), name
        assert held == 0 and server.mirrors == {}, name
        assert not server.in_doubt_objects, name
        node = cluster.nodes[name]
        assert not [entry for role in (PARTICIPANT, COORDINATOR)
                    for entry in node.txns.entries(role)
                    if entry.state in IN_DOUBT], name
        for caller in node.volatile.get("rpc_cache", {}).values():
            assert None not in caller.replies.values(), name


def check(cluster, groups=()):
    """§5.1 on a settled cluster.  ``groups`` holds one colour's writes
    each, as ``{(node, uid): stable state before}``; returns, per group,
    whether the colour is on the stable stores."""
    settled(cluster)
    before = stable(cluster)
    for name in cluster.nodes:
        cluster.crash(name)
    for name in cluster.nodes:
        cluster.restart(name)
    cluster.run()
    after = stable(cluster)
    assert after == before
    settled(cluster)
    applied = []
    for group in groups:
        changed = {key: after[key] != state for key, state in group.items()}
        assert len(set(changed.values())) <= 1, changed
        applied.append(all(changed.values()))
    return applied
