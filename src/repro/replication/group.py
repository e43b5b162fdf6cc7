"""Read-one/write-all replica groups over the cluster.

A :class:`ReplicaGroup` wraps one logical object whose state lives on
several nodes.  Operation dispatch uses the class registry's declared lock
mode: READ operations go to the first replica that answers; WRITE
operations are applied to **every** replica within the same action — the
action's locks and two-phase commit then guarantee that either all copies
change or none do (mutual consistency).

Write-all is strict: one unreachable replica fails the write (and the
caller's action should abort).  That is the classic availability trade-off
of ROWA; the replicated name server accepts it because name-server writes
are rare and reads are what must stay available.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.cluster.client import ClusterAction, ClusterClient, ObjectRef
from repro.errors import ClusterError, RpcTimeout
from repro.locking.modes import LockMode


class ReplicaGroup:
    """One logical object, replicated across nodes."""

    def __init__(self, client: ClusterClient, replicas: Sequence[ObjectRef]):
        if not replicas:
            raise ClusterError("a replica group needs at least one replica")
        types = {ref.type_name for ref in replicas}
        if len(types) != 1:
            raise ClusterError(f"replicas disagree on type: {types}")
        self.client = client
        self.replicas: List[ObjectRef] = list(replicas)
        self.type_name = replicas[0].type_name

    @classmethod
    def create(cls, client: ClusterClient, nodes: Sequence[str],
               type_name: str, *args: Any, **kwargs: Any):
        """Generator: create one replica per node; returns the group."""
        replicas = []
        for node_name in nodes:
            ref = yield from client.create(node_name, type_name, *args, **kwargs)
            replicas.append(ref)
        return cls(client, replicas)

    def invoke(self, action: ClusterAction, method: str, *args: Any,
               colour=None):
        """Generator: run an operation with read-one/write-all dispatch."""
        mode = self.client.operation(self.type_name, method).mode
        if mode is LockMode.READ:
            return (yield from self._read_one(action, method, args, colour))
        return (yield from self._write_all(action, method, args, colour))

    def _read_one(self, action: ClusterAction, method: str, args, colour):
        """Each attempt runs in a nested sub-action: a dead replica aborts
        only the attempt (cleaning any stranded lock), and the survivor's
        read commits up into the caller's action."""
        last_error: Exception = ClusterError("no replicas")
        for ref in self.replicas:
            attempt = self.client.atomic(action, name=f"read@{ref.node}")
            try:
                result = yield from self.client.invoke(
                    attempt, ref, method, *args, colour=colour
                )
            except RpcTimeout as error:
                last_error = error  # `invoke` aborted the attempt already
                continue
            yield from self.client.commit(attempt)
            return result
        raise last_error

    def _write_all(self, action: ClusterAction, method: str, args, colour):
        result: Any = None
        for ref in self.replicas:
            result = yield from self.client.invoke(
                action, ref, method, *args, colour=colour
            )
        return result

    def available_replicas(self) -> List[ObjectRef]:
        """Replicas on currently-up nodes (observability for experiments)."""
        network = self.client.node.network
        return [
            ref for ref in self.replicas
            if network.is_reachable(self.client.node.name, ref.node)
        ]

    # -- available-copies recovery ------------------------------------------------

    def resync(self, stale: ObjectRef, source: Optional[ObjectRef] = None):
        """Generator: copy a current replica's state onto a stale one.

        Available-copies operation (a write proceeded while ``stale``'s
        node was down) leaves that replica behind; after the node restarts
        it must be brought up to date *before* it serves reads again.  The
        copy runs inside one action: write-lock the stale copy, read a
        source copy, install, commit — so the resync is itself atomic and
        ordered with ongoing writes.
        """
        if stale not in self.replicas:
            raise ClusterError(f"{stale} is not a replica of this group")
        donors = [ref for ref in self.replicas if ref != stale]
        if source is not None:
            donors = [source]
        action = self.client.top_level(f"resync:{stale.node}")
        try:
            fresh_state = None
            for donor in donors:
                attempt = self.client.atomic(action, name=f"fetch@{donor.node}")
                try:
                    fresh_state = yield from self.client.invoke(
                        attempt, donor, "get"
                    )
                except RpcTimeout:
                    continue
                yield from self.client.commit(attempt)
                break
            if fresh_state is None:
                raise ClusterError("no reachable donor replica for resync")
            yield from self.client.invoke(action, stale, "set", fresh_state)
            yield from self.client.commit(action)
            return fresh_state
        except BaseException:
            if not action.status.terminated:
                yield from self.client.abort(action)
            raise

    def write_available(self, action: ClusterAction, method: str, *args: Any,
                        colour=None):
        """Generator: available-copies write — skip unreachable replicas.

        Returns (result, missed) where ``missed`` lists the replicas that
        did not receive the write and must be :meth:`resync`'d before they
        serve again.  Trades ROWA's write availability for a recovery
        obligation; the caller owns that obligation.
        """
        mode = self.client.operation(self.type_name, method).mode
        if mode is LockMode.READ:
            raise ClusterError("write_available is for updating operations")
        network = self.client.node.network
        result: Any = None
        missed: List[ObjectRef] = []
        wrote_any = False
        for ref in self.replicas:
            if not network.is_reachable(self.client.node.name, ref.node):
                missed.append(ref)
                continue
            result = yield from self.client.invoke(
                action, ref, method, *args, colour=colour
            )
            wrote_any = True
        if not wrote_any:
            raise ClusterError("no replica available for the write")
        return result, missed
