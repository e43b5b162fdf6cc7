"""Distributed make over the cluster simulator (fig. 8).

Files live as :class:`FileObject` instances on (possibly many) nodes;
prerequisite targets are built **concurrently** as separate simulation
processes (requirement (i)); each target's check-and-rebuild runs under a
distributed serializing action (requirements (ii) and (iii)): the timestamp
comparison and the command execution commit top-level (permanent in the
hosting nodes' stable stores at constituent commit), while the control
action's retained locks stop other programs touching the files mid-make.

The decisions are :class:`~repro.apps.make.engine.MakeBody` 's; this module
is the cluster's calling convention.  Compilation cost is simulated time
(``compile_duration``), so the speedup from concurrent building is directly
measurable as makespan.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.make.engine import MakeBody, MakeReport, initial_file
from repro.apps.make.makefile import Makefile
from repro.cluster.client import ClusterAction, ClusterClient, ObjectRef
from repro.cluster.cluster import Cluster
from repro.cluster.structures import ClusterSerializingAction
from repro.sim.kernel import Timeout, all_of


class DistributedMakeEngine(MakeBody):
    """Concurrent, fault-tolerant make across simulated nodes."""

    def __init__(self, cluster: Cluster, client: ClusterClient,
                 makefile: Makefile, placement: Dict[str, str],
                 compile_duration: float = 20.0,
                 fail_before: Optional[str] = None,
                 build_retries: int = 2,
                 retry_pause: float = 30.0):
        """``placement``: file name -> node hosting its FileObject.

        ``build_retries``: how many times to retry one target's
        check-and-rebuild after a transient failure (a file server crashed
        mid-build and the action aborted).  Combined with constituents'
        permanence this is the full requirement-(iii) story: committed
        targets stay, the interrupted one is redone once its server is
        back.
        """
        super().__init__(makefile, fail_before)
        self.cluster = cluster
        self.client = client
        self.kernel = cluster.kernel
        self.placement = dict(placement)
        self.compile_duration = compile_duration
        self.build_retries = build_retries
        self.retry_pause = retry_pause
        self.refs: Dict[str, ObjectRef] = {}

    # -- setup -------------------------------------------------------------------

    def setup(self, sources: Dict[str, str]):
        """Generator: create every file object on its placed node, in
        its :func:`~repro.apps.make.engine.initial_file` state."""
        for name in sorted(self.placement):
            self.refs[name] = yield from self.client.create(
                self.placement[name], "file", **initial_file(name, sources))
        return self.refs

    def touch_source(self, name: str):
        """Generator: bump a source file's timestamp (forces rebuilds)."""
        action = self.client.top_level(f"touch:{name}")
        return self.client.run_scope(action, self.client.invoke(
            action, self.refs[name], "touch", self.kernel.now + 1.0))

    # -- primitives: each target a process, every call an RPC -----------------------

    def _start(self, target: str, report: MakeReport):
        return self.kernel.spawn(
            self._make_target(target, report), name=f"make:{target}")

    def _join(self, handles):
        if handles:
            yield all_of(self.kernel, [h.join() for h in handles])

    def _serializing(self, name: str) -> ClusterSerializingAction:
        return ClusterSerializingAction(self.client, name=name)

    def _constituent(self, ser: ClusterSerializingAction, name: str, body):
        action = ser.constituent(name)
        return ser.run_constituent(action, body(action))

    def _end(self, structure, how: str):
        return getattr(structure, how)()

    def _invoke(self, action: ClusterAction, name: str, method: str, *args):
        return self.client.invoke(action, self.refs[name], method, *args)

    def _compiled(self):
        yield Timeout(self.compile_duration)  # the cc run
        return self.kernel.now

    def _pause(self):
        yield Timeout(self.retry_pause)

    # -- verification helpers ----------------------------------------------------------

    def stable_timestamp(self, name: str) -> float:
        """Read a file's committed timestamp straight from its node's stable
        store (crash-survival checks)."""
        from repro.objects.state import ObjectState
        node = self.cluster.nodes[self.placement[name]]
        stored = node.stable_store.read_committed(self.refs[name].uid)
        state = ObjectState.from_bytes(stored.payload)
        state.unpack_string()   # name
        state.unpack_string()   # content
        return state.unpack_float()

    def consistent_targets(self) -> List[str]:
        """Targets whose committed timestamp beats all their prerequisites'."""
        consistent = []
        for target, rule in self.makefile.rules.items():
            if target not in self.refs:
                continue
            own = self.stable_timestamp(target)
            if own > 0 and all(
                self.stable_timestamp(p) < own for p in rule.prerequisites
            ):
                consistent.append(target)
        return sorted(consistent)
