"""Distributed make over the cluster simulator (fig. 8).

Files live as :class:`FileObject` instances on (possibly many) nodes;
prerequisite targets are built **concurrently** as separate simulation
processes (requirement (i)); each target's check-and-rebuild runs under a
distributed serializing action (requirements (ii) and (iii)): the timestamp
comparison and the command execution commit top-level (permanent in the
hosting nodes' stable stores at constituent commit), while the control
action's retained locks stop other programs touching the files mid-make.

Compilation cost is simulated time (``compile_duration``), so the speedup
from concurrent building is directly measurable as makespan.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.make.engine import (
    MakeFailure, MakeReport, SimulatedCompiler, initial_file)
from repro.apps.make.graph import DependencyGraph
from repro.apps.make.makefile import Makefile
from repro.cluster.client import ClusterClient, ObjectRef
from repro.cluster.cluster import Cluster
from repro.cluster.structures import ClusterSerializingAction
from repro.sim.kernel import Timeout, all_of


class DistributedMakeEngine:
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
        self.cluster = cluster
        self.client = client
        self.kernel = cluster.kernel
        self.makefile = makefile
        self.graph = DependencyGraph(makefile)
        self.placement = dict(placement)
        self.compile_duration = compile_duration
        self.fail_before = fail_before
        self.build_retries = build_retries
        self.retry_pause = retry_pause
        self.refs: Dict[str, ObjectRef] = {}
        self._building: Dict[str, object] = {}  # target -> Process

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
        def body():
            yield from self.client.invoke(
                action, self.refs[name], "touch", self.kernel.now + 1.0
            )
        return self.client.run_scope(action, body())

    # -- building ------------------------------------------------------------------

    def make(self, goal: Optional[str] = None):
        """Generator: build ``goal``; returns a :class:`MakeReport`."""
        goal = goal or self.makefile.default_goal
        report = MakeReport(goal=goal)
        self._building = {}
        try:
            yield from self._make_target(goal, report)
        except MakeFailure:
            pass
        return report

    def _make_target(self, target: str, report: MakeReport):
        rule = self.makefile.rule(target)
        if rule is None:
            return  # source file
        # phase (i): prerequisites concurrently, deduplicated across parents
        prereq_targets = [p for p in rule.prerequisites if self.graph.is_target(p)]
        handles = []
        for prereq in prereq_targets:
            handle = self._building.get(prereq)
            if handle is None:
                handle = self.kernel.spawn(
                    self._make_target(prereq, report), name=f"make:{prereq}"
                )
                self._building[prereq] = handle
            handles.append(handle)
        if handles:
            yield all_of(self.kernel, [h.join() for h in handles])
        if self.fail_before == target:
            report.failed_at = target
            raise MakeFailure(target)
        # phases (ii)-(iv) under a distributed serializing action; a crash
        # of an involved file server aborts the attempt, and we retry once
        # the world has settled.
        last_error: Optional[BaseException] = None
        for attempt in range(self.build_retries + 1):
            if attempt > 0:
                yield Timeout(self.retry_pause)
            try:
                yield from self._build_once(target, rule, report)
                return
            except MakeFailure:
                raise
            except Exception as error:  # transient: crashed server, timeout
                last_error = error
        report.failed_at = target
        raise MakeFailure(
            f"{target}: {self.build_retries + 1} attempts failed "
            f"(last: {last_error})"
        )

    def _build_once(self, target: str, rule, report: MakeReport):
        ser = ClusterSerializingAction(self.client, name=f"make:{target}")
        try:
            check = ser.constituent(f"stat:{target}")

            def stat_body():
                stamps = []
                for prereq in rule.prerequisites:
                    stamp = yield from self.client.invoke(
                        check, self.refs[prereq], "stat"
                    )
                    stamps.append(stamp)
                own = yield from self.client.invoke(
                    check, self.refs[target], "stat"
                )
                return any(s >= own for s in stamps)

            needs_rebuild = yield from ser.run_constituent(check, stat_body())
            if not needs_rebuild:
                report.up_to_date.append(target)
                return
            build = ser.constituent(f"build:{target}")

            def build_body():
                inputs = {}
                for prereq in rule.prerequisites:
                    content = yield from self.client.invoke(
                        build, self.refs[prereq], "read"
                    )
                    inputs[prereq] = content
                yield Timeout(self.compile_duration)  # the cc run
                stamp = self.kernel.now
                content = SimulatedCompiler(rule, inputs, stamp)
                yield from self.client.invoke(
                    build, self.refs[target], "write", content, stamp
                )

            yield from ser.run_constituent(build, build_body())
            report.rebuilt.append(target)
        finally:
            if not ser.control.status.terminated:
                yield from ser.close()

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
