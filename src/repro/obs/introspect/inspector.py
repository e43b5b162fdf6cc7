"""Live cluster introspection: health probes, snapshots, drift detection.

A :class:`ClusterInspector` looks at a running cluster from the outside,
through the same at-most-once RPC plane the workload uses: it fans a
``status_query`` out to every server (one batched probe per node, from an
observer vantage on the first live node), stitches the per-server answers
into one :data:`ClusterSnapshot`, and derives a health verdict per server
and for the cluster.

Two things make it more than a pretty printer:

* **Drift detection** — every snapshot is cross-checked against the
  coordinator-side view kept by the cluster's clients (live actions with
  their first-contact epochs, the transaction decision log, the reaper
  backlog).  A server whose epoch moved under a live action, or that still
  holds a transaction prepared long after its coordinator decided it, is
  reported as a structured :class:`Drift` record.  Drift is an expected
  symptom of injected faults (partitions, restarts), not a protocol
  violation, so it never joins the invariant auditor's findings: chaos
  suites hard-fail on those.
* **Non-disruption** — ``status_query`` answers synchronously off live
  structures without taking locks, and probes are plain RPCs: observing a
  cluster mid-protocol never blocks, aborts or reorders the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.cluster.txn import COORDINATOR
from repro.sim.kernel import settle_all

#: a server's reported epoch differs from the epoch a live action recorded
#: at first contact — the server restarted underneath the action, whose
#: locks and mirrors there died with the old epoch.
EPOCH_DRIFT = "epoch-drift"
#: a server still carries a transaction as prepared/in-doubt although its
#: coordinator decided it longer ago than the decision-propagation grace —
#: phase two is not reaching the participant (partition, lost fanout).
FINISHED_IN_FLIGHT = "finished-txn-in-flight"

#: a server with this many queued lock requests is degraded
QUEUE_DEPTH_THRESHOLD = 8
#: a server holding a transaction in doubt for longer than this is stalled
IN_DOUBT_AGE_THRESHOLD = 50.0
#: snapshots an inspector keeps (the newest)
MAX_SNAPSHOTS = 32

#: health verdicts, in increasing order of badness.
HEALTHY, DEGRADED, STALLED = "healthy", "degraded", "stalled"
_RANK = {HEALTHY: 0, DEGRADED: 1, STALLED: 2}


@dataclass(frozen=True)
class Drift:
    """One observed disagreement between a server and the coordinator view."""

    kind: str
    node: str
    message: str
    tick: float = 0.0
    txn: str = ""
    action: str = ""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "node": self.node,
                               "message": self.message, "tick": self.tick}
        if self.txn:
            out["txn"] = self.txn
        if self.action:
            out["action"] = self.action
        return out

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.kind, self.node, self.txn, self.action)


@dataclass
class ServerHealth:
    """Verdict plus the causes that produced it, for one server."""

    verdict: str = HEALTHY
    causes: List[str] = field(default_factory=list)

    def worsen(self, verdict: str, cause: str) -> None:
        self.causes.append(cause)
        if _RANK[verdict] > _RANK[self.verdict]:
            self.verdict = verdict

    def to_dict(self) -> Dict[str, Any]:
        return {"verdict": self.verdict, "causes": list(self.causes)}


class ClusterInspector:
    """Probes a live cluster and stitches the answers into snapshots.

    Turn on with ``cluster.observe(introspection=True)``: ``interval`` > 0
    probes periodically on the cluster's clock (the first probe fires
    immediately), ``interval=0`` leaves probing to :meth:`probe_once`.
    Snapshots, drift records and probe counters are all JSON-able
    (:meth:`dump`) and ride along in ``Observability.save`` dumps under
    this layer's ``extra`` section — what ``python -m repro.obs top``
    consumes.
    """

    section = "introspection"
    requires = ()

    def __init__(self, interval: float = 10.0, probe_timeout: float = 3.0):
        self.interval = interval
        self.probe_timeout = probe_timeout
        self.snapshots: List[Dict[str, Any]] = []
        self.drift: List[Drift] = []
        self._seen_drift: Set[Tuple[str, str, str, str]] = set()
        self.probes = 0
        self._probing = False

    # -- probing -------------------------------------------------------------

    def bind(self, hub, cluster=None) -> None:
        """Watch ``cluster``, reporting into ``hub``; start the periodic
        probe (daemon; fires at once) when ``interval`` > 0.

        The timer only *starts* probes: an overlap guard skips a tick while
        the previous probe's RPCs are still in flight, so a slow/partitioned
        cluster is never hammered with stacked probes.
        """
        if cluster is None:
            raise ValueError("a ClusterInspector needs a cluster to probe")
        self.cluster = cluster
        self.obs = hub
        #: how long a decided transaction may legitimately linger prepared
        #: at a participant: the probe can interleave between the
        #: coordinator's decision log write and phase-two delivery, so
        #: anything younger than two RPC rounds is not drift yet.
        self.decision_grace = 2.0 * cluster.rpc_timeout
        if self.interval > 0:
            cluster.kernel.every(self.interval, self._fire, immediate=True)

    def _fire(self) -> None:
        if self._probing:
            return
        self._probing = True

        def body():
            try:
                yield from self.probe()
            finally:
                self._probing = False

        self.cluster.kernel.spawn(body(), name="introspect-probe")

    def probe(self) -> Generator[Any, Any, Dict[str, Any]]:
        """Generator: one full probe round; returns the stitched snapshot.

        Every configured node is asked concurrently (a one-element
        ``rpc_batch`` from the first live node's transport, short timeout,
        one retry); nodes that do not answer appear as ``None`` statuses
        and are verdicted ``stalled: unreachable``.
        """
        kernel = self.cluster.kernel
        targets = sorted(self.cluster.nodes)
        statuses: Dict[str, Optional[Dict[str, Any]]] = {
            name: None for name in targets}
        home = next((name for name in targets
                     if self.cluster.nodes[name].alive), None)
        if home is not None:
            transport = self.cluster.transports[home]

            def ask(target: str):
                outcomes = yield from transport.call_many(
                    target, [("status_query", {})],
                    timeout=self.probe_timeout, retries=1,
                    completion_timeout=4.0 * self.probe_timeout)
                ok, value = outcomes[0]
                if not ok:
                    raise value
                return value["status"]

            handles = [kernel.spawn(ask(t), name=f"introspect-probe@{t}")
                       for t in targets]
            outcomes = yield settle_all(kernel,
                                        [h.join() for h in handles])
            for target, (ok, value) in zip(targets, outcomes):
                statuses[target] = value if ok else None
        return self._assemble(statuses)

    def probe_once(self, limit: float = 500.0) -> Dict[str, Any]:
        """Run one probe round to completion on an otherwise idle kernel."""
        handle = self.cluster.kernel.spawn(self.probe(),
                                           name="introspect-once")
        self.cluster.kernel.run_until_settled(handle.join(), limit=limit)
        return handle.result

    # -- stitching -----------------------------------------------------------

    def _coordinator_view(self) -> Dict[str, Any]:
        """Merge every client's coordinator-side view into one image."""
        live: Dict[str, Dict[str, int]] = {}
        txn_states: Dict[str, Dict[str, Any]] = {}
        backlog: Dict[str, int] = {}
        for client in getattr(self.cluster, "clients", []):
            for action in client.live_actions.values():
                live[str(action.uid)] = {
                    node: epoch
                    for node, epoch in action.server_epochs.items()}
            for node, count in client.reaper_backlog.items():
                backlog[node] = backlog.get(node, 0) + count
        # what each coordinator believes about the transactions it drove:
        # the coordinator role of every node's transaction table
        for node in self.cluster.nodes.values():
            for entry in node.txns.entries(COORDINATOR):
                txn_states[entry.txn_id] = {"state": entry.state.value,
                                            "tick": entry.tick}
        return {"live_actions": live, "txn_states": txn_states,
                "reaper_backlog": backlog}

    def _note_drift(self, drift: Drift) -> bool:
        """Record ``drift`` once; counts + bus event only on first sight."""
        if drift.key in self._seen_drift:
            return False
        self._seen_drift.add(drift.key)
        self.drift.append(drift)
        self.obs.count("introspect_drift_total", kind=drift.kind)
        self.obs.emit("introspect.drift", drift_kind=drift.kind,
                      node=drift.node, txn=drift.txn, action=drift.action)
        return True

    def _check_drift(self, statuses: Dict[str, Optional[Dict[str, Any]]],
                     view: Dict[str, Any], now: float) -> List[Drift]:
        fresh: List[Drift] = []
        # epoch drift: a reachable server's epoch moved under a live action
        for action_uid, epochs in view["live_actions"].items():
            for node, recorded in epochs.items():
                status = statuses.get(node)
                if status is None or status["epoch"] == recorded:
                    continue
                drift = Drift(
                    kind=EPOCH_DRIFT, node=node, tick=now,
                    action=action_uid,
                    message=(f"server {node} reports epoch "
                             f"{status['epoch']} but live action "
                             f"{action_uid} first met it at epoch "
                             f"{recorded}"))
                if self._note_drift(drift):
                    fresh.append(drift)
        # finished-txn-in-flight: a participant still carries a txn the
        # coordinator decided more than decision_grace ago
        for node, status in statuses.items():
            if status is None:
                continue
            for entry in status["in_flight"]:
                txn_id = entry["txn"]
                noted = view["txn_states"].get(txn_id)
                if noted is None or noted["state"] == "delegated":
                    continue
                age = now - noted["tick"]
                if age <= self.decision_grace:
                    continue
                drift = Drift(
                    kind=FINISHED_IN_FLIGHT, node=node, tick=now,
                    txn=txn_id,
                    message=(f"server {node} holds {txn_id} "
                             f"{entry['phase']} although its coordinator "
                             f"moved it to {noted['state']} {age:g} ticks "
                             f"ago"))
                if self._note_drift(drift):
                    fresh.append(drift)
        return fresh

    def _health(self, status: Optional[Dict[str, Any]],
                now: float) -> ServerHealth:
        health = ServerHealth()
        if status is None:
            health.worsen(STALLED, "unreachable")
            return health
        queued = status["locks"]["queued"]
        if queued >= QUEUE_DEPTH_THRESHOLD:
            health.worsen(DEGRADED, f"lock-queue-depth:{queued}")
        oldest_in_doubt = max(
            (entry["age"] for entry in status["in_flight"]
             if entry["phase"] == "in-doubt"), default=0.0)
        if oldest_in_doubt > IN_DOUBT_AGE_THRESHOLD:
            health.worsen(STALLED, f"in-doubt-age:{oldest_in_doubt:g}")
        return health

    def _assemble(self, statuses: Dict[str, Optional[Dict[str, Any]]]
                  ) -> Dict[str, Any]:
        now = self.cluster.kernel.now
        view = self._coordinator_view()
        fresh = self._check_drift(statuses, view, now)
        health: Dict[str, ServerHealth] = {}
        for name in statuses:
            health[name] = self._health(statuses[name], now)
            # drift against this node this round degrades it even when its
            # own numbers look clean: somebody's view of it is stale
            if any(d.node == name for d in fresh):
                health[name].worsen(DEGRADED, "drift")
        overall = HEALTHY
        for entry in health.values():
            if _RANK[entry.verdict] > _RANK[overall]:
                overall = entry.verdict
        waits_for: List[Dict[str, str]] = []
        for name in sorted(statuses):
            status = statuses[name]
            if status is None:
                continue
            for edge in status["locks"]["waits_for"]:
                waits_for.append(dict(edge, node=name))
        snapshot = {
            "tick": now,
            "overall": overall,
            "servers": statuses,
            "health": {name: health[name].to_dict() for name in health},
            "waits_for": waits_for,
            "drift": [d.to_dict() for d in fresh],
            "coordinator": {
                "clients": len(getattr(self.cluster, "clients", [])),
                "live_actions": len(view["live_actions"]),
                "txns_tracked": len(view["txn_states"]),
                "reaper_backlog": view["reaper_backlog"],
            },
        }
        for name, entry in health.items():
            self.obs.metrics.gauge("cluster_health", node=name).set(
                float(_RANK[entry.verdict]))
        self.obs.emit("introspect.probe", overall=overall,
                      reachable=sum(1 for s in statuses.values()
                                    if s is not None),
                      nodes=len(statuses), drift=len(fresh))
        self.probes += 1
        self.snapshots.append(snapshot)
        if len(self.snapshots) > MAX_SNAPSHOTS:
            del self.snapshots[:len(self.snapshots) - MAX_SNAPSHOTS]
        return snapshot

    # -- export --------------------------------------------------------------

    @property
    def last(self) -> Optional[Dict[str, Any]]:
        """The most recent snapshot (``None`` before the first probe)."""
        return self.snapshots[-1] if self.snapshots else None

    def dump(self) -> Dict[str, Any]:
        """JSON-able document: probe count, drift records, snapshot ring."""
        return {
            "probes": self.probes,
            "drift": [d.to_dict() for d in self.drift],
            "snapshots": [dict(s) for s in self.snapshots],
            "overall": self.last["overall"] if self.last else "unknown",
        }

    def rotate(self, start: float, end: float) -> Dict[str, Any]:
        """One segment's section: the snapshots and drift of ``(start,
        end]``.  Nothing is dropped — the ring is bounded, and the drift
        list must keep deduplicating across segments."""
        return dict(
            self.dump(),
            drift=[d.to_dict() for d in self.drift
                   if start < d.tick <= end],
            snapshots=[dict(s) for s in self.snapshots
                       if start < s["tick"] <= end])
