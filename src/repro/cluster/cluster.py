"""The Cluster facade: wire up kernel, network, nodes, servers and clients."""

from __future__ import annotations

from typing import Dict, Optional

from repro.backend import ExecutionBackend, resolve_backend
from repro.cluster.client import ClusterClient
from repro.cluster.network import NetworkConfig
from repro.cluster.node import Node
from repro.cluster.server import ObjectServer
from repro.cluster.transport import RpcTransport
from repro.colours.colour import ColourAllocator
from repro.errors import ClusterError
from repro.obs import Observability, ObservabilityBridge
from repro.stdobjects import (
    Account,
    AppendLog,
    CommutingCounter,
    Counter,
    DiarySlot,
    EscrowAccount,
    FifoQueue,
    FileObject,
    Register,
)
from repro.util.rng import SplitRandom
from repro.util.uid import UidGenerator

#: object types servable out of the box (flat @operation types)
DEFAULT_CLASSES = {
    Counter.type_name: Counter,
    Register.type_name: Register,
    Account.type_name: Account,
    CommutingCounter.type_name: CommutingCounter,
    EscrowAccount.type_name: EscrowAccount,
    AppendLog.type_name: AppendLog,
    FifoQueue.type_name: FifoQueue,
    FileObject.type_name: FileObject,
    DiarySlot.type_name: DiarySlot,
}


class Cluster:
    """A simulated distributed system ready for experiments.

    Typical use::

        cluster = Cluster(seed=42)
        for name in ("alpha", "beta", "gamma"):
            cluster.add_node(name)
        client = cluster.client("alpha")

        def app():
            ref = yield from client.create("beta", "counter", value=0)
            action = client.top_level("t1")
            yield from client.invoke(action, ref, "increment", 5)
            yield from client.commit(action)

        cluster.spawn("alpha", app())
        cluster.run()
    """

    def __init__(self, seed: int = 0, config: Optional[NetworkConfig] = None,
                 classes: Optional[Dict[str, type]] = None,
                 lock_wait_timeout: float = 60.0,
                 rpc_timeout: float = 10.0, rpc_retries: int = 3,
                 edge_chasing: bool = True, probe_interval: float = 5.0,
                 observability: Optional[Observability] = None,
                 fast_paths: bool = True, commute: bool = True,
                 max_finished_spans: Optional[int] = None,
                 metrics_max_series: Optional[int] = None,
                 backend: Optional[ExecutionBackend] = None):
        #: the execution backend every layer schedules on — ``None`` (the
        #: default) is the deterministic simulation; ``"asyncio"`` or an
        #: :class:`~repro.backend.aio.AsyncioBackend` instance runs the
        #: same protocol code on a real event loop with a wall clock.
        #: ``self.kernel`` stays the scheduler handle the rest of the
        #: stack is written against, whichever backend provides it.
        self.backend = resolve_backend(backend)
        self.kernel = self.backend.kernel
        #: the cluster-wide observability hub, on simulated time.  Every
        #: layer (network, transport, servers, clients, deadlock chasers)
        #: reports into it; see ``metrics_dump()`` and ``obs.span_tree()``.
        #: The two ``max`` knobs bound its retention (finished spans,
        #: series per metric) for long soaks; ``None`` keeps the short-run
        #: defaults.
        self.obs = observability if observability is not None else (
            Observability(tick_source=lambda: self.kernel.now,
                          max_finished_spans=max_finished_spans,
                          metrics_max_series=metrics_max_series)
        )
        self.rng = SplitRandom(seed)
        self.network = self.backend.make_network(self.rng, config,
                                                 observability=self.obs)
        self.classes = dict(classes if classes is not None else DEFAULT_CLASSES)
        self.lock_wait_timeout = lock_wait_timeout
        self.rpc_timeout = rpc_timeout
        self.rpc_retries = rpc_retries
        self.edge_chasing = edge_chasing
        self.probe_interval = probe_interval
        #: commit-protocol fast paths (piggybacked decision, read-only
        #: votes, one-phase commit) for every client created here; False
        #: pins the classic presumed-abort protocol
        self.fast_paths = fast_paths
        #: commutativity-based coordination avoidance: colours whose every
        #: update belongs to a declared-commuting operation group commit in
        #: a single local-decision round instead of a prepare round; False
        #: routes every colour through classic/fast-path 2PC
        self.commute = commute
        self.nodes: Dict[str, Node] = {}
        self.transports: Dict[str, RpcTransport] = {}
        self.servers: Dict[str, ObjectServer] = {}
        self._action_uids = UidGenerator("caction")
        self.colours = ColourAllocator("ccolour")
        self._observers: list = []
        #: every client created via :meth:`client`, in creation order; the
        #: introspection layer reads their coordinator-side views (live
        #: actions, txn decision log, reaper backlog) to cross-check what
        #: servers report.
        self.clients: list = []

    # -- topology ------------------------------------------------------------

    def add_node(self, name: str) -> Node:
        """Create a node plus its transport and object server.

        The node joins the shared network and observability hub; names
        must be unique (:class:`ClusterError` otherwise).
        """
        if name in self.nodes:
            raise ClusterError(f"node {name} already exists")
        node = Node(name, self.kernel, self.network)
        transport = RpcTransport(
            node, default_timeout=self.rpc_timeout,
            default_retries=self.rpc_retries,
            # lock waits happen inside acknowledged rpcs: let the reply
            # phase outlive the server's lock-wait bound
            default_completion_timeout=self.lock_wait_timeout + 3 * self.rpc_timeout,
            observability=self.obs,
        )
        server = ObjectServer(node, transport, self.classes,
                              lock_wait_timeout=self.lock_wait_timeout,
                              edge_chasing=self.edge_chasing,
                              probe_interval=self.probe_interval,
                              observability=self.obs)
        for observer in self._observers:
            server.add_observer(observer)
        self.nodes[name] = node
        self.transports[name] = transport
        self.servers[name] = server
        return node

    def node(self, name: str) -> Node:
        """The :class:`Node` called ``name`` (KeyError if unknown)."""
        return self.nodes[name]

    def client(self, node_name: str, name: str = "") -> ClusterClient:
        """Create a :class:`ClusterClient` homed on ``node_name``.

        The client shares the cluster's uid/colour allocators and
        inherits its ``fast_paths`` setting and registered observers.
        """
        node = self.nodes[node_name]
        client = ClusterClient(
            node, self.transports[node_name],
            self._action_uids, self.colours, self.classes,
            name=name or f"client@{node_name}",
            observability=self.obs,
            fast_paths=self.fast_paths,
            commute=self.commute,
            backend=self.backend,
        )
        # the bridge gives every action a span (and per-colour outcome
        # counters) so the client's RPC spans have a parent to stitch to.
        client.add_observer(ObservabilityBridge(self.obs, node=node_name))
        for observer in self._observers:
            client.add_observer(observer)
        self.clients.append(client)
        return client

    def add_observer(self, observer) -> None:
        """Attach a trace/metrics observer cluster-wide.

        The observer (the contract of
        :meth:`repro.runtime.runtime.LocalRuntime.add_observer`) is wired
        into every existing and future server — so distributed lock grants
        fire ``on_lock_granted`` — and into every client created after the
        call (action begin/commit/abort events).
        """
        self._observers.append(observer)
        for server in self.servers.values():
            server.add_observer(observer)

    # -- observability ---------------------------------------------------------

    def attach_perf(self, interval: float = 5.0, max_points: int = 2048,
                    recorder_capacity: int = 4096, sample_rate: float = 1.0,
                    seed: int = 0, process_probes: bool = False,
                    backend: Optional[ExecutionBackend] = None):
        """Attach the performance observatory (``repro.obs.perf``).

        Starts a :class:`~repro.obs.perf.TimeSeriesSampler` on the sim
        clock with cluster-level gauges probed in (in-doubt objects, live
        action mirrors, prepared txns, pending RPCs across all servers)
        and a :class:`~repro.obs.perf.FlightRecorder` ring on the event
        bus.  Call before ``run()`` — ideally before ``add_node`` so no
        events predate the ring.  Returns ``(sampler, recorder)``; both
        also hang off ``cluster.obs`` and are included in ``obs.save()``.

        The sampler's timer rides the cluster's execution backend (real
        wall-clock intervals on asyncio, virtual ones on sim); pass
        ``backend=`` to clock it elsewhere.
        """
        from repro.obs.perf import FlightRecorder, TimeSeriesSampler

        sampler = TimeSeriesSampler(self.obs, interval=interval,
                                    max_points=max_points,
                                    process_probes=process_probes)
        sampler.add_probe("in_doubt_objects", lambda: sum(
            len(s.in_doubt_objects) for s in self.servers.values()))
        sampler.add_probe("action_mirrors", lambda: sum(
            len(s.mirrors) for s in self.servers.values()))
        sampler.add_probe("prepared_txns", lambda: sum(
            len(n.txns.prepared) for n in self.nodes.values()))
        sampler.add_probe("pending_rpcs", lambda: sum(
            t.pending_count() for t in self.transports.values()))
        sampler.attach((backend or self.backend).kernel)
        recorder = FlightRecorder(self.obs, capacity=recorder_capacity,
                                  sample_rate=sample_rate, seed=seed)
        return sampler, recorder

    def attach_postmortem(self, max_records: int = 10_000):
        """Attach the causal-attribution engine (``repro.obs.postmortem``).

        Subscribes a :class:`~repro.obs.postmortem.PostmortemEngine` to the
        cluster's event bus: every finished action gets a postmortem record
        (abort reason, blocker chain, txn history), aborts feed the
        ``abort_reason_total`` histogram, and — when a flight recorder is
        attached (see :meth:`attach_perf`) — guilty ring windows are frozen
        alongside the auditor's finding snapshots.  Call before ``run()``.
        Returns the engine; it also hangs off ``cluster.obs.postmortem``
        and its records are included in ``obs.save()`` dumps.
        """
        from repro.obs.postmortem import PostmortemEngine

        engine = PostmortemEngine(metrics=self.obs.metrics,
                                  flight=self.obs.flight,
                                  max_records=max_records)
        engine.attach(self.obs)
        return engine

    def attach_introspection(self, interval: float = 10.0,
                             probe_timeout: float = 3.0,
                             queue_depth_threshold: int = 8,
                             in_doubt_age_threshold: float = 50.0,
                             max_snapshots: int = 32):
        """Attach the live-introspection layer (``repro.obs.introspect``).

        Wires a :class:`~repro.obs.introspect.ClusterInspector` to this
        cluster: it fans ``status_query`` probes out to every server,
        stitches the answers into one cluster snapshot, cross-checks them
        against the coordinator-side view (drift detection) and derives a
        per-server health verdict (``cluster_health`` gauge).  ``interval``
        > 0 starts a periodic probe on the sim clock (first probe fires
        immediately); pass ``interval=0`` for manual probing via
        :meth:`~repro.obs.introspect.ClusterInspector.probe_once`.  Returns
        the inspector; it also hangs off ``cluster.obs.inspector`` and its
        snapshots are included in ``obs.save()`` dumps.
        """
        from repro.obs.introspect import ClusterInspector

        inspector = ClusterInspector(
            self, probe_timeout=probe_timeout,
            queue_depth_threshold=queue_depth_threshold,
            in_doubt_age_threshold=in_doubt_age_threshold,
            max_snapshots=max_snapshots)
        if interval and interval > 0:
            inspector.attach(interval=interval)
        return inspector

    def attach_slo(self, objectives=None, latency_target: float = 25.0,
                   abort_budget: float = 0.25, max_breaches: int = 256):
        """Attach the SLO engine (``repro.obs.slo``) — layer 6.

        Evaluates declarative objectives (commit-latency windowed mean,
        abort-rate ceiling, auditor-finding/drift zero-tolerance, minimum
        cluster health) once per sampler point with multi-window burn-rate
        alerting; breaches emit ``slo.breach`` bus events, bump
        ``slo_breach_total{objective}`` and freeze the flight-recorder
        ring.  Requires :meth:`attach_perf` first — the sampler is the
        engine's clock (:class:`ClusterError` otherwise).  Attach *after*
        :meth:`attach_introspection` so the stock set includes the
        cluster-health objective.  Pass ``objectives`` to replace the
        stock set from :func:`repro.obs.slo.default_objectives`.  Returns
        the engine; it
        also hangs off ``cluster.obs.slo`` and its ledger is included in
        ``obs.save()`` dumps.
        """
        from repro.obs.slo import SLOEngine, default_objectives

        if self.obs.sampler is None:
            raise ClusterError(
                "attach_slo() needs a sampler: call attach_perf() first")
        if objectives is None:
            objectives = default_objectives(
                latency_target=latency_target, abort_budget=abort_budget,
                include_health=self.obs.inspector is not None)
        engine = SLOEngine(self.obs, objectives=objectives,
                           max_breaches=max_breaches)
        engine.attach(self.obs.sampler)
        return engine

    def metrics_dump(self) -> Dict:
        """One JSON-able snapshot of every metric, kernel and network stat."""
        stats = self.kernel.stats
        for key, value in stats.items():
            self.obs.metrics.gauge(f"kernel_{key}").set(value)
        for key, value in self.network.stats().items():
            self.obs.metrics.gauge(f"network_{key}_total").set(value)
        self.obs.metrics.gauge("backend_wall_clock").set(
            1 if self.backend.wall_clock else 0)
        return self.obs.dump()

    def close(self) -> None:
        """Release the execution backend's resources (asyncio event loop).

        A no-op on the sim backend; call it — or use the backend as a
        context manager — whenever the cluster runs on asyncio, which
        owns real file descriptors.
        """
        self.backend.close()

    # -- execution -------------------------------------------------------------

    def spawn(self, node_name: str, body, name: str = ""):
        """Run an application generator as a process on a node."""
        return self.nodes[node_name].spawn(body, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Drive the event loop (to ``until``, or until idle); returns now."""
        return self.kernel.run(until=until)

    def run_process(self, node_name: str, body, name: str = "",
                    limit: float = 1e9):
        """Spawn and run to completion; returns the process result."""
        handle = self.spawn(node_name, body, name=name)
        self.kernel.run_until_settled(handle.join(), limit=limit)
        return handle.result

    # -- fault injection ----------------------------------------------------------

    def crash(self, node_name: str) -> None:
        """Fail-silent crash now: volatile state lost, processes killed."""
        node = self.nodes[node_name]
        if node.alive:
            # fail-silence means the node itself cannot announce its death;
            # the injector can, so postmortems know a timeout hit a corpse
            self.obs.emit("node.crash", node=node_name)
        node.crash()

    def restart(self, node_name: str) -> None:
        """Restart a crashed node; recovery replays its WAL."""
        self.nodes[node_name].restart()

    def crash_at(self, node_name: str, when: float) -> None:
        """Schedule :meth:`crash` at absolute simulated time ``when``."""
        self.kernel.schedule(max(0.0, when - self.kernel.now),
                             lambda: self.crash(node_name))

    def restart_at(self, node_name: str, when: float) -> None:
        """Schedule :meth:`restart` at absolute simulated time ``when``."""
        self.kernel.schedule(max(0.0, when - self.kernel.now),
                             self.nodes[node_name].restart)
