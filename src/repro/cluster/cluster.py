"""The Cluster facade: wire up kernel, network, nodes, servers and clients."""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.backend import AsyncioKernel
from repro.cluster.client import ClusterClient
from repro.cluster.network import Network, NetworkConfig
from repro.cluster.node import Node
from repro.cluster.server import ObjectServer
from repro.cluster.transport import RpcTransport
from repro.colours.colour import ColourAllocator
from repro.errors import ClusterError
from repro.obs import Observability
from repro.sim.kernel import Kernel
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


def _kernel_for(backend: Any) -> Kernel:
    """The kernel a ``Cluster(backend=...)`` argument names.

    ``None`` and ``"sim"`` build a :class:`Kernel`, ``"asyncio"`` and
    ``"aio"`` an :class:`AsyncioKernel`; a kernel instance passes through.
    """
    if isinstance(backend, Kernel):
        return backend
    if backend is None or backend == "sim":
        return Kernel()
    if backend in ("asyncio", "aio"):
        return AsyncioKernel()
    raise ClusterError(f"unknown backend {backend!r}; pick 'sim', 'asyncio' "
                       f"or a Kernel instance")


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
                 fast_paths: bool = True, commute: bool = True,
                 backend: Any = None):
        #: the kernel every layer schedules on — ``None`` (the default) is
        #: the deterministic simulation; ``"asyncio"`` or an
        #: :class:`~repro.backend.aio.AsyncioKernel` runs the same protocol
        #: code on a real event loop with a wall clock.  ``backend`` names
        #: the same object as ``kernel``.
        self.kernel = self.backend = _kernel_for(backend)
        #: the cluster-wide observability hub, on simulated time.  Every
        #: layer (network, transport, servers, clients, deadlock chasers)
        #: reports into it; see ``metrics_dump()``.  It audits and counts
        #: but keeps no event, finished span or per-colour series until
        #: ``observe(history=True)`` (which ``obs.span_tree()`` and
        #: ``obs.save()``'s ``spans``/``events`` read).
        self.obs = Observability(tick_source=lambda: self.kernel.now)
        self.rng = SplitRandom(seed)
        self.network = Network(self.kernel, self.rng, config)
        self.obs.metrics.collect(self.network.kind_counts)
        self.classes = dict(classes if classes is not None else DEFAULT_CLASSES)
        self.lock_wait_timeout = lock_wait_timeout
        self.rpc_timeout = rpc_timeout
        self.rpc_retries = rpc_retries
        self.edge_chasing = edge_chasing
        #: how often a queued lock wait is re-read at its server: a wake
        #: chases its blockers when they changed since its last chase (so
        #: the first chase is one interval after it queued), and the last
        #: wake is its ``lock_wait_timeout`` deadline
        self.probe_interval = probe_interval
        #: commit-protocol fast paths (piggybacked decision, a pure
        #: reader's early finish, one-phase commit) for every client
        #: created here; False pins the classic presumed-abort protocol
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
            node, self.obs, default_timeout=self.rpc_timeout,
            default_retries=self.rpc_retries,
            # lock waits happen inside acknowledged rpcs: let the reply
            # phase outlive the server's lock-wait bound
            default_completion_timeout=self.lock_wait_timeout + 3 * self.rpc_timeout,
        )
        server = ObjectServer(node, transport, self.classes, self.obs,
                              lock_wait_timeout=self.lock_wait_timeout,
                              edge_chasing=self.edge_chasing,
                              probe_interval=self.probe_interval)
        self.nodes[name] = node
        self.transports[name] = transport
        self.servers[name] = server
        return node

    def node(self, name: str) -> Node:
        """The :class:`Node` called ``name`` (KeyError if unknown)."""
        return self.nodes[name]

    def client(self, node_name: str, name: str = "") -> ClusterClient:
        """Create a :class:`ClusterClient` homed on ``node_name``.

        The client shares the cluster's uid/colour allocators and hub
        and inherits its ``fast_paths`` setting.
        """
        node = self.nodes[node_name]
        if not any(other.node is node for other in self.clients):
            # the orphan rule: a restarted home tells every other node
            node.add_recovery_hook(lambda: self.servers[
                node_name].announce_restart([
                    name for name in self.nodes if name != node_name]))
        client = ClusterClient(
            node, self.transports[node_name],
            self._action_uids, self.colours, self.classes, self.obs,
            name=name or f"client@{node_name}",
            fast_paths=self.fast_paths,
            commute=self.commute,
        )
        self.clients.append(client)
        return client

    # -- observability ---------------------------------------------------------

    def observe(self, **layers):
        """Turn observability layers on, by section name.

        Each keyword names a layer of :data:`repro.obs.layers.LAYERS`; its
        value is ``True`` for the layer's defaults or a mapping handed to
        the layer's constructor (where every tuning parameter lives)::

            cluster.observe(history=True, timeline={"interval": 5.0},
                            flight_recorder=True, postmortem=True,
                            introspection=True, slo=True)

        Layers a requested one ``requires`` come along with their defaults
        (``slo`` brings ``timeline``, which brings ``history``), so no order
        of keywords or of calls is wrong; asking again for a bound layer with ``True`` is a no-op,
        with options a ``RuntimeError``.  Call before ``run()`` — ideally
        before ``add_node``, so no event predates a recorder (``history``
        keeps what is reported after it is bound).  Returns
        ``cluster.obs.layers`` (section name -> bound layer), which
        ``cluster.obs.save()`` writes out section by section.
        """
        from repro.obs.layers import LAYERS

        unknown = sorted(set(layers) - set(LAYERS))
        if unknown:
            raise ClusterError(f"unknown observability layer(s) {unknown}; "
                               f"pick from {sorted(LAYERS)}")
        wanted = {name: options for name, options in layers.items()
                  if options}
        for name in reversed(list(LAYERS)):  # requirements come earlier
            if name in wanted:
                for needed in LAYERS[name].requires:
                    wanted.setdefault(needed, True)
        for name, cls in LAYERS.items():
            options = wanted.get(name)
            if options is None or (options is True
                                   and name in self.obs.layers):
                continue
            self.obs.bind(cls(**({} if options is True else options)),
                          cluster=self)
        return self.obs.layers

    def metrics_dump(self) -> Dict:
        """One JSON-able snapshot of every metric, kernel and network stat."""
        stats = self.kernel.stats
        for key, value in stats.items():
            self.obs.metrics.gauge(f"kernel_{key}").set(value)
        for key, value in self.network.stats().items():
            self.obs.metrics.gauge(f"network_{key}_total").set(value)
        self.obs.metrics.gauge("backend_wall_clock").set(
            1 if self.kernel.wall_clock else 0)
        return self.obs.dump()

    def close(self) -> None:
        """Release the kernel's resources (the asyncio event loop).

        A no-op on the sim kernel; call it — or use the kernel as a
        context manager — whenever the cluster runs on asyncio, which
        owns real file descriptors.
        """
        self.kernel.close()

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
