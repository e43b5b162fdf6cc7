"""The seven workloads, the closed-loop load generator and the correctness gate.

Load model (every workload): one process, one thread; topology ``home`` +
``s0,s1,s2``; four ``ClusterClient`` s on ``home`` (never crashed), each a
closed loop with zero think time working through its share of a *fixed
number of operations*.  An operation is one atomic action; if the action
aborts (lock refusal, crashed participant, lost messages) the client backs
off 1-5 time units and retries the same operation, so every operation
eventually commits and the abort shows as ``attempts_per_commit`` > 1.
Objects are created round-robin over the servers through the real
``client.create`` RPC.  Client ``i`` draws from
``random.Random(seed * 1000 + i)``, the cluster from ``seed``; the program
sees only the generated inputs.  Between operations the loops also time the
host (``Reference``), so that times can be reported at one speed.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.backend.aio import AsyncioBackend
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FaultSchedule
from repro.cluster.network import NetworkConfig
from repro.errors import ReproError
from repro.objects.state import ObjectState
from repro.sim.kernel import Timeout

HOME = "home"
SERVERS = ("s0", "s1", "s2")
CLIENTS = 4
#: tries before an operation is given up and counted as failed
MAX_TRIES = 50
#: wall seconds per time unit on the asyncio backend (``realtime_2pc``)
TIME_SCALE = 0.002
#: CPU seconds one reference slice takes on the box the baseline was taken
#: on (its median over 140 runs was 1.08 ms): times are reported at this speed
REFERENCE_SLICE_S = 0.00105
#: process CPU between two slices: the reference is about 4 % of a run
REFERENCE_EVERY_S = 0.025


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its shape, its size and why it exists."""

    name: str
    why: str
    #: operations at ``--seconds 10``, the size BENCHMARK.json runs: the
    #: measured phase then lasts 6-14 s on the seed code on the 2-core box
    operations_at_10s: int
    objects: int = 64
    type_name: str = "counter"
    update: str = "increment"
    #: share of operations that issue two ``get`` s instead of two updates
    read_share: float = 0.0
    #: fresh colours per action; 0 = a plain top-level action
    colours: int = 0
    lossy: bool = False
    realtime: bool = False

    def operations(self, seconds: float) -> int:
        """The fixed operation count of a run: proportional to ``--seconds``.

        A count, not a deadline: it keeps the sim's counts exact per seed
        and the WAL as deep on both sides of a comparison (per-commit cost
        grows with depth, see ``harness.sustain_ratio``).
        """
        per_client = max(1, round(self.operations_at_10s * seconds / 10.0
                                  / CLIENTS))
        return per_client * CLIENTS


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "steady_2pc",
        "low-contention write/write 2PC over 64 counters: server "
        "prepare/decide, WAL, shadow store and transport do the work, lock "
        "waits are ~0; the headline workload",
        operations_at_10s=4000),
    Workload(
        "read_mostly",
        "steady_2pc with 80% read-only actions: the same lock and commit "
        "layers used through shared locks and read-only votes, so a "
        "write-path gain that taxes readers shows",
        operations_at_10s=4000, read_share=0.8),
    Workload(
        "commute_hot",
        "4 hot commuting counters: the commute path, one decision-carrying "
        "round and merge on committed state; the objects are hot yet no "
        "request ever waits for a lock",
        operations_at_10s=3000, objects=4, type_name="commuting_counter",
        update="add"),
    Workload(
        "contended_locks",
        "commute_hot with plain counters: same shape, opposite layer; most "
        "lock requests queue, and waits-for edges and edge-chaser probes "
        "double the messages; must show nothing on commute_hot",
        operations_at_10s=2000, objects=4),
    Workload(
        "multicolour",
        "3 fresh colours per action, each writing on s1 and s2: the paper's "
        "per-colour commit routing with batched prepares; client protocol "
        "logic dominates",
        operations_at_10s=1000, colours=3),
    Workload(
        "lossy_crash",
        "steady_2pc under 5% drop, 2% duplication and crash/restart of s1 "
        "and s2: retransmission, dedupe, recovery and reapers; the only "
        "workload with aborts and a real unit-latency tail",
        operations_at_10s=2000, lossy=True),
    Workload(
        "realtime_2pc",
        "steady_2pc on the asyncio backend at 2 ms per unit: the only "
        "workload whose wall latency is user-facing; delay-bound, so CPU "
        "savings show as latency nearing the injected delay",
        operations_at_10s=1000, realtime=True),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass
class Deployment:
    """A cluster set up for one workload, ready for the measured phase."""

    workload: Workload
    cluster: Cluster
    clients: List[Any]
    refs: List[Any]
    setup_s: float

    def refs_on(self, node: str) -> List[Any]:
        """The objects homed on ``node``, in creation order."""
        return [ref for ref in self.refs if ref.node == node]


def deploy(workload: Workload, seed: int) -> Deployment:
    """``Cluster(...)`` + ``add_node`` x4 + every ``client.create`` (timed)."""
    started = time.perf_counter()
    options: Dict[str, Any] = {}
    if workload.lossy:
        options.update(
            config=NetworkConfig(drop_probability=0.05,
                                 duplicate_probability=0.02),
            rpc_retries=10)
    if workload.realtime:
        options.update(backend=AsyncioBackend(time_scale=TIME_SCALE))
    cluster = Cluster(seed=seed, **options)
    for name in (HOME,) + SERVERS:
        cluster.add_node(name)
    clients = [cluster.client(HOME, name=f"c{i}") for i in range(CLIENTS)]
    refs: List[Any] = []

    def create_all() -> Iterator[Any]:
        for index in range(workload.objects):
            ref = yield from clients[0].create(
                SERVERS[index % len(SERVERS)], workload.type_name, value=0)
            refs.append(ref)

    cluster.run_process(HOME, create_all())
    return Deployment(workload, cluster, clients, refs,
                      time.perf_counter() - started)


class Reference:
    """How fast the host ran *during this run*: fixed work, in ~1 ms slices.

    The box speeds up and slows down by up to a quarter, in steps that last
    from tens of seconds to minutes (an idle loop of plain Python shows it),
    so a time taken once says as much about the minute as about the program.  The client
    loops therefore do one slice of fixed, program-independent work -- half
    dictionary and allocation churn, half a reverse scan of a long list --
    after every ``REFERENCE_EVERY_S`` of CPU; ``scale`` turns a CPU-bound
    time of this run into what it takes at ``REFERENCE_SLICE_S`` a slice
    (``recent_scale``: the same over the last five slices, for one latency
    sample; ``Measured.at_reference`` applies either).  The slices' own time
    is taken out of every reading.
    """

    def __init__(self) -> None:
        self._records = [(f"kind{i % 7}", i, {"txn": i}) for i in range(13500)]
        self.slices = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._recent: Deque[float] = deque(maxlen=5)
        self._due = time.process_time() + REFERENCE_EVERY_S

    def tick(self) -> None:
        """Do one slice if ``REFERENCE_EVERY_S`` of CPU went by since the last."""
        cpu = time.process_time()
        if cpu < self._due:
            return
        wall = time.perf_counter()
        counts: Dict[str, int] = {}
        for i in range(1500):
            key = f"k{i & 255}"
            counts[key] = counts.get(key, 0) + len([i, key, {"a": i}])
        for kind, _number, _payload in reversed(self._records):
            if kind == "none":
                counts[kind] = 0
        done = time.process_time()
        self.slices += 1
        self.cpu_s += done - cpu
        self.wall_s += time.perf_counter() - wall
        self._recent.append(done - cpu)
        self._due = done + REFERENCE_EVERY_S

    @property
    def scale(self) -> float:
        """Reference speed over this run's speed (1.0 before any slice)."""
        if not self.slices:
            return 1.0
        return REFERENCE_SLICE_S * self.slices / self.cpu_s

    @property
    def recent_scale(self) -> float:
        """``scale`` over the last five slices (the last ~0.13 s of CPU)."""
        if not self._recent:
            return 1.0
        return REFERENCE_SLICE_S * len(self._recent) / sum(self._recent)


@dataclass
class LoopStats:
    """What the client loops record; shared by the four loops of a run."""

    operations: int
    attempts: int = 0
    committed: int = 0
    failed: int = 0
    #: updates applied by committed actions (the conservation target)
    writes: int = 0
    #: per committed action, as measured, and ``Reference.recent_scale``
    #: when it committed
    commit_wall_s: List[float] = field(default_factory=list)
    commit_units: List[float] = field(default_factory=list)
    commit_scale: List[float] = field(default_factory=list)
    #: ``process_time()``, less the reference slices', when half of the
    #: operations had committed
    half_cpu: Optional[float] = None
    aborts: Dict[str, int] = field(default_factory=dict)


#: one step of an operation: (object, method, has an argument, colour index)
Step = Tuple[Any, str, bool, int]


def _canonical(ref: Any) -> Tuple[str, Any]:
    return (ref.node, ref.uid)


def plan_operation(workload: Workload, rng: random.Random, refs: List[Any],
                   s1_refs: List[Any], s2_refs: List[Any]) -> List[Step]:
    """Draw one operation: the invocations of one action, in canonical
    object order (so lock waits are contention, never deadlock)."""
    if workload.colours:
        # colour k updates one object on s1 and one on s2
        on_s1 = rng.sample(s1_refs, workload.colours)
        on_s2 = rng.sample(s2_refs, workload.colours)
        steps = [(ref, workload.update, True, k)
                 for k in range(workload.colours)
                 for ref in (on_s1[k], on_s2[k])]
        return sorted(steps, key=lambda step: _canonical(step[0]))
    picks = sorted(rng.sample(refs, 2), key=_canonical)
    if workload.read_share and rng.random() < workload.read_share:
        return [(ref, "get", False, -1) for ref in picks]
    return [(ref, workload.update, True, -1) for ref in picks]


def client_loop(deployment: Deployment, index: int, seed: int,
                operations: int, stats: LoopStats,
                reference: Reference) -> Iterator[Any]:
    """One closed-loop client: ``operations`` operations, zero think time."""
    workload = deployment.workload
    client = deployment.clients[index]
    kernel = deployment.cluster.kernel
    refs = deployment.refs
    s1_refs, s2_refs = deployment.refs_on("s1"), deployment.refs_on("s2")
    rng = random.Random(seed * 1000 + index)
    half = stats.operations // 2
    # sim runs everything in turn, so a slice another loop does while this
    # commit is in flight is inside its wall time and is taken out; on
    # asyncio the commit mostly waits for timers meanwhile
    serial = not deployment.cluster.backend.wall_clock
    for number in range(operations):
        steps = plan_operation(workload, rng, refs, s1_refs, s2_refs)
        for _try in range(MAX_TRIES):
            stats.attempts += 1
            label = f"c{index}.{number}"
            if workload.colours:
                colours = [client.fresh_colour()
                           for _ in range(workload.colours)]
                action = client.coloured(colours, name=label)
            else:
                colours = []
                action = client.top_level(label)
            try:
                for ref, method, has_arg, colour in steps:
                    yield from client.invoke(
                        action, ref, method, *((1,) if has_arg else ()),
                        colour=colours[colour] if colour >= 0 else None)
                wall_before = time.perf_counter()
                sliced_before = reference.wall_s
                units_before = kernel.now
                yield from client.commit(action)
                wall = time.perf_counter() - wall_before
                if serial:
                    wall -= reference.wall_s - sliced_before
                stats.commit_wall_s.append(wall)
                stats.commit_units.append(kernel.now - units_before)
                stats.commit_scale.append(reference.recent_scale)
            except ReproError as error:
                kind = type(error).__name__
                stats.aborts[kind] = stats.aborts.get(kind, 0) + 1
                if not action.status.terminated:
                    yield from client.abort(action)
                yield Timeout(1.0 + 4.0 * rng.random())
                continue
            stats.committed += 1
            stats.writes += sum(1 for step in steps if step[2])
            if stats.committed == half:
                stats.half_cpu = time.process_time() - reference.cpu_s
            reference.tick()
            break
        else:
            stats.failed += 1


@dataclass
class Measured:
    """Raw readings of one measured phase; times exclude the reference slices."""

    stats: LoopStats
    wall_s: float
    cpu_s: float
    started: float
    messages: int
    dropped: int
    duplicated: int
    callbacks: int
    #: CPU ms/commit of the second half over the first half of the run
    sustain_ratio: float
    #: reference speed over this run's speed (``Reference.scale``): what
    #: turns a CPU time of this run into one at reference speed
    cpu_scale: float
    reference_slices: int
    #: a time unit is wall time (the asyncio backend)
    wall_clock: bool

    def at_reference(self, wall_s: float, scale: float) -> float:
        """A wall time of this run at reference speed: ``scale`` applied to
        the phase's busy share of it.  On sim the wall is all CPU; on the
        asyncio backend the loop sleeps until timers are due about half of
        the time, and that half does not depend on the host's speed."""
        busy = min(1.0, self.cpu_s / self.wall_s)
        return wall_s * (1.0 - busy + busy * scale)


def measure(deployment: Deployment, seed: int, operations: int) -> Measured:
    """The measured phase: first spawn -> ``cluster.run()`` returns."""
    cluster = deployment.cluster
    network = cluster.network
    stats = LoopStats(operations=operations)
    if deployment.workload.lossy:
        # Seed-code bug, found by this gate on 6 of 80 seeds: a participant
        # that crashes while prepared commits the transaction once through
        # recovery's decision query and again when the coordinator's
        # ``txn_commit`` is redelivered; the second commit reinstalls the old
        # state over an update made in between (conservation is off by one).
        # A run may not fail, so a crash that falls on a node with a prepared
        # transaction is skipped (about 1 in 8 is).
        crash = cluster.crash

        def crash_unless_prepared(name: str) -> None:
            if not cluster.servers[name].prepared:
                crash(name)

        cluster.crash = crash_unless_prepared
        # ~6 units per operation and client: the horizon covers the run
        FaultSchedule(cluster, seed=seed, mean_uptime=400.0,
                      mean_downtime=30.0).arm(
                          ["s1", "s2"], horizon=6.0 * operations)
    gc.collect()
    messages = network.sent_count
    dropped = network.dropped_count
    duplicated = network.duplicated_count
    callbacks = cluster.kernel.stats["callbacks_run"]
    reference = Reference()
    cpu_started = time.process_time()
    started = time.perf_counter()
    loops = [
        cluster.spawn(HOME, client_loop(deployment, index, seed,
                                        operations // CLIENTS, stats,
                                        reference),
                      name=f"loop{index}")
        for index in range(CLIENTS)
    ]
    cluster.run()
    wall = time.perf_counter() - started - reference.wall_s
    cpu = time.process_time() - cpu_started - reference.cpu_s
    for loop in loops:
        if loop.alive or loop.error is not None:
            raise CorrectnessError(f"client loop did not finish: {loop!r} "
                                   f"{loop.error!r}")
    sustain = 1.0
    half = stats.operations // 2
    if stats.half_cpu is not None and stats.committed > half:
        first = (stats.half_cpu - cpu_started) / half
        second = (cpu_started + cpu - stats.half_cpu) / (stats.committed - half)
        sustain = second / first
    return Measured(
        stats=stats, wall_s=wall, cpu_s=cpu, started=started,
        messages=network.sent_count - messages,
        dropped=network.dropped_count - dropped,
        duplicated=network.duplicated_count - duplicated,
        callbacks=cluster.kernel.stats["callbacks_run"] - callbacks,
        sustain_ratio=sustain, cpu_scale=reference.scale,
        reference_slices=reference.slices,
        wall_clock=cluster.backend.wall_clock)


class CorrectnessError(Exception):
    """The run broke an invariant: no metrics may be reported for it."""


def stored_value(cluster: Cluster, ref: Any) -> int:
    """The committed value of a counter, from its node's stable store."""
    stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
    return ObjectState.from_bytes(stored.payload).unpack_int()


def check(deployment: Deployment, measured: Measured) -> None:
    """The correctness gate; raises :class:`CorrectnessError` on violation."""
    cluster = deployment.cluster
    stats = measured.stats
    if deployment.workload.lossy:
        # let reapers and in-doubt resolution finish before looking
        for name in SERVERS:
            if not cluster.nodes[name].alive:
                cluster.restart(name)
        cluster.run(until=cluster.kernel.now + 2000.0)
    problems: List[str] = []
    if stats.committed + stats.failed != stats.operations:
        problems.append(f"committed {stats.committed} + failed {stats.failed}"
                        f" != operations {stats.operations}")
    if len(stats.commit_units) != stats.committed:
        problems.append("latency samples != committed actions")
    total = sum(stored_value(cluster, ref) for ref in deployment.refs)
    if total != stats.writes:
        problems.append(f"conservation: stable stores hold {total}, "
                        f"committed actions wrote {stats.writes}")
    findings = cluster.obs.auditor.report()
    if findings:
        problems.append(f"auditor: {len(findings)} finding(s), first "
                        f"{findings[0]!r}")
    for name, node in cluster.nodes.items():
        if not node.alive:
            problems.append(f"node {name} is down at the end")
    for name, transport in cluster.transports.items():
        if transport.pending_count():
            problems.append(f"{name}: {transport.pending_count()} rpc(s) "
                            f"still pending")
    for name, server in cluster.servers.items():
        if server.prepared or server.in_doubt_objects:
            problems.append(f"{name}: prepared/in-doubt state left behind")
    for client in deployment.clients:
        if client.reaper_backlog:
            problems.append(f"{client.name}: reapers still chasing "
                            f"{dict(client.reaper_backlog)}")
    if problems:
        raise CorrectnessError("; ".join(problems))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
