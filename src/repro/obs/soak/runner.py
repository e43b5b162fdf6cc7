"""The soak observatory: long-horizon seeded chaos runs, bounded memory.

A :class:`SoakRunner` drives one *arm* of a seeded chaos scenario for
hours of simulated time while the full observability stack (history,
sampler, flight recorder, live introspection, SLO engine) watches.  Memory stays
bounded **regardless of horizon** through segment rotation: every
``segment_every`` ticks the run's observability state is streamed out as
one ``repro-obs/1`` segment document by
:meth:`repro.obs.hub.Observability.rotate` — metric **deltas** plus every
bound layer's ``rotate(start, end)`` section (the history layer's finished
spans and event slice of the window, drained flight-recorder ring
and finding snapshots, the window's sampler points, introspection
snapshots and SLO ledger slice) — into a directory that ``python -m repro.obs report`` / ``audit`` / ``slo``
aggregate in segment order (``slo`` judges the points again, to the
same verdict).  An end-of-run summary
(``soak.json``) records per-segment SLO verdicts, the breach timeline and
the measured peak retention of every bounded structure.

Arms:

``clean``
    No fault injection; the acceptance bar is *zero* SLO breaches.
``faulty``
    A seeded mid-run network-degradation burst (delay surge + message
    drops over a fixed window) that must trip the commit-latency burn
    objective — and be attributed to the burst window by the ledger.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkConfig
from repro.obs import dump
from repro.obs.history import History
from repro.obs.perf import FlightRecorder, TimeSeriesSampler
from repro.obs.slo import SLOEngine, default_objectives
from repro.sim.kernel import Timeout

ARMS = ("clean", "faulty")

FORMAT = "repro-soak/1"
#: the end-of-run soak summary written next to the segments
SUMMARY_NAME = "soak.json"
#: series kept per metric: each action's fresh colour folds into the
#: metric's overflow series once this many exist
MAX_SERIES = 64
#: counters the workers increment, spread over the nodes
OBJECTS = 8
#: a worker's mean pause between two actions
OP_PAUSE = 10.0
#: drop probability the faulty arm's burst adds to the network's
BURST_DROP = 0.02
#: the flight recorder's ring and the sampler's point window
FLIGHT_CAPACITY = 1024
SAMPLER_MAX_POINTS = 1024


class SoakRunner:
    """One seeded soak arm: build, run, rotate, report."""

    def __init__(self, out_dir: Optional[str] = None, arm: str = "faulty",
                 seed: int = 21, horizon: float = 7200.0,
                 segment_every: float = 1800.0,
                 sample_interval: float = 20.0,
                 workers: int = 3, latency_target: float = 12.0,
                 abort_budget: float = 0.25,
                 surge: float = 8.0, burst_start: Optional[float] = None,
                 burst_duration: Optional[float] = None,
                 rotate: bool = True):
        if arm not in ARMS:
            raise ValueError(f"unknown arm {arm!r} (expected one of "
                             f"{', '.join(ARMS)})")
        if horizon <= 0 or segment_every <= 0 or sample_interval <= 0:
            raise ValueError("horizon, segment_every and sample_interval "
                             "must all be > 0")
        self.out_dir = out_dir
        self.arm = arm
        self.seed = seed
        self.horizon = horizon
        self.segment_every = segment_every
        self.sample_interval = sample_interval
        self.workers = workers
        self.latency_target = latency_target
        self.abort_budget = abort_budget
        self.surge = surge
        #: default burst window: [35%, 50%] of the horizon
        self.burst_start = (burst_start if burst_start is not None
                            else 0.35 * horizon)
        self.burst_duration = (burst_duration if burst_duration is not None
                               else 0.15 * horizon)
        self.rotate = rotate

        self.cluster: Optional[Cluster] = None
        self.outcomes = {"committed": 0, "aborted": 0}
        self.segment_files: List[str] = []
        self.segment_verdicts: List[Dict[str, Any]] = []
        #: measured maxima of every bounded in-memory structure
        self.peaks: Dict[str, int] = {
            "spans": 0, "audit_events": 0, "flight_ring": 0,
            "metric_series": 0, "sampler_points": 0, "breach_ledger": 0,
        }
        self._segment_index = 0
        self._segment_start = 0.0

    # -- build ----------------------------------------------------------------

    def _build(self) -> None:
        self.cluster = Cluster(seed=self.seed, config=NetworkConfig())
        cluster = self.cluster
        self.nodes = ("n0", "n1", "n2")
        for name in self.nodes:
            cluster.add_node(name)
        layers = cluster.observe(
            history={"max_series": MAX_SERIES},
            timeline={"interval": self.sample_interval,
                      "max_points": SAMPLER_MAX_POINTS},
            flight_recorder={"capacity": FLIGHT_CAPACITY,
                             "seed": self.seed},
            # generous probe timeout so a delay surge degrades health
            # verdicts instead of inventing unreachable servers
            introspection={"interval": self.sample_interval * 3,
                           "probe_timeout": self.sample_interval},
            slo={"objectives": default_objectives(
                latency_target=self.latency_target,
                abort_budget=self.abort_budget)})
        self.history = layers[History.section]
        self.sampler = layers[TimeSeriesSampler.section]
        self.recorder = layers[FlightRecorder.section]
        self.engine = layers[SLOEngine.section]
        self.sampler.add_point_listener(lambda _point: self._observe_peaks())

        self.refs: List[Any] = []

        def setup():
            client = cluster.client("n0", name="soak-setup")
            for index in range(OBJECTS):
                ref = yield from client.create(
                    self.nodes[index % len(self.nodes)], "counter", value=0)
                self.refs.append(ref)

        cluster.run_process("n0", setup())

        for worker_id in range(self.workers):
            cluster.spawn(self.nodes[worker_id % len(self.nodes)],
                          self._worker(worker_id),
                          name=f"soak-w{worker_id}")
        if self.arm == "faulty":
            self._arm_burst()
        if self.rotate and self.out_dir:
            cluster.kernel.every(self.segment_every, self._rotate)

    def _worker(self, worker_id: int):
        cluster = self.cluster
        client = cluster.client(self.nodes[worker_id % len(self.nodes)],
                                name=f"soak-w{worker_id}")
        rng = random.Random(self.seed * 1009 + worker_id)
        stop_at = self.horizon - 2 * OP_PAUSE
        op = 0
        while cluster.kernel.now < stop_at:
            picks = rng.sample(self.refs, k=min(2, len(self.refs)))
            # canonical acquisition order: the soak measures sustained
            # objectives, not deadlock-victim throughput
            picks.sort(key=lambda ref: (ref.node, ref.uid))
            action = client.top_level(f"w{worker_id}.op{op}")
            try:
                for ref in picks:
                    yield from client.invoke(action, ref, "increment", 1)
                yield from client.commit(action)
                self.outcomes["committed"] += 1
            except Exception:
                self.outcomes["aborted"] += 1
                if not action.status.terminated:
                    yield from client.abort(action)
            op += 1
            yield Timeout(OP_PAUSE * (0.5 + rng.random()))

    def _arm_burst(self) -> None:
        """Schedule the seeded network-degradation window.

        Mutating the live ``NetworkConfig`` is deterministic: the fault
        RNG consumes exactly two draws per send regardless of the
        probabilities in force, so the burst changes message *fates*, not
        the RNG stream alignment.
        """
        config = self.cluster.network.config
        base = (config.min_delay, config.max_delay, config.drop_probability)
        obs = self.cluster.obs

        def start() -> None:
            config.min_delay = base[0] * self.surge
            config.max_delay = base[1] * self.surge
            config.drop_probability = min(0.9, base[2] + BURST_DROP)
            obs.emit("soak.fault_burst", phase="start", arm=self.arm,
                     surge=f"{self.surge:g}")

        def stop() -> None:
            config.min_delay, config.max_delay = base[0], base[1]
            config.drop_probability = base[2]
            obs.emit("soak.fault_burst", phase="stop", arm=self.arm)

        self.cluster.kernel.schedule(self.burst_start, start)
        self.cluster.kernel.schedule(self.burst_start + self.burst_duration,
                                     stop)

    # -- rotation --------------------------------------------------------------

    def _observe_peaks(self) -> None:
        obs = self.cluster.obs
        observed = {
            "spans": len(obs.tracer.spans),
            "audit_events": len(self.history.events),
            "flight_ring": len(self.recorder.ring_events()),
            "metric_series": obs.metrics.series_count(),
            "sampler_points": len(self.sampler.points),
            "breach_ledger": len(self.engine.breaches),
        }
        for key, value in observed.items():
            if value > self.peaks[key]:
                self.peaks[key] = value

    def _rotate(self) -> None:
        self._observe_peaks()
        start, now = self._segment_start, self.cluster.kernel.now
        if now <= start and self._segment_index > 0:
            return
        path = os.path.join(self.out_dir,
                            dump.segment_name(self._segment_index))
        segment = self.cluster.obs.rotate(path, start, now, extra={
            "segment": {"index": self._segment_index, "start_tick": start,
                        "end_tick": now, "arm": self.arm,
                        "seed": self.seed}})
        ledger = segment["extra"][SLOEngine.section]
        self.segment_verdicts.append({
            "index": self._segment_index, "start_tick": start,
            "end_tick": now,
            "breaches": len(ledger["breaches"]),
            "breaching": [row["objective"] for row in ledger["status"]
                          if row["state"] == "breaching"],
        })
        self.segment_files.append(path)
        self._segment_index += 1
        self._segment_start = now

    # -- run -------------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Build the cluster, run the arm to its horizon, write the report."""
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
        self._build()
        self.cluster.run()
        # the ledger only grows, so its peak is its length once caught up
        self.engine.catch_up()
        self._observe_peaks()
        if self.rotate and self.out_dir:
            self._rotate()  # final partial segment (skipped when empty)
        findings = len(self.cluster.obs.auditor.report())
        breaches = self.engine.dump()
        exit_code = 2 if (breaches["breach_total"] > 0 or findings > 0) else 0
        summary = {
            "format": FORMAT,
            "arm": self.arm,
            "seed": self.seed,
            "horizon": self.horizon,
            "elapsed": self.cluster.kernel.now,
            "committed": self.outcomes["committed"],
            "aborted": self.outcomes["aborted"],
            "audit_findings": findings,
            "segments": [os.path.basename(path)
                         for path in self.segment_files],
            "segment_verdicts": self.segment_verdicts,
            "breach_total": breaches["breach_total"],
            "breaches": breaches["breaches"],
            "active_breaches": breaches["active"],
            "objectives": breaches["objectives"],
            "peaks": dict(self.peaks),
            "exit_code": exit_code,
        }
        if self.out_dir:
            with open(os.path.join(self.out_dir, SUMMARY_NAME), "w",
                      encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
        return summary
