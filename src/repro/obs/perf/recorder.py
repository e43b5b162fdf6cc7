"""The flight recorder: an always-on bounded ring over the obs event bus.

Dump-everything event retention (the history layer keeps up to 200k
events) is fine for tests but not for long runs; the flight recorder is the
fixed-memory alternative that can stay attached under heavy load.  It
subscribes to the hub's event bus and keeps the last ``capacity`` events
in a ring, *probabilistically sampling* the high-volume kinds (span
starts, lock traffic) at ``sample_rate`` while always retaining the rare,
diagnosis-critical kinds (2PC lifecycle, restarts, routing decisions).

Sampling is deterministic: decisions come from a seeded PRNG consuming one
draw per sampled-kind event, never from wall-clock or global randomness,
so a seeded simulation replays to an identical ring.

When the online invariant auditor raises a finding, the recorder freezes a
snapshot of the ring (the black box as of the failure); snapshots and the
live ring both travel in ``Observability.save`` dumps, so a failing test's
artifact contains the last-N-events context even when the full event log
was truncated.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Any, Deque, Dict, List

from repro.obs.bus import ObsEvent

#: kinds always retained regardless of sample_rate: low-volume, high-value
CRITICAL_KINDS = frozenset((
    "twopc.begin", "twopc.vote", "twopc.decision", "twopc.commit",
    "twopc.abort", "twopc.decision_query", "twopc.end", "twopc.downgrade",
    "commit.route", "colour.permanent", "node.restart", "node.crash",
    "action.begin", "action.end", "action.failure", "lock.refused",
))

#: at most this many finding snapshots are frozen per run
MAX_SNAPSHOTS = 4


class FlightRecorder:
    """Bounded, sampled event ring attached to an Observability hub."""

    section = "flight_recorder"
    requires = ()

    def __init__(self, capacity: int = 4096, sample_rate: float = 1.0,
                 seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self._mutex = threading.Lock()
        self._seq = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        #: events that fell out of the ring / were not sampled
        self.evicted = 0
        self.skipped = 0
        self.finding_snapshots: List[Dict[str, Any]] = []

    def bind(self, hub, cluster=None) -> None:
        """Record ``hub``'s bus; freeze the ring on every auditor finding."""
        hub.bus.subscribe(self.consume)
        hub.auditor.add_finding_listener(self._on_finding)

    # -- intake ---------------------------------------------------------------

    def consume(self, event: ObsEvent) -> None:
        with self._mutex:
            self._seq += 1
            if (event.kind not in CRITICAL_KINDS
                    and self.sample_rate < 1.0
                    and self._rng.random() >= self.sample_rate):
                self.skipped += 1
                return
            if len(self._ring) == self.capacity:
                self.evicted += 1
            self._ring.append({
                "seq": self._seq, "tick": event.tick, "kind": event.kind,
                "labels": dict(event.labels),
            })

    # -- black-box dumps -------------------------------------------------------

    def _on_finding(self, finding) -> None:
        """Freeze the ring as of this auditor finding (bounded)."""
        self.freeze(str(finding), kind=getattr(finding, "kind", ""))

    def freeze(self, label: str, kind: str = "finding") -> bool:
        """Freeze the current ring under ``label`` (bounded snapshots), so
        the black box as of an auditor finding survives the ring rolling
        on.  Returns whether a snapshot was actually taken (the
        per-run/segment cap of ``MAX_SNAPSHOTS`` may already be exhausted).
        """
        if len(self.finding_snapshots) >= MAX_SNAPSHOTS:
            return False
        self.finding_snapshots.append({
            "finding": label,
            "kind": kind,
            "events": self.ring_events(),
        })
        return True

    def ring_events(self) -> List[Dict[str, Any]]:
        """Current ring contents, oldest first."""
        with self._mutex:
            return [dict(entry) for entry in self._ring]

    def dump(self) -> Dict[str, Any]:
        """JSON-able section for ``Observability.save``."""
        return {
            "capacity": self.capacity,
            "sample_rate": self.sample_rate,
            "seen": self._seq,
            "evicted": self.evicted,
            "skipped": self.skipped,
            "events": self.ring_events(),
            "finding_snapshots": list(self.finding_snapshots),
        }

    def rotate(self, start: float, end: float) -> Dict[str, Any]:
        """One segment's section: the ring and the frozen snapshots are
        handed out and dropped — so each segment may freeze up to
        ``MAX_SNAPSHOTS`` of its own — while the counters (``seen`` /
        ``evicted`` / ``skipped``) keep accumulating."""
        section = self.dump()
        with self._mutex:
            self._ring.clear()
        self.finding_snapshots.clear()
        return section
