"""Per-(object, colour) lock hold times, measured grant to release.

Replaces the old server-side approximation (mirror lifetime) with the real
thing: a bus subscriber that clocks every ``lock.granted`` and observes the
elapsed ticks into a ``lock_hold_time`` histogram labelled by node, colour
and object when the matching ``lock.released`` arrives.  Commit-time
inheritance moves the clock to the inheriting owner without restarting it
(the object stays pinned across the hand-off, which is exactly the hold
the paper's glued/serializing schemes pay for).  A ``node.restart`` drops
the node's open clocks — its volatile lock tables died with it.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.obs.bus import ObsEvent


class LockHoldTracker:
    """Bus subscriber turning grant/release pairs into hold-time samples."""

    def __init__(self, metrics):
        self.metrics = metrics
        self._mutex = threading.Lock()
        #: (node, owner, object, colour) -> grant tick (earliest wins)
        self._since: Dict[Tuple[str, str, str, str], float] = {}

    def consume(self, event: ObsEvent) -> None:
        handler = self.HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _key(self, event: ObsEvent, owner_label: str = "owner"):
        return (str(event.label("node", "")),
                str(event.label(owner_label, "")),
                str(event.label("object", "")),
                str(event.label("colour", "")))

    def _on_granted(self, event: ObsEvent) -> None:
        with self._mutex:
            self._since.setdefault(self._key(event), event.tick)

    def _on_released(self, event: ObsEvent) -> None:
        with self._mutex:
            started = self._since.pop(self._key(event), None)
        if started is None:
            return
        node, _owner, obj, colour = self._key(event)
        self.metrics.histogram("lock_hold_time", node=node, colour=colour,
                               object=obj).observe(event.tick - started)

    def _on_inherited(self, event: ObsEvent) -> None:
        with self._mutex:
            started = self._since.pop(self._key(event), None)
            if started is None:
                started = event.tick
            dest_key = self._key(event, owner_label="to")
            existing = self._since.get(dest_key)
            if existing is None or started < existing:
                self._since[dest_key] = started

    def _on_restart(self, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        with self._mutex:
            for key in [k for k in self._since if k[0] == node]:
                del self._since[key]

    #: kind -> handler; the keys are the kinds the hub subscribes it with
    HANDLERS = {
        "lock.granted": _on_granted,
        "lock.released": _on_released,
        "lock.inherited": _on_inherited,
        "node.restart": _on_restart,
    }
