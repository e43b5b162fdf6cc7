"""The history layer: what a hub keeps of a run after it has happened.

A bare hub checks and counts but remembers nothing per action: an event
is handed to its readers and dropped, a span lives as long as its creator
holds it, and a report labelled with a ``colour`` lands in the series of
its other labels.  Binding :class:`History` turns the three kinds of
retention on together — they are what a dump's ``events``, ``spans`` and
per-colour ``metrics`` rows are made of:

- it subscribes to the bus unfiltered, so every event is built, numbered
  and kept (``events``);
- it asks the tracer to :meth:`~repro.obs.tracing.Tracer.retain` every
  span started from now on (``spans``);
- it stops the registry folding the ``colour`` label, so each colour gets
  its own series again.

Bind it before the first report (``cluster.observe(history=True)`` right
after ``Cluster()``): what happened earlier is not history.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.bus import ObsEvent

#: the event log is a ring this long: fine for tests and benchmarks; a
#: soak rotates long before it fills
MAX_EVENTS = 200_000


class History:
    """Retained events, finished spans and per-colour series of one hub."""

    section = "history"
    requires = ()

    def __init__(self, max_series: Optional[int] = None):
        if max_series is not None and max_series < 1:
            raise ValueError(f"max_series must be >= 1, got {max_series}")
        #: series cap per metric (``MetricsRegistry.max_series_per_metric``)
        self.max_series = max_series
        self.events: Deque[ObsEvent] = deque(maxlen=MAX_EVENTS)

    def bind(self, hub, cluster=None) -> None:
        """Start keeping what ``hub`` is told from now on."""
        self.hub = hub
        hub.bus.subscribe(self.events.append)
        hub.tracer.retain()
        hub.metrics.folded_labels = frozenset()
        hub.metrics.max_series_per_metric = self.max_series

    def event_dicts(self) -> List[Dict[str, Any]]:
        """The retained event log, JSON-ready (for dumps and CLI replay)."""
        return _dicts(list(self.events))

    def dump(self) -> Dict[str, Any]:
        """The ``spans`` and ``events`` of a whole-run dump."""
        return {"spans": self.hub.tracer.to_dicts(),
                "events": self.event_dicts()}

    def rotate(self, start: float, end: float) -> Dict[str, Any]:
        """One segment's share: the spans finished and the events published
        since the previous one, handed out and dropped (open spans stay), so
        consecutive segments partition both without overlap."""
        spans = [span.to_dict()
                 for span in self.hub.tracer.drain_finished()]
        events = [self.events.popleft() for _ in range(len(self.events))]
        return {"spans": spans, "events": _dicts(events)}


def _dicts(events: List[ObsEvent]) -> List[Dict[str, Any]]:
    return [{"seq": event.seq, "tick": event.tick, "kind": event.kind,
             "labels": dict(event.labels)} for event in events]
