"""Observability for multi-coloured actions: metrics, tracing, exporters.

The paper's claims are per colour — failure atomicity, serializability and
permanence each hold colour-by-colour — so the instruments here are
labelled per colour (and per node, per action structure) too:

- :class:`MetricsRegistry` — counters, gauges, histograms (p50/p95/max):
  commits/aborts per colour, lock wait and hold time, lock-inheritance vs.
  permanent-commit counts, 2PC round latency, messages by kind, deadlock
  detections, recovery replays.
- :class:`Tracer` / :class:`Span` — distributed tracing with context
  propagation piggybacked on cluster message payloads, so one action's
  spans stitch across client → transport → server → 2PC participants.
- exporters — Chrome ``trace_event`` JSON (``chrome://tracing`` /
  Perfetto), plain-text reports, ASCII span trees/timelines (including
  the paper-style :func:`action_timeline`), and the ``repro-obs/1`` JSON
  dump (:mod:`repro.obs.dump`) every ``python -m repro.obs <command>``
  console reads.

Attach an :class:`Observability` hub::

    from repro.obs import Observability
    from repro.cluster import Cluster

    cluster = Cluster(seed=7)          # a hub on simulated time, built in
    cluster.observe(history=True)      # keep events, spans, per-colour series
    ... run a workload ...
    print(cluster.obs.report())        # metrics
    print(cluster.obs.span_tree())     # distributed traces
    cluster.obs.save("run.trace.json") # for `python -m repro.obs report`

The local (threaded) runtime builds its own hub too::

    runtime = LocalRuntime()
    runtime.obs.bind(History())        # keep spans for action_timeline

Without the history layer a hub audits and counts but keeps nothing per
action (:mod:`repro.obs.history`).
"""

from repro.obs.bus import EventBus, ObsEvent
from repro.obs.export import (
    action_timeline,
    chrome_trace,
    span_timeline,
    span_tree,
    survival_report,
    text_report,
)
from repro.obs.history import History
from repro.obs.hub import Observability, colour_names
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Span, SpanContext, Tracer, TRACE_KEY

__all__ = [
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "History",
    "MetricsRegistry",
    "ObsEvent",
    "Observability",
    "Span",
    "SpanContext",
    "TRACE_KEY",
    "Tracer",
    "action_timeline",
    "chrome_trace",
    "colour_names",
    "span_timeline",
    "span_tree",
    "survival_report",
    "text_report",
]
