"""The Observability hub: one metrics registry + tracer + event bus.

A hub is attached to a :class:`~repro.cluster.cluster.Cluster` (created
automatically, on simulated time) or to a
:class:`~repro.runtime.runtime.LocalRuntime` via
``runtime.attach_observability(hub)``.  Instrumentation points throughout
the codebase accept a hub of ``None`` and degrade to no-ops, so observation
is always optional and never load-bearing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.obs import dump
from repro.obs.bus import EventBus
from repro.obs.export import (
    chrome_trace,
    span_timeline,
    span_tree,
    text_report,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer


def colour_names(colours) -> str:
    """Canonical label value for a colour set (sorted, comma-joined)."""
    return ",".join(sorted(str(colour) for colour in colours))


class Observability:
    """Bundles the three observation primitives behind one attach point."""

    def __init__(self, tick_source: Optional[Callable[[], float]] = None,
                 max_finished_spans: Optional[int] = None,
                 metrics_max_series: Optional[int] = None):
        self.metrics = MetricsRegistry(
            tick_source, max_series_per_metric=metrics_max_series)
        self.tracer = Tracer(
            tick_source, max_finished_spans=max_finished_spans,
            on_drop=lambda n: self.count("spans_dropped_total", n))
        self.bus = EventBus()
        self._tick_source = tick_source
        # always-on runtime verification: every hub audits its own event
        # stream (repro.obs.audit) and measures real grant->release lock
        # hold times; both are pure subscribers and never block the bus.
        from repro.obs.audit.auditor import InvariantAuditor
        from repro.obs.audit.holdtime import LockHoldTracker

        self.auditor = InvariantAuditor(metrics=self.metrics)
        self.bus.subscribe(self.auditor.consume)
        self.hold_times = LockHoldTracker(self.metrics)
        self.bus.subscribe(self.hold_times.consume)
        # perf-observatory attach points (repro.obs.perf); populated by
        # TimeSeriesSampler / FlightRecorder constructors when used.
        self.sampler = None
        self.flight = None
        # causal-attribution attach point (repro.obs.postmortem); populated
        # by PostmortemEngine when one is attached to this hub.
        self.postmortem = None
        # live-introspection attach point (repro.obs.introspect); populated
        # by ClusterInspector when one is attached to this hub's cluster.
        self.inspector = None
        # service-level-objective attach point (repro.obs.slo); populated
        # by SLOEngine when one is attached to this hub.
        self.slo = None

    def now(self) -> float:
        """Current time from the tick source (0.0 when none is attached)."""
        if self._tick_source is not None:
            return self._tick_source()
        return 0.0

    # -- recording shorthands ------------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment the counter ``name{labels}`` by ``amount``."""
        self.metrics.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        self.metrics.histogram(name, **labels).observe(value)

    def span(self, name: str, parent: Optional[Any] = None,
             kind: str = "internal", node: str = "", **attrs: Any) -> Span:
        """Start a trace span and announce it on the event bus.

        ``parent`` is a :class:`~repro.obs.tracing.Span` or an encoded
        span context carried over RPC; the returned span must be
        ``finish()``-ed by the caller.
        """
        span = self.tracer.start_span(name, parent=parent, kind=kind,
                                      node=node, **attrs)
        self.bus.emit(span.start, "span.start", name=name, node=node,
                      span_kind=kind)
        return span

    def emit(self, kind: str, **labels: Any) -> None:
        """Publish an event on the bus, stamped with :meth:`now`."""
        self.bus.emit(self.now(), kind, **labels)

    # -- export shorthands -----------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """JSON-able snapshot of every metric instrument."""
        return self.metrics.dump()

    def report(self) -> str:
        """Human-readable metrics summary (counters, gauges, quantiles)."""
        return text_report(self.metrics)

    def chrome_trace(self) -> Dict[str, Any]:
        """Spans as a Chrome-trace document (chrome://tracing, Perfetto)."""
        return chrome_trace(self.tracer)

    def span_tree(self, trace_id: Optional[str] = None) -> str:
        """Render finished spans as indented trees, one per trace."""
        return span_tree(self.tracer, trace_id=trace_id)

    def span_timeline(self, width: int = 60,
                      trace_id: Optional[str] = None) -> str:
        """Render finished spans as an ASCII timeline ``width`` columns wide."""
        return span_timeline(self.tracer, width=width, trace_id=trace_id)

    def save(self, path: str, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Write spans + metrics + retained events to ``path`` as one document.

        Attached perf-observatory artifacts (flight-recorder ring,
        sampler timeline) ride along under ``extra``; the result is what
        every ``python -m repro.obs <command>`` console consumes.
        """
        extra = dict(extra) if extra else {}
        if self.flight is not None:
            extra.setdefault("flight_recorder", self.flight.dump())
        if self.sampler is not None:
            extra.setdefault("timeline", self.sampler.timeline())
        if self.postmortem is not None:
            extra.setdefault("postmortem", self.postmortem.dump())
        if self.inspector is not None:
            extra.setdefault("introspection", self.inspector.dump())
        if self.slo is not None:
            extra.setdefault("slo", self.slo.dump())
        return dump.write(path, dump.document(
            spans=self.tracer.to_dicts(), metrics=self.metrics.dump(),
            events=self.auditor.event_dicts(), extra=extra))
