"""The Observability hub: one metrics registry + tracer + event bus.

A bare hub is cheap to report into and keeps nothing per finished action:
its :class:`~repro.obs.world.World` folds the event kinds the always-on
auditor reads (and measures lock hold times on the way), forgetting each
finished action tree; an event nobody reads is never built, nor is a span
nobody keeps, and the ``colour`` label splits no series (a lookup that
carried one is resolved once, as that of its other labels).  What a run
*was* — every event, every span, per-colour statistics — is kept by the
history layer (:mod:`repro.obs.history`), bound like any other.

Every :class:`~repro.cluster.cluster.Cluster` (on simulated time) and
every :class:`~repro.runtime.runtime.LocalRuntime` builds its own hub,
``.obs``, and reports into it unconditionally; only ``Network``, which
tests also build on its own, accepts a hub of ``None``.  The
network reports nothing per message: it counts in plain ints, which the
registry pulls when it is read (:meth:`MetricsRegistry.collect
<repro.obs.metrics.MetricsRegistry.collect>`).

Everything beyond the three primitives is a *layer*, and there is one way
to turn one on — ``hub.bind(layer)``, or ``cluster.observe(...)`` which
builds and binds by section name.  A layer is any object with:

``section``
    its key in ``hub.layers`` and in a dump's ``extra``;
``requires``
    the sections that must be bound with it (``cluster.observe`` adds them);
``bind(hub, cluster=None)``
    all its wiring: bus subscriptions, timers, cluster gauge probes;
``dump()``
    its section of a whole-run :meth:`Observability.save`;
``rotate(start, end)``
    its section of one soak segment, handing out and dropping what only
    that window needs (:meth:`Observability.rotate`).

The history layer's section is the document's top-level ``spans`` and
``events``; every other layer's goes under ``extra``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.actions.status import ActionStatus
from repro.locking.modes import mode_label
from repro.obs import dump
from repro.obs.bus import EventBus, ObsEvent
from repro.obs.export import (
    chrome_trace,
    span_timeline,
    span_tree,
    text_report,
)
from repro.obs.history import History
from repro.obs.metrics import MetricsRegistry, dump_delta
from repro.obs.tracing import UNKEPT, Span, Tracer
from repro.obs.world import World


def colour_names(colours) -> str:
    """Canonical label value for a colour set (sorted, comma-joined)."""
    return ",".join(sorted(str(colour) for colour in colours))


class Observability:
    """Bundles the three observation primitives behind one attach point."""

    def __init__(self, tick_source: Optional[Callable[[], float]] = None):
        self.metrics = MetricsRegistry(tick_source, folded_labels=("colour",))
        self.tracer = Tracer(tick_source)
        self.bus = EventBus(on_error=lambda subscriber: self.count(
            "obs_subscriber_errors_total", subscriber=subscriber))
        self._tick_source = tick_source
        # always-on runtime verification: every hub audits its own event
        # stream (repro.obs.audit) and measures real grant->release lock
        # hold times, both over the one World it folds; the World reads the
        # kinds its users read and never blocks the bus.
        from repro.obs.audit.auditor import InvariantAuditor

        self.world = World(on_release=self._lock_held)
        self.auditor = InvariantAuditor(metrics=self.metrics,
                                        world=self.world)
        self.world.subscribe(self.bus)
        #: section name -> bound layer, in binding order (see :meth:`bind`)
        self.layers: Dict[str, Any] = {}
        #: what :meth:`rotate` has already handed out: the cumulative
        #: metrics as of the last segment
        self._rotated_metrics: Dict[str, Any] = {}

    def bind(self, layer: Any, cluster: Optional[Any] = None) -> Any:
        """Turn ``layer`` on: register it under its section, let it wire
        itself to this hub (and to ``cluster``, when it watches one).

        Returns the layer.  One layer per section: binding a second is a
        ``RuntimeError``.
        """
        if layer.section in self.layers:
            raise RuntimeError(f"layer {layer.section!r} is already bound")
        self.layers[layer.section] = layer
        layer.bind(self, cluster)
        return layer

    def _lock_held(self, node: str, obj: str, hold: Any,
                   tick: float) -> None:
        """A lock record went: its hold time, grant to release, survives
        commit-time inheritance (the object stays pinned across it)."""
        self.metrics.histogram("lock_hold_time", node=node,
                               colour=hold.colour,
                               object=obj).observe(tick - hold.since)

    def now(self) -> float:
        """Current time from the tick source (0.0 when none is attached)."""
        if self._tick_source is not None:
            return self._tick_source()
        return 0.0

    # -- recording shorthands ------------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment the counter ``name{labels}`` by ``amount``."""
        self.metrics._get("counter", name, labels).inc(amount)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        self.metrics._get("histogram", name, labels).observe(value)

    def span(self, name: str, parent: Optional[Any] = None,
             kind: str = "internal", node: str = "", **attrs: Any) -> Span:
        """Start a trace span and announce it on the event bus.

        ``parent`` is a :class:`~repro.obs.tracing.Span` or an encoded
        span context carried over RPC; the returned span must be
        ``finish()``-ed by the caller.  While the tracer keeps no span and
        nobody reads ``span.start``, nothing is built: the span is
        :data:`~repro.obs.tracing.UNKEPT`, which has no context to carry.
        """
        by_kind, unfiltered = self.bus._routes
        readers = by_kind.get("span.start", unfiltered)
        if not (readers or self.tracer.keeping):
            return UNKEPT
        span = self.tracer.start_span(name, parent=parent, kind=kind,
                                      node=node, **attrs)
        if readers:
            self.bus.publish(ObsEvent(span.start, "span.start", {
                "name": name, "node": node, "span_kind": kind}))
        return span

    def spanning(self) -> bool:
        """Would :meth:`span` build a span now: does anybody read
        ``span.start``, or does the tracer keep spans?  Asked once per
        RPC by the transport, which skips its spans when it is false."""
        by_kind, unfiltered = self.bus._routes
        return bool(by_kind.get("span.start", unfiltered)
                    or self.tracer.keeping)

    def emit(self, kind: str, **labels: Any) -> None:
        """Publish an event on the bus, stamped with :meth:`now`, if
        anybody reads ``kind``."""
        by_kind, unfiltered = self.bus._routes
        if by_kind.get(kind, unfiltered):
            self.bus.publish(ObsEvent(self.now(), kind, labels))

    # -- the action lifecycle, reported by LocalRuntime / ClusterClient --------

    def action_begun(self, action: Any, node: str) -> None:
        """An action was created by the runtime or client on ``node``.

        Opens its ``action:<name>`` span (parented on the parent action's)
        and publishes it as ``action._obs_span`` so RPC and termination
        spans can stitch underneath; announces the begin as an
        ``action.begin`` event.
        """
        home = action.home or node
        colours = colour_names(action.colours)
        action._obs_span = self.span(
            f"action:{action.name}",
            parent=action.parent and action.parent._obs_span,
            kind="action", node=home, colours=colours,
            action=str(action.uid))
        self.emit("action.begin", action=str(action.uid), name=action.name,
                  parent=(str(action.parent.uid)
                          if action.parent is not None else ""),
                  colours=colours, node=home)

    def action_ended(self, action: Any, node: str) -> None:
        """An action committed or aborted: per-colour outcome counters,
        the action span closed with its outcome, ``action.end`` announced."""
        outcome = ("committed" if action.status is ActionStatus.COMMITTED
                   else "aborted")
        for colour in action.colours:
            self.count(f"actions_{outcome}_total", colour=str(colour),
                       node=node)
        action._obs_span.set(outcome=outcome).finish()
        self.emit("action.end", action=str(action.uid), name=action.name,
                  outcome=outcome, colours=colour_names(action.colours),
                  node=action.home or node)

    def commit_routed(self, action: Any, colour: Any, destination: Any,
                      node: str) -> None:
        """§5.2 routing, as the auditor verifies it: ``action`` is
        committing and ``colour`` goes to ``destination`` — the closest
        ancestor possessing it, which inherits its locks and undo
        responsibility — or, ``None``, is made permanent."""
        self.emit("commit.route", action=str(action.uid), colour=str(colour),
                  dest=str(destination.uid) if destination is not None else "",
                  node=node)
        if destination is not None:
            self.count("colour_inherited_total", colour=str(colour))

    def lock_granted(self, action: Any, object_uid: Any, mode: Any,
                     colour: Any, node: str) -> None:
        """The local runtime granted ``action`` a lock: counter + an event
        on the action's span.  (The bus-level ``lock.granted`` event comes
        from the lock registry itself, which also covers server grants.)"""
        label = mode_label(mode)
        self.count("lock_grants_total", mode=label, node=node)
        action._obs_span.event("lock.granted", object=str(object_uid),
                               mode=label, colour=str(colour))

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
        """Write metrics + every bound layer's ``dump()`` to ``path`` as one
        document: the history layer's retained spans and events at the top
        level, the others under ``extra``.

        The result is what every ``python -m repro.obs <command>`` console
        consumes.
        """
        return self._write(
            path, self.metrics.dump(), extra,
            {name: layer.dump() for name, layer in self.layers.items()})

    def rotate(self, path: str, start: float, end: float,
               extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Write one soak segment covering ``(start, end]`` to ``path`` and
        drop what it handed out, so memory stays bounded over any horizon.

        Metrics are the **delta** since the previous segment (summing all
        segments telescopes back to an unrotated run); every bound layer
        contributes its ``rotate(start, end)`` section.
        """
        current = self.metrics.dump()
        metrics = dump_delta(current, self._rotated_metrics)
        self._rotated_metrics = current
        return self._write(
            path, metrics, extra,
            {name: layer.rotate(start, end)
             for name, layer in self.layers.items()})

    def _write(self, path, metrics, extra, sections):
        history = sections.pop(History.section, {})
        # a caller's own ``extra`` keys win over a layer's section
        return dump.write(path, dump.document(
            spans=history.get("spans"), metrics=metrics,
            events=history.get("events"),
            extra={**sections, **(extra or {})}))
