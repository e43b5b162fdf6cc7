"""Span-based distributed tracing.

A :class:`Span` is one timed unit of work (an action's lifetime, one RPC,
one server-side handler execution).  Spans form trees via ``parent_id`` and
share a ``trace_id`` — one trace per top-level action, stitched across
nodes by piggybacking a :class:`SpanContext` on cluster message payloads
(see :meth:`Tracer.inject` / :meth:`Tracer.extract`; the transport layer
carries it under the ``"_trace"`` payload key).

Ids are allocated from deterministic counters, never randomness, so traces
of a seeded cluster simulation are reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: payload key the transport uses to carry a span context across the wire.
TRACE_KEY = "_trace"


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: enough to parent a remote child."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(raw: Optional[Dict[str, Any]]) -> Optional["SpanContext"]:
        if not raw:
            return None
        return SpanContext(str(raw["trace_id"]), str(raw["span_id"]))


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "kind", "node", "start", "end", "attrs", "events")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, kind: str,
                 node: str, start: float):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind              # "action" | "client" | "server" | "internal"
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """A point-in-time annotation inside the span (e.g. a retransmit)."""
        self.events.append((self.tracer.now(), name, attrs))

    def finish(self, at: Optional[float] = None) -> "Span":
        """Idempotently close the span."""
        if self.end is None:
            self.end = at if at is not None else self.tracer.now()
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "events": [
                {"tick": tick, "name": name, "attrs": dict(attrs)}
                for tick, name, attrs in self.events
            ],
        }

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:g}"
        return f"<Span {self.name} [{self.span_id}] {state}>"


class _Unkept:
    """What :meth:`~repro.obs.hub.Observability.span` hands out when
    nobody keeps spans or reads their starts: every operation of a
    :class:`Span` that a creator calls, doing nothing.  It has no
    context, so nothing is carried over the wire for it either."""

    __slots__ = ()

    context = None

    def set(self, **_attrs: Any) -> "_Unkept":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def finish(self, at: Optional[float] = None) -> "_Unkept":
        return self

    def __repr__(self) -> str:
        return "<Span unkept>"


#: the one unkept span
UNKEPT = _Unkept()


def _forget(_span: Span) -> None:
    """What a tracer nobody asked to :meth:`~Tracer.retain` does with a
    span it started."""


class Tracer:
    """Creates spans, and keeps them once asked to :meth:`retain`.

    ``tick_source`` provides timestamps (``lambda: kernel.now`` for the
    cluster; a logical counter otherwise).  The tracer is shared across
    simulated nodes — each span records which node it ran on — which is
    what a collector would see after export in a real deployment.

    Until :meth:`retain` is called :attr:`spans` stays empty: a span lives
    as long as its creator holds it (the history layer is what calls it on
    a hub).  A hub asks for one only while spans are kept or their starts
    read; otherwise it hands out :data:`UNKEPT` and the tracer builds
    nothing.
    """

    def __init__(self, tick_source: Optional[Callable[[], float]] = None):
        self._tick_source = tick_source
        self._logical = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._mutex = threading.Lock()
        self.spans: List[Span] = []
        #: whether :meth:`retain` was called: spans are kept from then on
        self.keeping = False
        #: where a started span is reported; see :meth:`retain`
        self._started: Callable[[Span], None] = _forget

    def retain(self) -> None:
        """Keep every span started from now on in :attr:`spans`.

        Nothing evicts a kept span: a long run bounds them by handing the
        finished ones out (:meth:`drain_finished`), as a soak's segment
        rotation does.
        """
        self.keeping = True
        self._started = self._keep

    def now(self) -> float:
        if self._tick_source is not None:
            return self._tick_source()
        return float(next(self._logical))

    # -- span lifecycle ------------------------------------------------------

    def start_span(self, name: str, parent: Optional[Any] = None,
                   kind: str = "internal", node: str = "",
                   **attrs: Any) -> Span:
        """Open a span; ``parent`` is a Span, a SpanContext, or None.

        Without a parent the span roots a fresh trace.
        """
        with self._mutex:
            if isinstance(parent, (Span, SpanContext)):
                trace_id = parent.trace_id
                parent_id: Optional[str] = parent.span_id
            else:
                trace_id = f"t{next(self._trace_ids)}"
                parent_id = None
            span = Span(self, trace_id, f"s{next(self._span_ids)}",
                        parent_id, name, kind, node, self.now())
            self._started(span)
        span.attrs.update(attrs)
        return span

    # -- retention -----------------------------------------------------------

    def _keep(self, span: Span) -> None:
        self.spans.append(span)

    def drain_finished(self) -> List[Span]:
        """Remove and return every finished span (open spans stay).

        Segment rotation uses this to stream spans out while a soak is
        still running, keeping in-memory retention proportional to one
        segment rather than the whole horizon.
        """
        with self._mutex:
            finished = [span for span in self.spans if span.finished]
            self.spans = [span for span in self.spans if not span.finished]
            return finished

    # -- context propagation -------------------------------------------------

    @staticmethod
    def inject(span: Optional[Span], payload: Dict[str, Any]) -> Dict[str, Any]:
        """Attach ``span``'s context, if it has one, to an outgoing
        message payload."""
        context = span.context if span is not None else None
        if context is not None:
            payload[TRACE_KEY] = context.to_wire()
        return payload

    @staticmethod
    def extract(payload: Dict[str, Any]) -> Optional[SpanContext]:
        """Recover the sender's span context from a message payload."""
        return SpanContext.from_wire(payload.get(TRACE_KEY))

    # -- queries -----------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        with self._mutex:
            return [span for span in self.spans if span.finished]

    def snapshot(self) -> List[Span]:
        with self._mutex:
            return list(self.spans)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.snapshot()]

    def clear(self) -> None:
        with self._mutex:
            self.spans.clear()
